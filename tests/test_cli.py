import os
import subprocess
import sys

import pytest

from hbgsearch import cli
from hbgsearch.cli import main
from hbgsearch.search import ENGINE_TAG


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def heawood_run(tmp_path, capsys):
    out_dir = tmp_path / "g6"
    code, out, err = run_cli("search", "--girth", "6", "--sym", "1",
                             "--min", "6", "--max", "20", "--mode", "first",
                             "--out", str(out_dir), capsys=capsys)
    assert code == 0
    return out_dir, out


class TestSearchCommand:
    def test_heawood_run_files_and_exit(self, heawood_run):
        out_dir, out = heawood_run
        assert "order 14 witness witnesses 1" in out
        assert out.strip().splitlines()[-1] == "minimal 14"
        names = sorted(os.listdir(out_dir))
        assert "g6_n14_b1_w000.hbg" in names
        assert sum(1 for n in names if n.endswith(".cert")) == 5

    def test_usage_error_when_no_order_divisible(self, capsys):
        code, out, err = run_cli("search", "--girth", "6", "--sym", "3",
                                 "--min", "8", "--max", "8", capsys=capsys)
        assert code == 1
        assert "divisible" in err

    def test_odd_min_scans_the_even_orders_above_it(self, capsys):
        code, out, err = run_cli("search", "--girth", "6", "--sym", "1",
                                 "--min", "13", "--max", "14", "--quiet", capsys=capsys)
        assert code == 0
        assert out.splitlines() == ["order 14 witness witnesses 1 nodes 1 leaves 1",
                                    "minimal 14"]

    def test_step_is_not_an_option(self, capsys):
        code, out, err = run_cli("search", "--girth", "6", "--sym", "1", "--min", "6",
                                 "--max", "20", "--step", "4", capsys=capsys)
        assert code == 1 and "--step" in err

    def test_config_is_not_an_option(self, tmp_path, capsys):
        # a lower-bound override is a `bound` line of a `table --claims` file
        config = tmp_path / "bounds.txt"
        config.write_text("6 20\n")
        out_dir = tmp_path / "out"
        code, out, err = run_cli("search", "--girth", "6", "--sym", "1", "--min", "14",
                                 "--max", "14", "--config", str(config),
                                 "--out", str(out_dir), capsys=capsys)
        assert code == 1 and "--config" in err and out == ""
        assert not out_dir.exists() and os.listdir(tmp_path) == ["bounds.txt"]

    def test_count_is_not_a_mode(self, capsys):
        code, out, err = run_cli("search", "--girth", "6", "--sym", "1", "--min", "14",
                                 "--max", "14", "--mode", "count", capsys=capsys)
        assert code == 1 and out == ""
        assert err == ("usage error: unknown search mode 'count'; choose from "
                       "first-witness, all-witnesses, prove-nonexistence\n")

    def test_missing_flags_is_usage_error(self, capsys):
        code, out, err = run_cli("search", "--girth", "6", capsys=capsys)
        assert code == 1 and "usage error" in err

    def test_written_files_reparse(self, heawood_run, capsys):
        out_dir, _ = heawood_run
        wfile = str(out_dir / "g6_n14_b1_w000.hbg")
        code, out, err = run_cli("verify", wfile, capsys=capsys)
        assert code == 0 and out.strip() == "PASS girth=6"

    def test_budget_breach_exit_2_and_resume(self, tmp_path, capsys):
        out_dir = tmp_path / "b7"
        code, out, err = run_cli("search", "--girth", "14", "--sym", "7",
                                 "--min", "266", "--max", "266", "--mode", "prove",
                                 "--node-budget", "20000", "--out", str(out_dir),
                                 "--quiet", capsys=capsys)
        assert code == 2
        assert "order 266 undecided" in out
        resume = out_dir / "g14_n266_b7.resume"
        assert resume.exists()
        cert = (out_dir / "g14_n266_b7.cert").read_text()
        assert "status budget-exceeded" in cert

    def test_double_resume_chain(self, tmp_path, capsys):
        out_dir = tmp_path / "chain"
        code, *_ = run_cli("search", "--girth", "14", "--sym", "3",
                           "--min", "258", "--max", "258", "--mode", "prove",
                           "--node-budget", "3000", "--out", str(out_dir),
                           "--quiet", capsys=capsys)
        assert code == 2
        resume = str(out_dir / "g14_n258_b3.resume")
        code, *_ = run_cli("search", "--resume", resume, "--node-budget", "5000",
                           "--quiet", capsys=capsys)
        assert code == 2  # breached again, resume file rewritten
        code, out, err = run_cli("search", "--resume", resume,
                                 "--node-budget", "100000", "--quiet", capsys=capsys)
        assert code == 0 and "order 258 exhausted" in out
        direct_dir = tmp_path / "direct"
        run_cli("search", "--girth", "14", "--sym", "3", "--min", "258",
                "--max", "258", "--mode", "prove", "--out", str(direct_dir),
                "--quiet", capsys=capsys)
        assert (out_dir / "g14_n258_b3.cert").read_text() == \
               (direct_dir / "g14_n258_b3.cert").read_text()

    def test_progress_flag_prints_to_stderr(self, tmp_path, capsys):
        code, out, err = run_cli("search", "--girth", "6", "--sym", "1",
                                 "--min", "14", "--max", "14", "--mode", "prove",
                                 "--progress", capsys=capsys)
        assert code == 0
        assert "5/5 roots" in err
        assert "roots" not in out
        # pooled shards report too
        code, out, err = run_cli("search", "--girth", "6", "--sym", "1",
                                 "--min", "14", "--max", "14", "--mode", "prove",
                                 "--shards", "2", "--progress", capsys=capsys)
        assert code == 0
        assert "5/5 roots" in err
        assert "roots" not in out

    def test_resume_completes_small_case(self, tmp_path, capsys):
        out_dir = tmp_path / "res"
        code, *_ = run_cli("search", "--girth", "14", "--sym", "3",
                           "--min", "258", "--max", "258", "--mode", "prove",
                           "--node-budget", "4000", "--out", str(out_dir),
                           "--quiet", capsys=capsys)
        assert code == 2
        code, out, err = run_cli("search", "--resume",
                                 str(out_dir / "g14_n258_b3.resume"),
                                 "--node-budget", "100000", "--quiet", capsys=capsys)
        assert code == 0
        assert "order 258 exhausted" in out
        assert not (out_dir / "g14_n258_b3.resume").exists()
        # stitched certificate equals an uninterrupted run's
        direct_dir = tmp_path / "direct"
        run_cli("search", "--girth", "14", "--sym", "3", "--min", "258",
                "--max", "258", "--mode", "prove", "--out", str(direct_dir),
                "--quiet", capsys=capsys)
        assert (out_dir / "g14_n258_b3.cert").read_text() == \
               (direct_dir / "g14_n258_b3.cert").read_text()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        dirs = []
        for name in ("one", "two"):
            d = tmp_path / name
            code, *_ = run_cli("search", "--girth", "8", "--sym", "3",
                               "--min", "6", "--max", "30", "--mode", "all",
                               "--out", str(d), "--quiet", capsys=capsys)
            assert code == 0
            dirs.append(d)
        a, b = dirs
        assert sorted(os.listdir(a)) == sorted(os.listdir(b))
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_shards_flag_matches_serial_output(self, tmp_path, capsys):
        serial = tmp_path / "serial"
        sharded = tmp_path / "sharded"
        for d, shards in ((serial, "1"), (sharded, "4")):
            code, *_ = run_cli("search", "--girth", "8", "--sym", "3",
                               "--min", "30", "--max", "42", "--mode", "prove",
                               "--shards", shards, "--out", str(d), "--quiet",
                               capsys=capsys)
            assert code == 0
        for name in sorted(os.listdir(serial)):
            assert (serial / name).read_bytes() == (sharded / name).read_bytes()


class TestVerifyCommand:
    def test_fail_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.hbg"
        bad.write_text("HBG 1\ng 8\nn 14\nb 1\noffsets 5 9\n", encoding="ascii")
        code, out, err = run_cli("verify", str(bad), capsys=capsys)
        assert code == 1 and "FAIL" in out and "girth 6 < 8" in out

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "junk.hbg"
        bad.write_text("nonsense\n", encoding="ascii")
        code, out, err = run_cli("verify", str(bad), capsys=capsys)
        assert code == 1 and "FAIL" in out

    def test_verbose_lists_checks(self, heawood_run, capsys):
        out_dir, _ = heawood_run
        code, out, err = run_cli("verify", "--verbose",
                                 str(out_dir / "g6_n14_b1_w000.hbg"), capsys=capsys)
        assert code == 0
        assert "ok   pattern" in out and "ok   girth" in out


class TestGirthCanonCommands:
    def test_girth_command(self, tmp_path, capsys):
        f = tmp_path / "k33.hbg"
        f.write_text("HBG 1\ng 4\nn 6\nb 1\noffsets 3 3\n", encoding="ascii")
        code, out, err = run_cli("girth", str(f), capsys=capsys)
        assert code == 0 and out.strip() == "girth 4"

    def test_girth_cap(self, tmp_path, capsys):
        f = tmp_path / "hw.hbg"
        f.write_text("HBG 1\ng 6\nn 14\nb 1\noffsets 5 9\n", encoding="ascii")
        code, out, err = run_cli("girth", str(f), "--cap", "4", capsys=capsys)
        assert code == 0 and out.strip() == "girth > 4"

    def test_canon_rewrites_file(self, tmp_path, capsys):
        f = tmp_path / "shifted.hbg"
        f.write_text("HBG 1\ng 6\nn 14\nb 1\noffsets 9 5\nnote keep me\n",
                     encoding="ascii")
        code, out, err = run_cli("canon", str(f), capsys=capsys)
        assert code == 0 and out.strip() == "offsets 5 9"
        text = f.read_text()
        assert "offsets 5 9" in text and "note keep me" in text

    def test_canon_dry_run(self, tmp_path, capsys):
        f = tmp_path / "shifted.hbg"
        original = "HBG 1\ng 6\nn 14\nb 1\noffsets 9 5\n"
        f.write_text(original, encoding="ascii")
        code, out, err = run_cli("canon", str(f), "--dry-run", capsys=capsys)
        assert code == 0 and f.read_text() == original


class TestTableReportCommands:
    def test_table_from_run_dir(self, heawood_run, capsys):
        out_dir, _ = heawood_run
        code, out, err = run_cli("table", "--girth", "6", "--dir", str(out_dir),
                                 capsys=capsys)
        assert code == 0
        row = [line for line in out.splitlines() if line.startswith("1")][0]
        assert "resolved" in row

    def test_table_kv_with_claims(self, tmp_path, heawood_run, capsys):
        out_dir, _ = heawood_run
        claims = tmp_path / "claims.txt"
        claims.write_text("HBG-CLAIMS 1\ng 6\nupper 2 16 guess\n", encoding="ascii")
        code, out, err = run_cli("table", "--girth", "6", "--dir", str(out_dir),
                                 "--claims", str(claims), "--format", "kv",
                                 capsys=capsys)
        assert code == 0
        assert "row 1 14 14 14 verified resolved" in out
        assert "row 2 16 16 16 claimed resolved-claimed" in out

    def test_claims_bound_overrides_the_floor(self, tmp_path, capsys):
        claims = tmp_path / "claims.txt"
        claims.write_text("HBG-CLAIMS 1\ng 6\nbound 20\n", encoding="ascii")
        code, out, err = run_cli("table", "--girth", "6", "--dir", str(tmp_path), "--sym", "1",
                                 "--claims", str(claims), "--format", "kv", capsys=capsys)
        assert code == 0
        assert "row 1 20 20 - - open" in out

    def test_witness_below_the_claimed_bound_is_an_error(self, tmp_path, heawood_run, capsys):
        out_dir, _ = heawood_run
        claims = tmp_path / "claims.txt"
        claims.write_text("HBG-CLAIMS 1\ng 6\nbound 20\n", encoding="ascii")
        code, out, err = run_cli("table", "--girth", "6", "--dir", str(out_dir),
                                 "--claims", str(claims), capsys=capsys)
        assert code == 1 and out == ""
        assert err.splitlines()[-1] == ("error: b=1: witness g6_n14_b1_w000.hbg of order 14 "
                                        "lies below the lower bound 20; inputs inconsistent")

    def test_reduced_certificate_is_not_evidence(self, tmp_path, capsys):
        # a complete, leaf-free run with orbit reduction on: not the plain
        # full enumeration that non-existence rests on
        cert = tmp_path / "g14_n264_b4.cert"
        cert.write_text("HBG-CERT 1\ng 14\nn 264\nb 4\nmode prove-nonexistence\n"
                        "reduction on\npositions 8\npairs 4\nroots 3 131\ncovered 3 131\n"
                        "status complete\nexpansions 89505\nconflicts 44504\n"
                        "girth-rejects 34401\nsym-skips 9912\nnodes 688\nleaves 0\n"
                        "engine hbgsearch-0.1.0\n", encoding="ascii")
        note = f"note: skipped {cert}: not non-existence evidence (reduction on"
        code, out, err = run_cli("table", "--girth", "14", "--dir", str(tmp_path),
                                 "--sym", "4", capsys=capsys)
        assert code == 0 and err.startswith(note)
        assert out.splitlines()[-1].split() == ["4", "264", "264", "-", "open"]
        code, out, err = run_cli("report", "--girth", "14", "--dir", str(tmp_path),
                                 capsys=capsys)
        assert code == 0 and err.startswith(note)
        assert out.splitlines()[-1] == "(no certified orders)"

    def test_certificate_of_a_short_root_span_is_an_error(self, tmp_path, capsys):
        # g=14 b=3 n=258 has the 127 roots 3..255; one root is no proof
        cert = tmp_path / "g14_n258_b3.cert"
        cert.write_text("HBG-CERT 1\ng 14\nn 258\nb 3\nmode prove-nonexistence\n"
                        "reduction off\npositions 6\npairs 3\nroots 3 3\ncovered 3 3\n"
                        "status complete\nexpansions 1\nconflicts 0\ngirth-rejects 1\n"
                        "sym-skips 0\nnodes 0\nleaves 0\nengine hbgsearch-0.1.0\n",
                        encoding="ascii")
        error = f"error: {cert}:9: roots 3 3 are not the root span 3 255 of order 258"
        for argv in (("table", "--girth", "14", "--sym", "3"), ("report", "--girth", "14")):
            code, out, err = run_cli(*argv, "--dir", str(tmp_path), capsys=capsys)
            assert code == 1 and out == ""
            assert err.splitlines()[-1] == error

    def test_config_is_not_an_option(self, tmp_path, capsys):
        config = tmp_path / "bounds.txt"
        config.write_text("6 20\n")
        code, out, err = run_cli("table", "--girth", "6", "--dir", str(tmp_path), "--sym", "1",
                                 "--config", str(config), capsys=capsys)
        assert code == 1 and "--config" in err and out == ""

    def test_floor_past_the_int_to_str_limit(self, tmp_path, capsys):
        # the g=30000 floor 2(2^15000 - 1) has 4,516 digits
        code, out, err = run_cli("table", "--girth", "30000", "--dir", str(tmp_path),
                                 "--sym", "1", capsys=capsys)
        assert code == 1 and out == "" and err.startswith("error: ")
        code, out, err = run_cli("search", "--girth", "30000", "--sym", "1", "--min", "6",
                                 "--max", "8", capsys=capsys)
        assert code == 0 and out.splitlines()[-1] == "minimal none"

    def test_report_from_run_dir(self, heawood_run, capsys):
        out_dir, _ = heawood_run
        code, out, err = run_cli("report", "--girth", "6", "--dir", str(out_dir),
                                 capsys=capsys)
        assert code == 0
        assert "b=1: 6, 8, 10, 12" in out

    def test_report_skips_non_evidence(self, tmp_path, capsys):
        out_dir = tmp_path / "mix"
        run_cli("search", "--girth", "14", "--sym", "3", "--min", "258",
                "--max", "258", "--mode", "prove", "--node-budget", "3000",
                "--out", str(out_dir), "--quiet", capsys=capsys)
        code, out, err = run_cli("report", "--girth", "14", "--dir", str(out_dir),
                                 capsys=capsys)
        assert code == 0
        assert "(no certified orders)" in out
        assert "skipped" in err

    def test_report_ignores_witness_files(self, heawood_run, capsys):
        out_dir, _ = heawood_run
        # the Heawood graph claimed at girth 8: well-formed, fails verification
        (out_dir / "bad.hbg").write_text("HBG 1\ng 8\nn 14\nb 1\noffsets 5 9\n",
                                         encoding="ascii")
        code, out, err = run_cli("table", "--girth", "6", "--dir", str(out_dir),
                                 capsys=capsys)
        assert code == 0
        assert f"note: skipped {out_dir / 'bad.hbg'}: witness fails verification" in err
        code, out, err = run_cli("report", "--girth", "6", "--dir", str(out_dir),
                                 capsys=capsys)
        assert code == 0
        assert "b=1: 6, 8, 10, 12" in out
        assert ".hbg" not in err


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "hbgsearch", "girth", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "--cap" in proc.stdout

    def test_import_leaves_pool_and_resource_modules_out(self):
        # a serial command never forks, and the published bounds are a constant
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import hbgsearch.cli; "
                "print(sorted({'multiprocessing', 'importlib.resources'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


def _snapshot(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def _no_enumeration(*args, **kwargs):
    raise AssertionError("enumerate_order called")


class TestResumeSafety:
    def _breached_run(self, out_dir, capsys, budget="3000"):
        code, *_ = run_cli("search", "--girth", "14", "--sym", "3",
                           "--min", "258", "--max", "258", "--mode", "prove",
                           "--node-budget", budget, "--out", str(out_dir),
                           "--quiet", capsys=capsys)
        assert code == 2
        return out_dir / "g14_n258_b3.resume"

    def test_stale_resume_file_is_refused_and_writes_nothing(self, tmp_path, capsys,
                                                             monkeypatch):
        out_dir = tmp_path / "out"
        resume = self._breached_run(out_dir, capsys)
        stale = tmp_path / "first.resume"
        stale.write_bytes(resume.read_bytes())
        code, *_ = run_cli("search", "--resume", str(resume), "--quiet", capsys=capsys)
        assert code == 2
        before = _snapshot(out_dir)
        # refused before any enumeration runs
        monkeypatch.setattr(cli, "enumerate_order", _no_enumeration)
        # the prior certificate already covers the stale file's first roots
        code, out, err = run_cli("search", "--resume", str(stale), "--out", str(out_dir),
                                 "--quiet", capsys=capsys)
        assert code == 1
        assert "overlap" in err and "Traceback" not in err
        assert _snapshot(out_dir) == before

    def test_unreadable_prior_certificate_is_kept(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        resume = self._breached_run(out_dir, capsys)
        cert = out_dir / "g14_n258_b3.cert"
        cert.write_text(cert.read_text().replace("expansions ", "expansions 1"))
        before = _snapshot(out_dir)
        code, out, err = run_cli("search", "--resume", str(resume), "--quiet",
                                 capsys=capsys)
        assert code == 1
        lines = cert.read_text().split("\n")
        counters_at = next(i for i, line in enumerate(lines, 1) if line.startswith("expansions "))
        assert f"{cert}:{counters_at}: inconsistent certificate" in err
        assert _snapshot(out_dir) == before

    def test_certificate_of_another_search_is_kept(self, tmp_path, capsys, monkeypatch):
        out_dir = tmp_path / "out"
        resume = self._breached_run(out_dir, capsys)
        resume.write_text(resume.read_text().replace("prove-nonexistence", "all-witnesses"))
        before = _snapshot(out_dir)
        monkeypatch.setattr(cli, "enumerate_order", _no_enumeration)
        code, out, err = run_cli("search", "--resume", str(resume), "--quiet",
                                 capsys=capsys)
        assert code == 1
        assert "different searches" in err
        assert _snapshot(out_dir) == before

    def test_certificate_of_another_engine_is_kept(self, tmp_path, capsys, monkeypatch):
        out_dir = tmp_path / "out"
        resume = self._breached_run(out_dir, capsys)
        cert = out_dir / "g14_n258_b3.cert"
        cert.write_text(cert.read_text().replace(f"engine {ENGINE_TAG}\n",
                                                 "engine hbgsearch-0.0.9\n"))
        before = _snapshot(out_dir)
        monkeypatch.setattr(cli, "enumerate_order", _no_enumeration)
        code, out, err = run_cli("search", "--resume", str(resume), "--quiet",
                                 capsys=capsys)
        assert code == 1
        assert "different searches or engines" in err
        assert _snapshot(out_dir) == before

    def test_resumed_first_witness_run_keeps_its_halt(self, tmp_path, capsys):
        search = ("search", "--girth", "10", "--sym", "4", "--min", "80", "--max", "80",
                  "--mode", "first", "--quiet")
        direct, chain = tmp_path / "direct", tmp_path / "chain"
        code, *_ = run_cli(*search, "--out", str(direct), capsys=capsys)
        assert code == 0
        code, *_ = run_cli(*search, "--node-budget", "3", "--out", str(chain), capsys=capsys)
        assert code == 2
        code, *_ = run_cli("search", "--resume", str(chain / "g10_n80_b4.resume"),
                           "--node-budget", "100000", "--quiet", capsys=capsys)
        assert code == 0
        assert "status halted-witness\n" in (direct / "g10_n80_b4.cert").read_text()
        # the same .cert bytes and witness file, and no resume file left
        assert _snapshot(chain) == _snapshot(direct)

    def test_resume_without_progress_says_so(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        # roots 3..11 close short cycles at once; root 13 needs a deep search
        resume = self._breached_run(out_dir, capsys, budget="5")
        before = _snapshot(out_dir)
        code, out, err = run_cli("search", "--resume", str(resume), "--quiet",
                                 capsys=capsys)
        assert code == 2
        assert err.splitlines() == [
            "no progress: order 258 root 13 needs more than --node-budget 5"]
        assert _snapshot(out_dir) == before

    def test_resume_with_progress_stays_quiet(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        resume = self._breached_run(out_dir, capsys)
        code, out, err = run_cli("search", "--resume", str(resume), "--quiet",
                                 capsys=capsys)
        assert code == 2 and err == ""

    @pytest.mark.parametrize("good, bad", [
        ("shard 13 255", "shard 13 z"),
        ("reduction off", "reduction maybe"),
        ("mode prove-nonexistence", "mode fastest"),
    ])
    def test_malformed_resume_file_exits_1(self, tmp_path, capsys, good, bad):
        out_dir = tmp_path / "out"
        resume = self._breached_run(out_dir, capsys, budget="5")
        text = resume.read_text()
        lineno = text.splitlines().index(good) + 1
        resume.write_text(text.replace(good, bad))
        before = _snapshot(out_dir)
        code, out, err = run_cli("search", "--resume", str(resume), capsys=capsys)
        assert code == 1
        assert f"{resume}:{lineno}:" in err and "Traceback" not in err
        assert _snapshot(out_dir) == before
