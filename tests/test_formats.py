"""Strict reading of the four file formats.

Every malformed input must raise ParseError naming file and line; nothing
else may escape a reader, and no command may end in a traceback.  The
mutation tests use a seeded stdlib `random`, so every run sees the same
inputs.
"""

import random

import pytest

from hbgsearch import CatalogEntry, ParseError, SearchSpec, cli, enumerate_order
from hbgsearch.catalog import (
    ResumeState,
    parse_certificate,
    parse_certificate_file,
    parse_claims,
    parse_claims_file,
    parse_resume,
    parse_resume_file,
    parse_witness,
    parse_witness_file,
    serialize_certificate,
    serialize_resume,
    serialize_witness,
)
from hbgsearch.cli import main

WITNESS = serialize_witness(CatalogEntry(g=6, order=14, b=1, offsets=(5, 9),
                                         note="found by search, measured girth 6"))
CERT = serialize_certificate(
    enumerate_order(SearchSpec(g=6, b=1, orders=(14,), mode="all"), 14).certificate)
RESUME = serialize_resume(ResumeState(
    g=14, order=266, b=7, mode="prove-nonexistence", reduction=False, node_budget=200000,
    pending=((13, 131), (175, 263))))
CLAIMS = ("HBG-CLAIMS 1\ng 14\nexhausted 4 264\nexhausted 4 272\nupper 4 440 catalog fig\n"
          "bound 258\n")

FORMATS = {
    "witness": (WITNESS, parse_witness, parse_witness_file, serialize_witness),
    "cert": (CERT, parse_certificate, parse_certificate_file, serialize_certificate),
    "resume": (RESUME, parse_resume, parse_resume_file, serialize_resume),
    "claims": (CLAIMS, parse_claims, parse_claims_file, None),
}

# replacement tokens: int() spellings the grammar refuses, control and
# non-ASCII bytes, words near the allowed ones, an integer too long to convert
TOKENS = [b"x", b"-1", b"0", b"1_4", b"+6", b" 7", b"\xc3\xa9", b"\t", b"\r", b"", b"-",
          b"3 x", b"\x00", b"\x0c", b"on", b"maybe", b"prove", b"9" * 5000]


def mutate(rng: random.Random, data: bytes) -> bytes:
    """One to three line or byte edits."""
    lines = data.split(b"\n")
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(6)
        i = rng.randrange(len(lines))
        if op == 0 and len(lines) > 1:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[rng.randrange(len(lines))])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3:
            toks = lines[i].split(b" ")
            toks[rng.randrange(len(toks))] = rng.choice(TOKENS)
            lines[i] = b" ".join(toks)
        else:
            flat = bytearray(b"\n".join(lines))
            pos = rng.randrange(len(flat) + 1)
            if op == 4 and pos < len(flat):
                flat[pos] = rng.randrange(256)
            else:
                flat[pos:pos] = bytes([rng.randrange(256)])
            lines = bytes(flat).split(b"\n")
    return b"\n".join(lines)


def outcome(read):
    try:
        return read()
    except ParseError:
        return ParseError


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_mutated_file_parses_or_raises_parse_error(name, tmp_path):
    valid, parse, parse_file, serialize = FORMATS[name]
    rng = random.Random(sorted(FORMATS).index(name) + 1)
    path = tmp_path / f"mutant.{name}"
    refused = 0
    for _ in range(300):
        data = mutate(rng, valid.encode("ascii"))
        path.write_bytes(data)
        from_text = outcome(lambda: parse(data.decode("latin-1"), source=str(path)))
        from_file = outcome(lambda: parse_file(path))
        assert from_text == from_file, data
        if from_text is ParseError:
            refused += 1
        elif serialize is not None:
            assert parse(serialize(from_text)) == from_text, data
    assert 0 < refused < 300


CERT_LINES = CERT.splitlines()


@pytest.mark.parametrize("key, bad", [
    ("covered", "covered 3 x"),
    ("g", "g x"),
    ("roots", "roots 3 x"),
    ("positions", "positions x"),
    ("reduction", "reduction maybe"),
    ("mode", "mode bogus"),
    ("mode", "mode all"),
    ("mode", "mode count-only"),
    ("g", "g 1_4"),
    ("n", "n +14"),
    ("nodes", "nodes １"),
    ("g", "g 7"),  # names no sub-problem
])
def test_certificate_field_is_refused_at_its_line(key, bad):
    lineno = next(i for i, line in enumerate(CERT_LINES, 1) if line.startswith(key + " "))
    lines = list(CERT_LINES)
    lines[lineno - 1] = bad
    with pytest.raises(ParseError, match=f"^c.cert:{lineno}: "):
        parse_certificate("\n".join(lines) + "\n", source="c.cert")


@pytest.mark.parametrize("key, bad, cited", [
    ("positions", "positions 4", "positions"),
    ("pairs", "pairs 2", "pairs"),
    ("nodes", "nodes 3", "expansions"),  # a counter defect cites the first counter
    ("covered", "covered 3 13", "expansions"),
])
def test_certificate_record_check_cites_its_key(key, bad, cited):
    lines = [bad if line.startswith(key + " ") else line for line in CERT_LINES]
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(cited + " "))
    with pytest.raises(ParseError, match=f"^c.cert:{lineno}: "):
        parse_certificate("\n".join(lines) + "\n", source="c.cert")


@pytest.mark.parametrize("lineno, bad", [
    (2, "g 1_4"),
    (3, "exhausted x 264"),
    (5, "upper 4 y"),
])
def test_claims_line_is_refused_at_its_line(lineno, bad):
    lines = CLAIMS.splitlines()
    lines[lineno - 1] = bad
    with pytest.raises(ParseError, match=f"^claims:{lineno}: "):
        parse_claims("\n".join(lines) + "\n", source="claims")


@pytest.mark.parametrize("text, lineno", [
    ("HBG 1\ng +6\nn 14\nb 1\noffsets 5 9\n", 2),
    ("HBG 1\ng 6\nn 14\nb 1\noffsets 5 9\nnote café\n", 6),
    ("HBG 1\r\ng 6\nn 14\nb 1\noffsets 5 9\n", 1),
    ("HBG 1\ng 6\nn 14\nb 1\noffsets 5\x0b9\n", 5),
    # whole-record checks cite the key they refuse
    ("HBG 1\ng 6\nn 15\nb 1\noffsets 5 9\n", 3),
    ("HBG 1\ng 6\nn 14\n\nb 0\noffsets 5 9\n", 5),
    ("HBG 1\ng 6\nn 14\nb 1\noffsets 5 9 7\n", 5),
    # a (g, b, n) that names no sub-problem, at the line of the value refused
    ("HBG 1\ng 5\nn 14\nb 1\noffsets 5 9\n", 2),
    ("HBG 1\ng -2\nn 14\nb 1\noffsets 5 9\n", 2),
    ("HBG 1\ng 6\nn 14\nb 2\noffsets 5 9 5 9\n", 4),
])
def test_witness_line_is_refused_at_its_line(text, lineno, tmp_path):
    with pytest.raises(ParseError, match=f"^w.hbg:{lineno}: "):
        parse_witness(text, source="w.hbg")
    path = tmp_path / "w.hbg"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ParseError, match=f"^{path}:{lineno}: "):
        parse_witness_file(path)


def test_resume_integer_spelling_is_refused():
    with pytest.raises(ParseError, match="^r:3: "):
        parse_resume(RESUME.replace("n 266", "n 2_66"), source="r")


@pytest.mark.parametrize("text, lineno, message", [
    ("HBG-CLAIMS 1\ng 14\nbound 25_8\n", 3, "bound: expected an integer"),
    ("HBG-CLAIMS 1\ng 14\nbound 2５8\n", 3, "is not ASCII"),
    ("HBG-CLAIMS 1\ng 14\nbound 258 3\n", 3, "bound: expected an integer"),
    ("HBG-CLAIMS 1\ng 100000000\nbound 5\n", 3, "bound 5 below the counting floor"),
    ("HBG-CLAIMS 1\ng 13\nbound 258\n", 2, "g=13: girth must be even and >= 4"),
    ("HBG-CLAIMS 1\n\ng 2\n", 3, "g=2: girth must be even and >= 4"),
    # every exhausted or upper line names an order that its b divides
    ("HBG-CLAIMS 1\ng 8\nupper 0 30 x\n", 3, "upper: b=0: symmetry factor must be positive"),
    ("HBG-CLAIMS 1\ng 8\nupper 3 -30 x\n", 3, "upper: order -30 is not an even integer"),
    ("HBG-CLAIMS 1\ng 8\nexhausted 3 31\n", 3, "exhausted: order 31 is not an even integer"),
    ("HBG-CLAIMS 1\ng 8\nexhausted 1 4\n", 3, "exhausted: order 4 is not an even integer"),
    ("HBG-CLAIMS 1\ng 8\nexhausted 4 30\n", 3, "exhausted: order 30: b=4 does not divide m=15"),
    ("HBG-CLAIMS 1\ng 14\nexhausted 4 264\n\nexhausted -4 264\n", 5,
     "exhausted: b=-4: symmetry factor must be positive"),
    ("HBG-CLAIMS 1\ng 14\nupper 4 440 x\nupper 4 442 y\n", 4,
     "upper: order 442: b=4 does not divide m=221"),
])
def test_claims_bound_is_refused_at_its_line(text, lineno, message, tmp_path):
    path = tmp_path / "claims.txt"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ParseError, match=f"^{path}:{lineno}: .*{message}"):
        parse_claims_file(path)


def test_writer_refuses_what_the_reader_refuses():
    with pytest.raises(ValueError):
        serialize_witness(CatalogEntry(g=6, order=14, b=1, offsets=(5, 9), note="café"))


UTF8_WITNESS = WITNESS.replace("found by search", "trouvé").encode("utf-8")
BAD_CERT = CERT.replace("roots 3 11", "roots 3 x").encode("ascii")
BAD_RESUME = RESUME.replace("shard 13 131", "shard 13 1_31").encode("ascii")
# a resume file names a search that exists, and shards that are odd,
# ascending, disjoint and inside its root span 3..263
RESUME_EDITS = {
    "out-of-span": ("shard 13 131", "shard 13 999", 8),
    "unordered": ("shard 13 131\nshard 175 263", "shard 175 263\nshard 13 131", 8),
    "overlapping": ("shard 175 263", "shard 101 263", 8),
    "no-such-search": ("n 266", "n 268", 3),  # b=7 does not divide m=134
}
G5_WITNESS = WITNESS.replace("g 6\n", "g 5\n").encode("ascii")
BAD_CLAIMS = CLAIMS.replace("upper 4 440", "upper 4 y").encode("ascii")
BAD_BOUND = b"HBG-CLAIMS 1\ng 6\nbound 1_4\n"


@pytest.mark.parametrize("argv, files, bad, lineno, code", [
    (["verify", "{w}"], {"w": UTF8_WITNESS}, "w", 6, 1),
    (["render", "{w}", "--out", "{d}/w.svg"], {"w": UTF8_WITNESS}, "w", 6, 1),
    (["girth", "{w}"], {"w": UTF8_WITNESS}, "w", 6, 1),
    (["canon", "{w}"], {"w": UTF8_WITNESS}, "w", 6, 1),
    (["table", "--girth", "6", "--dir", "{d}", "--claims", "{c}"], {"c": BAD_CLAIMS}, "c", 5, 1),
    (["table", "--girth", "6", "--dir", "{d}", "--sym", "1", "--claims", "{c}"],
     {"c": BAD_BOUND}, "c", 3, 1),
    (["search", "--resume", "{r}"], {"r": BAD_RESUME}, "r", 8, 1),
    *((["search", "--resume", "{r}"], {"r": RESUME.replace(old, new).encode("ascii")}, "r",
       lineno, 1) for old, new, lineno in RESUME_EDITS.values()),
    # a malformed evidence file in a scanned directory fails the command
    (["report", "--girth", "6", "--dir", "{d}"], {"x.cert": BAD_CERT}, "x.cert", 9, 1),
    (["table", "--girth", "6", "--dir", "{d}", "--sym", "1"], {"x.hbg": UTF8_WITNESS},
     "x.hbg", 6, 1),
    # a witness of girth 5 names no sub-problem
    (["verify", "{w}"], {"w": G5_WITNESS}, "w", 2, 1),
    (["table", "--girth", "6", "--dir", "{d}"], {"x.hbg": G5_WITNESS}, "x.hbg", 2, 1),
], ids=["verify", "render", "girth", "canon", "table-claims", "table-claims-bound",
        "search-resume", *(f"search-resume-{name}" for name in RESUME_EDITS),
        "report-dir", "table-dir", "verify-g5", "table-dir-g5"])
def test_command_on_malformed_file_names_file_and_line(argv, files, bad, lineno, code,
                                                       tmp_path, capsys):
    paths = {key: tmp_path / key for key in files}
    for key, data in files.items():
        paths[key].write_bytes(data)
    names = {key: str(path) for key, path in paths.items()}
    assert main([a.format(d=tmp_path, **names) for a in argv]) == code
    out, err = capsys.readouterr()
    assert f"{paths[bad]}:{lineno}: " in out + err and "Traceback" not in err
    assert {key: path.read_bytes() for key, path in paths.items()} == files


@pytest.mark.parametrize("command, girth, sym, message", [
    pytest.param("table", "6", "abc", "--sym", id="table-abc"),
    pytest.param("report", "6", "1-x", "--sym", id="report-1-x"),
    # a --girth or --sym that names no sub-problem, refused before any file is read
    *(pytest.param(command, girth, sym, message, id=f"{command}-g{girth}-sym{sym}")
      for command in ("table", "report")
      for girth, sym, message in (("7", "1", "g=7: girth must be even and >= 4"),
                                  ("6", "0", "b=0: symmetry factor must be positive"))),
])
def test_bad_sym_list_is_a_usage_error(command, girth, sym, message, tmp_path, capsys,
                                       monkeypatch):
    monkeypatch.setattr(cli, "_scan_directory", None)  # reading the directory would raise
    assert main([command, "--girth", girth, "--dir", str(tmp_path), "--sym", sym]) == 1
    assert f"usage error: {message}" in capsys.readouterr().err


def test_report_ignores_a_malformed_witness(tmp_path, capsys):
    (tmp_path / "x.hbg").write_bytes(UTF8_WITNESS)
    assert main(["report", "--girth", "6", "--dir", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert "(no certified orders)" in out and err == ""


@pytest.mark.parametrize("cap", ["2", "0", "-5"])
def test_girth_cap_below_3_is_a_usage_error(cap, tmp_path, capsys):
    path = tmp_path / "w.hbg"
    path.write_text(WITNESS, encoding="ascii")
    assert main(["girth", str(path), "--cap", cap]) == 1
    err = capsys.readouterr().err
    assert f"usage error: --cap must be at least 3, got {cap}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("option, value, message", [
    # --sym is refused by the rule table and report apply to it
    pytest.param("--sym", "0", "b=0: symmetry factor must be positive", id="--sym-0"),
    pytest.param("--sym", "-2", "b=-2: symmetry factor must be positive", id="--sym--2"),
    *(pytest.param("--shards", value, f"--shards must be at least 1, got {value}",
                   id=f"--shards-{value}") for value in ("0", "-2")),
])
def test_search_count_below_1_is_a_usage_error(option, value, message, monkeypatch, capsys):
    def no_scan(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "min_order", no_scan)
    argv = ["search", "--girth", "6", "--sym", "1", "--min", "14", "--max", "14",
            "--quiet", option, value]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"usage error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_resume_node_budget_below_1_is_refused_at_its_line(budget):
    with pytest.raises(ParseError, match=f"^r:7: node-budget: expected at least 1, got {budget}"):
        parse_resume(RESUME.replace("node-budget 200000", f"node-budget {budget}"), source="r")


BAD_BUDGETS = [("--node-budget", "0"), ("--node-budget", "-3"), ("--wall-budget", "0"),
               ("--wall-budget", "-1"), ("--wall-budget", "nan"), ("--wall-budget", "inf")]
BUDGET_RULE = {"--node-budget": "must be at least 1", "--wall-budget": "must be finite and above 0"}


@pytest.mark.parametrize("option, value", BAD_BUDGETS)
def test_search_budget_out_of_range_is_a_usage_error(option, value, monkeypatch, tmp_path,
                                                    capsys):
    monkeypatch.setattr(cli, "min_order", None)  # calling it would raise
    argv = ["search", "--girth", "6", "--sym", "1", "--min", "14", "--max", "14",
            "--out", str(tmp_path / "out"), "--quiet", option, value]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"usage error: {option} {BUDGET_RULE[option]}, got {value}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option, value", BAD_BUDGETS)
def test_resume_budget_out_of_range_is_a_usage_error(option, value, monkeypatch, tmp_path,
                                                    capsys):
    monkeypatch.setattr(cli, "enumerate_order", None)  # calling it would raise
    path = tmp_path / "g14_n266_b7.resume"
    path.write_text(RESUME, encoding="ascii")
    assert main(["search", "--resume", str(path), "--quiet", option, value]) == 1
    err = capsys.readouterr().err
    assert f"usage error: {option} {BUDGET_RULE[option]}, got {value}" in err
    assert "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == [path] and path.read_text(encoding="ascii") == RESUME


@pytest.mark.parametrize("shards", ["2", "8"])
def test_resume_with_shards_is_a_usage_error(shards, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "enumerate_order", None)  # calling it would raise
    path = tmp_path / "g14_n266_b7.resume"
    path.write_text(RESUME, encoding="ascii")
    assert main(["search", "--resume", str(path), "--quiet", "--shards", shards]) == 1
    err = capsys.readouterr().err
    assert f"usage error: --shards {shards}: --resume runs its pending ranges" in err
    assert "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == [path] and path.read_text(encoding="ascii") == RESUME


@pytest.mark.parametrize("option", ["--radius", "--vertex-radius"])
@pytest.mark.parametrize("value", ["nan", "inf", "-5", "0"])
def test_render_size_must_be_finite_and_positive(option, value, tmp_path, capsys):
    path = tmp_path / "w.hbg"
    path.write_text(WITNESS, encoding="ascii")
    assert main(["render", str(path), "--out", str(tmp_path / "w.svg"), option, value]) == 1
    err = capsys.readouterr().err
    assert f"usage error: {option} must be finite and above 0, got " in err
    assert not (tmp_path / "w.svg").exists()


@pytest.mark.parametrize("command", ["table", "report"])
def test_descending_sym_range_is_a_usage_error(command, tmp_path, capsys):
    (tmp_path / "x.cert").write_text(CERT, encoding="ascii")
    assert main([command, "--girth", "6", "--dir", str(tmp_path), "--sym", "5-3"]) == 1
    assert "usage error: --sym: '5-3' is an empty range" in capsys.readouterr().err
