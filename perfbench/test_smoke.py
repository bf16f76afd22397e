"""Smoke test of the benchmark at its tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every declared metric is printed with its declared unit, that
tiny runs reproduce their recorded hashes, and that a changed certificate
byte trips the hash gate.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import workloads  # noqa: E402
from hbgsearch import cli  # noqa: E402


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["end_to_end"] if trace == 0 else BENCH["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_sharded_row_is_gated_on_the_serial_row_hashes():
    for size in ("tiny", "full"):
        expected = json.loads(workloads.EXPECTED_PATH.read_text())[size]
        assert "prove-b3-sharded" not in expected
        assert expected["prove-b3-row"]["certificates"]


def _tiny_pass(name, tmp_path):
    workload = workloads.WORKLOADS[name]("tiny", 7, tmp_path / name)
    workload.setup()
    return workload.run_pass()


def test_tampered_serialized_certificate_trips_the_gate(tmp_path, monkeypatch):
    assert _tiny_pass("prove-b3-row", tmp_path).failed == 0
    real = workloads.serialize_certificate

    def flip_last_byte(cert):
        text = real(cert)
        return text[:-2] + chr(ord(text[-2]) ^ 1) + text[-1]

    monkeypatch.setattr(workloads, "serialize_certificate", flip_last_byte)
    res = _tiny_pass("prove-b3-row", tmp_path)
    assert res.failed == 1
    assert res.errors[0].startswith("hash mismatch on certificates")


def test_tampered_certificate_file_trips_the_gate(tmp_path, monkeypatch):
    real = cli.write_certificate_file

    def write_then_flip(path, cert):
        real(path, cert)
        data = bytearray(Path(path).read_bytes())
        data[-2] ^= 1  # last character of the engine tag; the file still parses
        Path(path).write_bytes(bytes(data))

    monkeypatch.setattr(cli, "write_certificate_file", write_then_flip)
    res = _tiny_pass("witness-catalog", tmp_path)
    assert res.failed == 1
    assert res.errors[0].startswith("hash mismatch on certificates")
