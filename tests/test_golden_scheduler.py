"""Scheduler outputs stay byte-identical to the recorded golden grid."""

import json

import pytest

from golden_scheduler import DATA_PATH, case_id, cases, run_case
from helpers import write_golden

GOLDEN = json.loads(DATA_PATH.read_text())
CASES = cases()
PROVE_WITH_ALL = [c for c in CASES if c["mode"] == "prove"
                  and case_id(dict(c, mode="all")) in GOLDEN]


def test_grid_matches_recorded_cases():
    assert sorted(case_id(c) for c in CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_scheduler_bytes_match_golden(case):
    assert run_case(case) == GOLDEN[case_id(case)]


@pytest.mark.parametrize("case", [c for c in CASES if c["shards"] != 1], ids=case_id)
def test_sharded_and_pooled_cases_equal_the_serial_case(case):
    """A scan's outcome does not depend on how its roots were split or where
    they ran: certificates, resume text, statuses and witnesses."""
    serial = dict(case, shards=1, processes=None)
    key = case_id(serial)
    assert GOLDEN[case_id(case)] == (GOLDEN[key] if key in GOLDEN else run_case(serial))


def _without_mode(text):
    return [line for line in text.splitlines() if not line.startswith("mode ")]


@pytest.mark.parametrize("case", PROVE_WITH_ALL, ids=case_id)
def test_prove_walks_the_same_tree_as_all(case):
    """`prove` differs from `all` only in its mode line and in keeping no
    witnesses: same orders, statuses, counters, coverage and resume shards."""
    prove, all_ = GOLDEN[case_id(case)], GOLDEN[case_id(dict(case, mode="all"))]
    assert prove["minimal"] == all_["minimal"]
    assert [p["order"] for p in prove["per_order"]] == [a["order"] for a in all_["per_order"]]
    for p, a in zip(prove["per_order"], all_["per_order"]):
        assert p["witnesses"] == []
        assert p["status"] == a["status"]
        assert "mode prove-nonexistence" in p["certificate"].splitlines()
        assert _without_mode(p["certificate"]) == _without_mode(a["certificate"])
        assert (p["resume"] is None) == (a["resume"] is None)
        if p["resume"] is not None:
            assert _without_mode(p["resume"]) == _without_mode(a["resume"])


def test_rewrite_lists_the_keys_it_changed(tmp_path, capsys):
    path = tmp_path / "golden.json"
    write_golden(path, {"a": 1, "b": 2})
    capsys.readouterr()
    write_golden(path, {"b": 3, "c": 4})
    assert capsys.readouterr().out.splitlines() == [
        "removed a", "changed b", "added c", "added 1, removed 1, changed 1"]
    assert json.loads(path.read_text()) == {"b": 3, "c": 4}
