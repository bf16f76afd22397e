"""Scheduler outputs stay byte-identical to the recorded golden grid."""

import json

import pytest

from golden_scheduler import DATA_PATH, case_id, cases, run_case

GOLDEN = json.loads(DATA_PATH.read_text())
CASES = cases()


def test_grid_matches_recorded_cases():
    assert sorted(case_id(c) for c in CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_scheduler_bytes_match_golden(case):
    assert run_case(case) == GOLDEN[case_id(case)]
