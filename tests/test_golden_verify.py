"""Verification outputs stay byte-identical to the recorded golden run."""

import json

import pytest

from golden_verify import DATA_PATH, record, records

GOLDEN = json.loads(DATA_PATH.read_text())


@pytest.fixture(scope="module")
def replay(tmp_path_factory):
    return record(str(tmp_path_factory.mktemp("golden") / "run"))


def test_search_output_matches_golden(replay):
    assert replay["search"] == GOLDEN["search"]
    assert replay["files"] == GOLDEN["files"]


def test_every_record_has_its_own_name():
    assert len(records(GOLDEN)) == 1 + len(GOLDEN["files"]) + len(GOLDEN["commands"])


def _command_id(argv: list[str]) -> str:
    if argv[0] == "girth":
        return "-".join(["girth", argv[1].rsplit("/", 1)[-1]]
                        + [f"cap{cap}" for cap in argv[3:]])
    return argv[0]


@pytest.mark.parametrize("index", range(len(GOLDEN["commands"])),
                         ids=[_command_id(c["argv"]) for c in GOLDEN["commands"]])
def test_command_output_matches_golden(replay, index):
    assert replay["commands"][index] == GOLDEN["commands"][index]
