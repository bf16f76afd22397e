"""Golden verification outputs: witness and certificate bytes, command stdout.

Runs one all-witnesses search (g=8, b=3, orders 30..48) into a directory and
records the bytes of every `.hbg` and `.cert` it writes, then the exit code
and stdout of the commands that re-measure those witnesses: `verify` on all
of them, `table` and `report` on the directory, and `girth` on each witness
with the default cap and with `--cap 7`.  The directory is written as
`{dir}` in the recorded argv and stdout, so the record does not depend on
where it ran.  `test_golden_verify.py` replays the run and compares every
byte with `data/golden_verify.json`.

Regenerate the data only in a change that alters these bytes on purpose,
and say so in that change; the script prints the records it added,
removed and changed:

    PYTHONPATH=src python tests/golden_verify.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from hbgsearch import cli

from helpers import write_golden

DATA_PATH = Path(__file__).resolve().parent / "data" / "golden_verify.json"

SEARCH = ("search", "--girth", "8", "--sym", "3", "--min", "30", "--max", "48",
          "--mode", "all", "--quiet", "--out", "{dir}")


def _run(argv: tuple[str, ...], directory: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([a.replace("{dir}", directory) for a in argv])
    return {"argv": list(argv), "code": code,
            "stdout": out.getvalue().replace(directory, "{dir}")}


def commands(names: list[str]) -> list[tuple[str, ...]]:
    """The re-measuring commands over the files a search wrote."""
    witnesses = [f"{{dir}}/{name}" for name in names if name.endswith(".hbg")]
    out = [("verify", *witnesses),
           ("table", "--girth", "8", "--dir", "{dir}"),
           ("report", "--girth", "8", "--dir", "{dir}")]
    for path in witnesses:
        out.append(("girth", path))
        out.append(("girth", path, "--cap", "7"))
    return out


def record(directory: str) -> dict:
    """Run the search into `directory`, then every command over its files."""
    search = _run(SEARCH, directory)
    names = sorted(os.listdir(directory))
    files = {name: Path(directory, name).read_text() for name in names}
    return {"search": search, "files": files,
            "commands": [_run(argv, directory) for argv in commands(names)]}


def records(golden: dict) -> dict:
    """The recorded data by name: the search, each file, and each command by its argv."""
    return {"search": golden["search"],
            **{f"file {name}": text for name, text in golden["files"].items()},
            **{"command " + " ".join(cmd["argv"]): cmd for cmd in golden["commands"]}}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        golden = record(os.path.join(tmp, "run"))
    write_golden(DATA_PATH, golden, records)
    print(f"wrote {len(golden['files'])} files and {len(golden['commands'])} commands "
          f"to {DATA_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
