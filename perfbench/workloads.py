"""The benchmark's workloads.  One pass runs the program once and checks it.

Every pass checks its outputs against the SHA-1 hashes recorded in
`expected.json`; a mismatch counts as a failed operation.  The search
sub-problems are the paper's fixed rows, so the seed only picks the witness
verify order and the render sample of `witness-catalog`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from hbgsearch import cli, search
from hbgsearch.catalog import parse_certificate_file, serialize_certificate

EXPECTED_PATH = Path(__file__).with_name("expected.json")

B3_ROW = tuple(range(258, 385, 6))

# Per size: the parameters of each workload.  "tiny" is for the smoke test;
# "full" is what the timed runs measure.
SIZES = {
    "full": {
        "row_orders": B3_ROW,
        "deep_budget": 60_000,
        "catalog_max_order": 66,
        "render_sample": 200,
    },
    "tiny": {
        "row_orders": B3_ROW[:2],
        "deep_budget": 2_000,
        "catalog_max_order": 42,
        "render_sample": 5,
    },
}

DEEP_ROWS = ((7, 266), (9, 270))  # (b, order) at g=14


def sha1(chunks) -> str:
    h = hashlib.sha1()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
    return h.hexdigest()


def files_hash(paths) -> str:
    return sha1(Path(p).read_bytes() for p in sorted(paths))


def covered_roots(cert) -> int:
    """Root values (all odd) inside a certificate's covered ranges."""
    return sum((hi - lo) // 2 + 1 for lo, hi in cert.covered)


@dataclass
class PassResult:
    wall_s: float = 0.0
    expansions: int = 0  # attempted candidate expansions, certified or not
    certified_roots: int = 0
    certs: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def gate(self, key: str, actual: str, expected: dict):
        self.hashes[key] = actual
        want = expected.get(key)
        self.check(actual == want, f"hash mismatch on {key}: got {actual}, recorded {want}")


def _cli(argv) -> tuple[int, str]:
    """Run `hbg argv` in process; return the exit code and captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    name = ""

    def __init__(self, size: str, seed: int, workdir: Path):
        self.size = size
        self.params = SIZES[size]
        self.seed = seed
        self.workdir = workdir
        self.expected = json.loads(EXPECTED_PATH.read_text())[size]

    def setup(self):
        """Work done before the first pass; timed in fresh processes as setup_s."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)

    def run_pass(self) -> PassResult:
        res = PassResult()
        t0 = perf_counter()
        self._run(res)
        res.wall_s = perf_counter() - t0
        return res

    def _run(self, res: PassResult):
        raise NotImplementedError


class ProveRow(Workload):
    """Serial `min_order` prove over the g=14, b=3 row (criterion 3)."""

    name = "prove-b3-row"
    shards = 1
    processes = None

    def setup(self):
        super().setup()
        self.spec = search.SearchSpec(g=14, b=3, orders=self.params["row_orders"],
                                      mode="prove")

    def _run(self, res):
        outcome = search.min_order(self.spec, shards=self.shards, processes=self.processes)
        for oc in outcome.per_order:
            cert = oc.certificate
            res.certs.append(cert)
            res.expansions += cert.expansions
            res.certified_roots += covered_roots(cert)
            res.check(oc.status == "exhausted", f"order {oc.order} is {oc.status}")
        # the sharded row must reproduce the serial row's certificates
        res.gate("certificates", sha1(serialize_certificate(c) for c in res.certs),
                 self.expected["prove-b3-row"])


class ProveRowSharded(ProveRow):
    """The same row split into 8 shards on a pool of 2 processes per order."""

    name = "prove-b3-sharded"
    shards = 8
    processes = 2


class BudgetDeep(Workload):
    """Fixed node budget on the b=7 and b=9 rows through the cli, then one resume."""

    name = "budget-deep"

    def _run(self, res):
        budget = str(self.params["deep_budget"])
        shutil.rmtree(self.workdir)
        for b, n in DEEP_ROWS:
            out = self.workdir / f"b{b}"
            cert_path = out / f"g14_n{n}_b{b}.cert"
            resume_path = out / f"g14_n{n}_b{b}.resume"
            code, _ = _cli(["search", "--girth", "14", "--sym", str(b), "--min", str(n),
                            "--max", str(n), "--mode", "prove", "--node-budget", budget,
                            "--out", str(out), "--quiet"])
            breached = code == 2 and resume_path.exists()
            res.check(breached, f"b={b} n={n}: exit {code}, expected a budget breach")
            if not breached:
                continue
            before = parse_certificate_file(cert_path).expansions
            res.expansions += int(budget)
            code, _ = _cli(["search", "--resume", str(resume_path), "--node-budget", budget,
                            "--quiet"])
            res.check(code in (0, 2), f"b={b} n={n} resume: exit {code}")
            cert = parse_certificate_file(cert_path)
            res.expansions += int(budget) if code == 2 else cert.expansions - before
            res.certs.append(cert)
            res.certified_roots += covered_roots(cert)
        expected = self.expected[self.name]
        res.gate("certificates", files_hash(self.workdir.glob("*/*.cert")), expected)
        res.gate("resume", files_hash(self.workdir.glob("*/*.resume")), expected)


class WitnessCatalog(Workload):
    """All-witnesses g=8 b=3 search, then verify, table, report and render."""

    name = "witness-catalog"

    def _run(self, res):
        shutil.rmtree(self.workdir)
        out = self.workdir / "w"
        svg_dir = self.workdir / "svg"
        svg_dir.mkdir(parents=True)
        code, _ = _cli(["search", "--girth", "8", "--sym", "3", "--min", "30",
                        "--max", str(self.params["catalog_max_order"]), "--mode", "all",
                        "--out", str(out), "--quiet"])
        res.check(code == 0, f"search: exit {code}")
        expected = self.expected[self.name]
        cert_paths = sorted(out.glob("*.cert"))
        for path in cert_paths:
            cert = parse_certificate_file(path)
            res.certs.append(cert)
            res.expansions += cert.expansions
            res.certified_roots += covered_roots(cert)
        res.gate("certificates", files_hash(cert_paths), expected)
        witnesses = sorted(out.glob("*.hbg"))
        res.gate("witnesses", files_hash(witnesses), expected)

        rng = random.Random(self.seed)
        shuffled = [str(p) for p in witnesses]
        rng.shuffle(shuffled)
        code, text = _cli(["verify", *shuffled])
        res.check(code == 0, f"verify: exit {code}")
        lines = text.splitlines()
        res.check(len(lines) == len(witnesses), "verify: one line per witness")
        for line in lines:
            res.check(line.endswith("PASS girth=8"), f"verify: {line}")

        for command in ("table", "report"):
            code, text = _cli([command, "--girth", "8", "--dir", str(out)])
            res.check(code == 0, f"{command}: exit {code}")
            res.gate(command, sha1([text]), expected)

        sample = rng.sample(witnesses, min(self.params["render_sample"], len(witnesses)))
        for path in sample:
            svg = svg_dir / (path.stem + ".svg")
            code, _ = _cli(["render", str(path), "--out", str(svg)])
            res.check(code == 0 and svg.read_text().endswith("</svg>\n"),
                      f"render {path.name}: exit {code}")


WORKLOADS = {w.name: w for w in (ProveRow, ProveRowSharded, BudgetDeep, WitnessCatalog)}
