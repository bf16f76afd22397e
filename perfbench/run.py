"""hbgsearch benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  With `--trace 0` the workload is repeated for S seconds and the
end-to-end metrics are reported as medians over the passes.  With
`--trace 1` untraced and traced passes alternate for S seconds and the
per-layer metrics of the traced passes are reported.  The last line of
stdout is the result object; the line before it holds the machine, the
sample counts and quartiles, and the output hashes.  Spans of a traced run
are written to `.bench_run/trace-<workload>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

SETUP_PROBES = 6

# Imports the program and sets the workload up in a fresh interpreter.
SETUP_PROBE = """\
import sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from workloads import WORKLOADS
WORKLOADS[sys.argv[3]](sys.argv[4], int(sys.argv[5]), Path(sys.argv[6])).setup()
"""

END_TO_END_UNITS = {
    "wall_s": "s",
    "expansions_per_s": "1/s",
    "certified_roots": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "peak_rss_children_mb": "MB",
}


def load_program():
    """Import hbgsearch from this checkout's sources, and nothing else."""
    package = SRC / "hbgsearch"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no hbgsearch sources at {package}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import hbgsearch

    if Path(hbgsearch.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported hbgsearch from {hbgsearch.__file__}, not {package}")


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def machine() -> dict:
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "commit": git_commit(),
            "loadavg_start": os.getloadavg()}


def summary(values: list) -> dict:
    q1, q3 = values[0], values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def measure_setup(name: str, size: str, seed: int, workdir: Path, probes: int) -> list[float]:
    """Wall time of fresh processes that import the program and set up."""
    argv = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), name, size,
            str(seed), str(workdir)]
    times = []
    for _ in range(probes):
        t0 = perf_counter()
        subprocess.run(argv, check=True)
        times.append(perf_counter() - t0)
    return times


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr, res) -> dict:
    """Per-layer metrics of one traced pass, keyed by name."""
    def calls(name):
        return tr.stats.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return tr.stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return tr.stats.get(name, [0, 0.0, 0.0])[2]

    certs = res.certs
    expansions = sum(c.expansions for c in certs)
    nodes = sum(c.nodes for c in certs)
    attempted = expansions + tr.extra.get("discarded.expansions", 0)
    pred_calls = calls("girth.predicate")
    pool_wall = sum(p["wall"] for p in tr.pool_calls)
    pool_busy = sum(sum(p["busy"]) for p in tr.pool_calls)
    pool_capacity = sum(p["wall"] * p["processes"] for p in tr.pool_calls)
    pool_max = sum(max(p["busy"]) for p in tr.pool_calls)
    pool_mean = sum(sum(p["busy"]) / p["processes"] for p in tr.pool_calls)
    return {
        "girth.predicate.calls": (pred_calls, "count"),
        "girth.predicate.us_per_call": (1e6 * ratio(total("girth.predicate"), pred_calls), "us"),
        "girth.predicate.busy_s": (total("girth.predicate"), "s"),
        "girth.predicate.calls_per_node": (ratio(pred_calls, nodes), "1/node"),
        "girth.oracle.calls": (calls("girth.oracle"), "count"),
        "girth.oracle.ms_per_call": (1e3 * ratio(total("girth.oracle"), calls("girth.oracle")), "ms"),
        "search.expansions": (expansions, "count"),
        "search.girth_rejects": (sum(c.girth_rejects for c in certs), "count"),
        "search.accept_ratio": (ratio(nodes, expansions), "ratio"),
        "search.self_s": (self_s("search.enumerate_order"), "s"),
        "search.witness_records_s": (total("search.witness_records"), "s"),
        "search.pool.count": (len(tr.pool_calls), "count"),
        "search.pool.overhead_s": (pool_wall - pool_max, "s"),
        "search.pool.idle_frac": (1 - ratio(pool_busy, pool_capacity) if pool_capacity else 0.0,
                                  "ratio"),
        "search.shard.imbalance": (ratio(pool_max, pool_mean), "ratio"),
        "search.budget.certified_fraction": (ratio(expansions, attempted), "ratio"),
        "pattern.canonical_form.calls": (calls("pattern.canonical_form"), "count"),
        "pattern.canonical_form.us_per_call": (
            1e6 * ratio(total("pattern.canonical_form"), calls("pattern.canonical_form")), "us"),
        "pattern.expand.us_per_call": (
            1e6 * ratio(total("pattern.expand"), calls("pattern.expand")), "us"),
        "catalog.files_written": (calls("catalog.write"), "count"),
        "catalog.bytes_written": (tr.extra.get("catalog.bytes_written", 0), "bytes"),
        "catalog.write_s": (total("catalog.write"), "s"),
        "catalog.files_parsed": (calls("catalog.parse"), "count"),
        "catalog.parse_s": (total("catalog.parse"), "s"),
        "catalog.verify.calls": (calls("catalog.verify"), "count"),
        "catalog.verify.ms_per_call": (
            1e3 * ratio(total("catalog.verify"), calls("catalog.verify")), "ms"),
        "render.svg.calls": (calls("render.svg"), "count"),
        "render.svg.ms_per_call": (1e3 * ratio(self_s("render.svg"), calls("render.svg")), "ms"),
        "render.svg.bytes": (tr.extra.get("render.svg.bytes", 0), "bytes"),
        "cli.self_s": (self_s("cli.main"), "s"),
    }


def predicate_self_check(tr, res) -> tuple[int, int]:
    """Traced predicate calls, and the count the certificates imply.

    Every expansion that is neither a conflict nor a symmetry skip calls the
    predicate once; work thrown away at a budget breach is added back from
    the kernel counters at the breach.
    """
    implied = sum(c.expansions - c.conflicts - c.sym_skips for c in res.certs)
    implied += int(tr.extra.get("discarded.predicate_calls", 0))
    return tr.stats.get("girth.predicate", [0])[0], implied


def repeat(step, seconds: float) -> list:
    """Call step() once, then again while another call fits in `seconds`."""
    results, times = [], []
    start = perf_counter()
    while not results or perf_counter() - start + statistics.median(times) <= seconds:
        t0 = perf_counter()
        results.append(step())
        times.append(perf_counter() - t0)
    return results


def traced_pair(workload):
    """One untraced pass, then one traced pass with its per-layer metrics."""
    from tracer import Tracer, install

    plain = workload.run_pass()
    tracer = install(Tracer())
    try:
        res = workload.run_pass()
    finally:
        tracer.uninstall()
    calls, implied = predicate_self_check(tracer, res)
    res.check(calls == implied,
              f"trace self-check: {calls} predicate calls, certificates imply {implied}")
    return plain, res, layer_metrics(tracer, res), tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the smoke-test sizes of each workload")
    args = parser.parse_args(argv)

    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    info = machine()
    workdir = WORK / f"{args.workload}-{args.size}"

    workload = cls(args.size, args.seed, workdir)

    samples: dict[str, list] = {}
    if args.trace == 0:
        probe = (args.workload, args.size, args.seed, workdir)
        measure_setup(*probe, 1)  # writes the bytecode caches
        # probes before and after the passes, so one slow moment of a
        # shared machine does not set the median
        samples["setup_s"] = measure_setup(*probe, SETUP_PROBES)
        workload.setup()
        passes = repeat(workload.run_pass, args.seconds)
        samples["setup_s"] += measure_setup(*probe, SETUP_PROBES)
        checks = passes
        samples["wall_s"] = [p.wall_s for p in passes]
        samples["expansions_per_s"] = [p.expansions / p.wall_s for p in passes]
        samples["certified_roots"] = [p.certified_roots for p in passes]
        metrics = {name: statistics.median(samples[name]) for name in samples}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_children_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
        metrics = {name: (metrics[name], unit) for name, unit in END_TO_END_UNITS.items()}
        hashes = passes[-1].hashes
    else:
        workload.setup()
        pairs = repeat(lambda: traced_pair(workload), args.seconds)
        plain, traced, layers, _ = zip(*pairs)
        tracer = pairs[-1][3]
        checks = plain + traced
        metrics = {}
        for name, (_, unit) in layers[-1].items():
            samples[name] = [layer[name][0] for layer in layers]
            metrics[name] = (statistics.median(samples[name]), unit)
        overhead = (statistics.median(p.wall_s for p in traced)
                    / statistics.median(p.wall_s for p in plain) - 1)
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        hashes = traced[-1].hashes
        WORK.mkdir(exist_ok=True)
        (WORK / f"trace-{args.workload}.json").write_text(json.dumps({
            "workload": args.workload, "machine": info,
            "stats": tracer.stats, "extra": tracer.extra,
            "pool_calls": tracer.pool_calls,
            "span_fields": ["id", "parent", "name", "t0", "t1", "pid"],
            "spans": tracer.spans,
        }))

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    for c in checks:
        for error in c.errors:
            print(f"FAILED: {error}", file=sys.stderr)
    info["loadavg_end"] = os.getloadavg()
    detail = {"workload": args.workload, "size": args.size, "seed": args.seed,
              "machine": info, "hashes": hashes,
              "samples": {name: summary(v) for name, v in samples.items()}}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
