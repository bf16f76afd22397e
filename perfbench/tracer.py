"""In-memory tracing of hbgsearch layer boundaries, from outside the package.

`install()` replaces module attributes of hbgsearch with timing wrappers.
Hot functions (the pruning predicate, the girth oracle, the pattern
helpers) only add to per-name counters; the coarser boundaries also keep a
span record (id, parent id, name, start, end, pid).  A span's self time is
its duration minus the time of the traced calls made inside it.

Pool workers are forked with the wrappers in place.  The wrapped shard
worker resets its copy of the tracer, runs the shard, and returns its
counters and spans next to the shard outcome; the wrapped
`merge_order_outcomes` in the parent unpacks them before the real merge.
"""

from __future__ import annotations

import functools
import os
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.extra: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.stack: list[list] = [[None, 0.0]]  # frames: [span id, child time]
        self.shard_tasks: list[dict] = []  # tasks of the sharded call in progress
        self.pool_calls: list[dict] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    def reset(self):
        """Zero everything in place; wrappers keep references to the stat lists."""
        for rec in self.stats.values():
            rec[0], rec[1], rec[2] = 0, 0.0, 0.0
        self.extra.clear()
        self.spans.clear()
        self.stack[:] = [[None, 0.0]]
        self.shard_tasks.clear()
        self.pool_calls.clear()

    def add(self, key: str, value: float):
        self.extra[key] = self.extra.get(key, 0) + value

    def stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "extra": dict(self.extra), "spans": list(self.spans)}

    def absorb(self, snap: dict):
        """Add a worker's counters and spans (not its time to any parent frame)."""
        for name, (calls, total, self_s) in snap["stats"].items():
            rec = self.stat(name)
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for key, value in snap["extra"].items():
            self.add(key, value)
        self.spans.extend(snap["spans"])

    # --- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn, keep_span: bool = True, after=None):
        stats = self.stat(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1]
            sid = None
            if keep_span:
                tracer._next_id += 1
                sid = tracer._next_id
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                parent[1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if keep_span:
                    tracer.spans.append((sid, parent[0], name, t0, t1, os.getpid()))
            if after is not None:
                after(args, kwargs, result, t1 - t0)
            return result

        return wrapper

    def patch(self, owner, attr: str, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Tracer:
    """Wrap the boundary attributes of every hbgsearch layer."""
    from hbgsearch import catalog, cli, render, search

    def hot(owner, attr, name):
        tracer.patch(owner, attr, tracer.wrap(name, getattr(owner, attr), keep_span=False))

    def span(owner, attr, name, after=None):
        tracer.patch(owner, attr, tracer.wrap(name, getattr(owner, attr), after=after))

    # girth and pattern, as the search and catalog layers call them
    hot(search, "chord_cycle_shorter_than", "girth.predicate")
    for mod in (search, catalog):
        hot(mod, "girth_oracle", "girth.oracle")
        hot(mod, "expand", "pattern.expand")
    hot(search, "canonical_form", "pattern.canonical_form")

    # search: kernel, witness re-verification, scheduler
    for mod in (search, cli):
        span(mod, "enumerate_order", "search.enumerate_order")
        span(mod, "min_order", "search.min_order")
    span(search, "_witness_records", "search.witness_records")
    _trace_budget_breaches(tracer, search)
    _trace_pool(tracer, search)

    # catalog and render entry points called by the cli
    def count_bytes(args, kwargs, result, dt):
        tracer.add("catalog.bytes_written", os.path.getsize(args[0]))

    for attr in ("write_witness_file", "write_certificate_file", "write_resume_file"):
        span(cli, attr, "catalog.write", after=count_bytes)
    for attr in ("parse_witness_file", "parse_certificate_file", "parse_resume_file",
                 "parse_claims_file"):
        span(cli, attr, "catalog.parse")
    span(cli, "verify_witness", "catalog.verify")
    span(render, "verify_witness", "catalog.verify")
    for attr in ("bounds_table", "format_bounds_table", "non_existence_report",
                 "format_non_existence"):
        span(cli, attr, "catalog.aggregate")

    def count_svg(args, kwargs, result, dt):
        tracer.add("render.svg.bytes", len(result.encode()))

    span(render, "render_svg", "render.svg", after=count_svg)
    span(cli, "main", "cli.main")
    return tracer


def _trace_budget_breaches(tracer: Tracer, search):
    """Count the work the kernel throws away when a root subtree breaches."""
    run_root = search._Kernel.run_root

    @functools.wraps(run_root)
    def wrapper(kern, root, budget):
        run_root(kern, root, budget)
        if kern.breached:
            tracer.add("discarded.expansions", kern.expansions)
            tracer.add("discarded.predicate_calls",
                       kern.expansions - kern.conflicts - kern.sym_skips)

    tracer.patch(search._Kernel, "run_root", wrapper)


def _trace_pool(tracer: Tracer, search):
    shard_worker = search._shard_worker

    @functools.wraps(shard_worker)
    def worker(payload):
        # runs in a forked pool process holding a copy of the parent's tracer
        tracer.reset()
        t0 = perf_counter()
        outcome = shard_worker(payload)
        task = {"pid": os.getpid(), "t0": t0, "t1": perf_counter()}
        return outcome, task, tracer.snapshot()

    merge = tracer.wrap("search.merge", search.merge_order_outcomes)

    @functools.wraps(search.merge_order_outcomes)
    def merge_parts(spec, order, parts):
        if parts and isinstance(parts[0], tuple):
            outcomes = []
            for outcome, task, snap in parts:
                outcomes.append(outcome)
                tracer.shard_tasks.append(task)
                tracer.absorb(snap)
            parts = outcomes
        return merge(spec, order, parts)

    def pool_call(args, kwargs, result, wall):
        tasks = list(tracer.shard_tasks)
        tracer.shard_tasks.clear()
        if not tasks:
            return  # ran serially, no pool
        processes = kwargs.get("processes", args[3] if len(args) > 3 else None)
        busy: dict[int, float] = {}
        for t in tasks:
            busy[t["pid"]] = busy.get(t["pid"], 0.0) + t["t1"] - t["t0"]
        tracer.pool_calls.append({"wall": wall, "processes": processes,
                                  "busy": sorted(busy.values())})

    tracer.patch(search, "_shard_worker", worker)
    tracer.patch(search, "merge_order_outcomes", merge_parts)
    tracer.patch(search, "enumerate_order_sharded",
                 tracer.wrap("search.sharded", search.enumerate_order_sharded,
                             after=pool_call))
