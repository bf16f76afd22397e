"""Golden scheduler outputs: certificates, resume text, statuses, witnesses.

For a grid of `min_order` scans this records what each order produces: its
serialized certificate, the resume file a budget breach leaves behind, its
status and the offsets of its witnesses.  The grid covers serial, serially
sharded and pooled scans, with and without node budgets, for single- and
multi-order scans.  `test_golden_scheduler.py` recomputes the grid and
compares it with `data/golden_scheduler.json` byte for byte.

Regenerate the data only in a change that alters these bytes on purpose,
and say so in that change; the script prints the case ids it added,
removed and changed:

    PYTHONPATH=src python tests/golden_scheduler.py
"""

from __future__ import annotations

from pathlib import Path

from hbgsearch.catalog import ResumeState, serialize_certificate, serialize_resume
from hbgsearch.search import SearchSpec, min_order

from helpers import write_golden

DATA_PATH = Path(__file__).resolve().parent / "data" / "golden_scheduler.json"

SEARCHES = ((8, 3, (42,)), (6, 1, (14,)), (10, 2, (40,)), (14, 3, (258,)))
MODES = ("first", "all", "prove")
BUDGETS = (None, 1, 50, 4000)
SERIAL_PATHS = ((1, None), (3, None))  # (shards, processes)
POOLED = (3, 2)


def cases() -> list[dict]:
    out = []
    for g, b, orders in SEARCHES:
        for mode in MODES:
            for reduction in (False, True):
                for budget in BUDGETS:
                    for shards, processes in SERIAL_PATHS:
                        out.append(dict(g=g, b=b, orders=orders, mode=mode,
                                        reduction=reduction, node_budget=budget,
                                        shards=shards, processes=processes))
    pooled = [
        (8, 3, (42,), "all", False, None),
        (8, 3, (42,), "first", True, 50),
        (10, 2, (40,), "prove", False, 1),
        (14, 3, (258,), "prove", False, 4000),
        (8, 3, (30, 36, 42), "first", False, None),
    ]
    for g, b, orders, mode, reduction, budget in pooled:
        out.append(dict(g=g, b=b, orders=orders, mode=mode, reduction=reduction,
                        node_budget=budget, shards=POOLED[0], processes=POOLED[1]))
    # multi-order scans that breach or spend the shared budget early; order
    # 12 at g=6 b=1 takes exactly 4 expansions, and g=8 b=1 starts at g > n
    scans = [
        (14, 3, (258, 264), "prove", False, 4000),
        (14, 3, (258, 264, 270), "prove", False, 50),
        (8, 3, (30, 36, 42), "first", True, 1),
        (6, 1, (12, 14), "prove", False, 4),
        (8, 1, (6, 8, 10, 12, 14), "all", False, 3),
    ]
    for shards, processes in SERIAL_PATHS + (POOLED,):
        for g, b, orders, mode, reduction, budget in scans:
            out.append(dict(g=g, b=b, orders=orders, mode=mode, reduction=reduction,
                            node_budget=budget, shards=shards, processes=processes))
    return out


def case_id(case: dict) -> str:
    return ("g{g} b{b} n{orders} {mode} red={reduction} budget={node_budget} "
            "shards={shards} processes={processes}").format(
                **dict(case, orders=",".join(map(str, case["orders"]))))


def run_case(case: dict) -> dict:
    spec = SearchSpec(g=case["g"], b=case["b"], orders=case["orders"], mode=case["mode"],
                      node_budget=case["node_budget"], reduction=case["reduction"])
    outcome = min_order(spec, shards=case["shards"], processes=case["processes"])
    per_order = []
    for oc in outcome.per_order:
        resume = None
        if oc.pending:
            resume = serialize_resume(ResumeState(
                g=spec.g, order=oc.order, b=spec.b, mode=spec.mode,
                reduction=spec.reduction, node_budget=spec.node_budget,
                pending=oc.pending))
        per_order.append({
            "order": oc.order,
            "status": oc.status,
            "certificate": serialize_certificate(oc.certificate),
            "resume": resume,
            "witnesses": [list(w.pattern.offsets) for w in oc.witnesses],
        })
    return {"minimal": outcome.minimal_order, "per_order": per_order}


def main():
    golden = {case_id(c): run_case(c) for c in cases()}
    write_golden(DATA_PATH, golden)
    print(f"wrote {len(golden)} cases to {DATA_PATH}")


if __name__ == "__main__":
    main()
