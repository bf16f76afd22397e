"""Test-only helpers: brute-force reference enumeration and random patterns.

The brute-force survey is the unpruned reference the search kernel is
tested against; random patterns feed the property tests.  The edge-removal
girth is a reference for the oracle's BFS on arbitrary simple graphs.
Pattern transforms and search-prefix replay build the inputs of the
symmetry and predicate tests.
"""

import itertools
from collections import deque

from hbgsearch.girth import girth_oracle
from hbgsearch.pattern import (
    DivisibilityError,
    OffsetPattern,
    PatternTransform,
    _divisors,
    _transformed_offsets,
    canonical_form,
    expand,
    validate_pattern,
)
from hbgsearch.search import PartialAssignment, candidate_values


def brute_force_survey(b: int, order: int, limit: int = 8_000_000):
    """Every valid pattern of the given b and order with its exact oracle girth.

    Enumerates all raw odd-offset sequences (no pruning, no symmetry), keeps
    the ones that validate, and measures each survivor's girth on the
    explicit expansion.  Raises when the raw space exceeds `limit`; spaces
    grow as (m-2)^(2b) and are astronomically infeasible for large b, so
    callers pick grids below the cap.
    """
    m = order // 2
    if order % 2 or m % b:
        raise DivisibilityError(f"order {order} incompatible with b={b}")
    cand = candidate_values(order)
    b2 = 2 * b
    total = len(cand) ** b2
    if total > limit:
        raise ValueError(
            f"raw space {len(cand)}^{b2} = {total} exceeds limit {limit}"
        )
    n = order
    out = []
    for seq in itertools.product(cand, repeat=b2):
        ok = True
        for j, d in enumerate(seq):
            if seq[(j + d) % b2] != n - d:
                ok = False
                break
        if not ok:
            continue
        p = validate_pattern(m, b, seq)
        res = girth_oracle(expand(p), cap=order)
        assert res.value is not None
        out.append((p, res.value))
    return out


def brute_force_canonical_witnesses(
    g: int, b: int, order: int, limit: int = 8_000_000,
    survey=None,
) -> tuple[int, list[tuple[int, ...]]]:
    """Raw witness count and sorted canonical witness set, without any pruning."""
    if survey is None:
        survey = brute_force_survey(b, order, limit)
    keep = [p for (p, gv) in survey if gv >= g]
    canon = sorted({canonical_form(p).offsets for p in keep})
    return len(keep), canon


def random_pattern(rng, max_m: int = 30, m: int | None = None,
                   b: int | None = None) -> OffsetPattern:
    """A uniformly-ish random valid pattern, for property tests."""
    while True:
        mm = m if m is not None else rng.randrange(3, max_m + 1)
        bb = b if b is not None else rng.choice(_divisors(mm))
        seq = _random_offsets(rng, mm, bb)
        if seq is not None:
            return validate_pattern(mm, bb, seq)


def _random_offsets(rng, m: int, b: int) -> list[int] | None:
    n = 2 * m
    b2 = 2 * b
    cand = candidate_values(n)
    table = [-1] * b2

    def go() -> bool:
        j = -1
        for k in range(b2):
            if table[k] < 0:
                j = k
                break
        if j < 0:
            return True
        order_try = cand[:]
        rng.shuffle(order_try)
        for d in order_try:
            t = (j + d) % b2
            if table[t] >= 0:
                continue
            table[j] = d
            table[t] = n - d
            if go():
                return True
            table[j] = -1
            table[t] = -1
        return False

    return table if go() else None


def edge_removal_girth(adj) -> int | None:
    """Girth of a simple graph: 1 + min over edges uv of dist(u, v) in G - uv.

    None for a forest.  Independent of the oracle: one plain BFS per edge,
    with no parent-edge exclusion and no stop rule.
    """
    best = None
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            if u < v:
                d = _distance_without_edge(adj, u, v)
                if d is not None and (best is None or d + 1 < best):
                    best = d + 1
    return best


def _distance_without_edge(adj, s: int, t: int) -> int | None:
    dist = {s: 0}
    queue = deque([s])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if {x, y} == {s, t} or y in dist:
                continue
            dist[y] = dist[x] + 1
            if y == t:
                return dist[y]
            queue.append(y)
    return None


def apply_transform(transform: PatternTransform, pattern: OffsetPattern) -> OffsetPattern:
    """Apply a relabeling transform; the result is revalidated."""
    return validate_pattern(
        pattern.m, pattern.b,
        _transformed_offsets(transform, pattern.offsets, pattern.order),
    )


def compose_transforms(first: PatternTransform, second: PatternTransform) -> PatternTransform:
    """Transform equivalent to applying `second`, then `first`.

    Shifts are kept as raw even integers; they act mod 2b at application
    time, so composed shifts for different b stay meaningful.
    """
    s2 = second.shift if not first.reflect else -second.shift
    return PatternTransform(shift=first.shift + s2, reflect=first.reflect != second.reflect)


def assignment_prefix(pattern: OffsetPattern, pairs: int) -> PartialAssignment:
    """Replay the first `pairs` search steps of a full pattern."""
    b2 = pattern.positions
    table: list[int | None] = [None] * b2
    done = 0
    for j in range(b2):
        if done >= pairs:
            break
        if table[j] is not None:
            continue
        d = pattern.offsets[j]
        table[j] = d
        table[(j + d) % b2] = pattern.order - d
        done += 1
    return PartialAssignment(m=pattern.m, b=pattern.b, offsets=tuple(table))
