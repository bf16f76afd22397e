"""Test-only helpers: brute-force reference enumeration and random patterns.

The brute-force survey is the unpruned reference the search kernel is
tested against; random patterns feed the property tests.  The edge-removal
girth is a reference for the oracle's BFS on arbitrary simple graphs, the
per-vertex distance BFS one for the kernel's bit-set BFS, and root_events,
a plain per-candidate loop, one for the kernel's walk over positions.
girth_fast runs the oracle's BFS from the 2b class representatives only,
the shortcut has_girth_at_least takes.
Pattern transforms (the canonical group of `canonical_form`) and
search-prefix replay build the inputs of the symmetry and predicate tests.
`write_golden` rewrites a golden data file and says what it changed.
"""

import itertools
import json
from collections import deque
from dataclasses import dataclass

from hbgsearch.girth import GirthResult, _shortest_cycle, girth_oracle, has_girth_at_least
from hbgsearch.pattern import (
    DivisibilityError,
    OffsetPattern,
    _divisors,
    canonical_form,
    expand,
    validate_pattern,
)
from hbgsearch.search import candidate_values


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


def girth_fast(pattern: OffsetPattern, cap: int) -> GirthResult:
    """Girth of the expanded pattern using only the 2b class representatives.

    Rotation of the cycle by a multiple of 2b is an automorphism of the
    expanded graph.  A shortest cycle with least vertex r, shifted down by
    r - (r mod 2b), has least vertex r mod 2b in 0..2b-1, and none of its
    vertices wraps below 0, so the BFS from that root, which walks only
    vertices at or above it, finds it.  Agrees exactly with
    girth_oracle(expand(pattern), cap).
    """
    return _shortest_cycle(expand(pattern).adjacency, range(pattern.positions), cap)


def edge_removal_girth(adj) -> int | None:
    """Girth of a graph: 1 + min over edges uv of dist(u, v) in G - uv.

    G - uv removes one copy of uv, so a loop (v listed once in adj[v]) is a
    cycle of length 1 and an edge listed twice is a cycle of length 2.
    None for a forest.  Independent of the oracle: one plain BFS per edge,
    with no parent-edge exclusion and no stop rule.
    """
    best = None
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            if u <= v:
                d = _distance_without_edge(adj, u, v)
                if d is not None and (best is None or d + 1 < best):
                    best = d + 1
    return best


def _distance_without_edge(adj, s: int, t: int) -> int | None:
    if s == t:
        return 0
    if adj[s].count(t) > 1:
        return 1
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


def distances_within(n: int, b2: int, offsets: list[int], root: int, depth: int) -> list[int]:
    """dist_G(root, x) for every x within `depth`, and -1 beyond it.

    The plain per-vertex BFS that girth.level_sets is tested against.  G is
    the Hamiltonian cycle plus the chord of every position whose entry in
    `offsets` is not -1; the chord at `root` itself is never followed.
    """
    dist = [-1] * n
    dist[root] = 0
    reached = [root]
    for u in reached:  # grows while it is read: a FIFO queue
        du = dist[u]
        if du >= depth:
            break
        nbrs = [(u + 1) % n, (u - 1) % n]
        off = offsets[u % b2]
        if off >= 0 and u != root:
            nbrs.append((u + off) % n)
        for v in nbrs:
            if dist[v] < 0:
                dist[v] = du + 1
                reached.append(v)
    return dist


def root_events(n: int, b: int, g: int, root: int, reduction: bool, collect: str) -> list[tuple]:
    """Every expansion below one root value, in the kernel's order, by a plain loop.

    One event per expansion: (kind, depth, leaf), where kind is "conflict",
    "skip", "reject" or "node", depth is the number of pairs set at the node
    that tried it, and leaf is the complete table a "node" event makes, or
    None.  At each node every candidate d, in ascending order, is a
    conflict when its partner class is taken, else a sym skip when the
    reduction drops it, else a reject when has_girth_at_least fails on the
    child's table; the others are searched depth first.  With collect
    "first" the events end at the first leaf.
    """
    b2 = 2 * b
    offs = [-1] * b2
    events = []

    def visit(depth, values):  # True once the first witness halts the search
        j = offs.index(-1)
        for d in values:
            t = (j + d) % b2
            if offs[t] >= 0:
                events.append(("conflict", depth, None))
                continue
            if reduction and not (d >= offs[0] if j % 2 == 0 else d <= n - offs[0]):
                events.append(("skip", depth, None))
                continue
            offs[j], offs[t] = d, n - d
            if not has_girth_at_least(n, b2, offs, g):
                events.append(("reject", depth, None))
            elif -1 in offs:
                events.append(("node", depth, None))
                if visit(depth + 1, candidate_values(n)):
                    return True
            else:
                events.append(("node", depth, tuple(offs)))
                if collect == "first":
                    return True
            offs[j] = offs[t] = -1
        return False

    visit(0, [root])
    return events


@dataclass(frozen=True)
class PatternTransform:
    """A cycle relabeling preserving pattern validity.

    Application order: reverse the traversal direction about vertex 0 when
    reflect is set, then rotate the starting vertex by `shift` (an even
    number of vertices).  Both operations keep the Hamiltonian cycle, the
    girth and the derived symmetry factors intact.
    """

    shift: int = 0
    reflect: bool = False

    def __post_init__(self):
        if self.shift % 2 != 0:
            raise ValueError(f"shift must be even, got {self.shift}")


def canonical_group(b: int) -> tuple[PatternTransform, ...]:
    """The b even rotations and their reflected companions."""
    shifts = range(0, 2 * b, 2)
    return tuple(
        PatternTransform(shift=s, reflect=r)
        for r in (False, True)
        for s in shifts
    )


def apply_transform(transform: PatternTransform, pattern: OffsetPattern) -> OffsetPattern:
    """Apply a relabeling transform; the result is revalidated."""
    offsets = pattern.offsets
    n = pattern.order
    b2 = len(offsets)
    seq = list(offsets)
    if transform.reflect:
        seq = [n - offsets[(-j) % b2] for j in range(b2)]
    s = transform.shift % b2
    return validate_pattern(pattern.m, pattern.b, [seq[(j + s) % b2] for j in range(b2)])


def compose_transforms(first: PatternTransform, second: PatternTransform) -> PatternTransform:
    """Transform equivalent to applying `second`, then `first`.

    Shifts are kept as raw even integers; they act mod 2b at application
    time, so composed shifts for different b stay meaningful.
    """
    s2 = second.shift if not first.reflect else -second.shift
    return PatternTransform(shift=first.shift + s2, reflect=first.reflect != second.reflect)


def assignment_prefix(pattern: OffsetPattern, pairs: int) -> tuple[int, int, list[int]]:
    """Replay the first `pairs` search steps of a full pattern: (n, 2b, table),
    with the kernel's table, -1 for an unassigned class."""
    b2 = pattern.positions
    table = [-1] * b2
    done = 0
    for j in range(b2):
        if done >= pairs:
            break
        if table[j] >= 0:
            continue
        d = pattern.offsets[j]
        table[j] = d
        table[(j + d) % b2] = pattern.order - d
        done += 1
    return pattern.order, b2, table


def write_golden(path, golden: dict, records=dict) -> None:
    """Write golden data as JSON, and print the recorded keys it changed.

    `records` maps the data to a dict of named records; each record added,
    removed or changed against the file being replaced is printed on its own
    line, so a change that regenerates the data can list what moved.
    """
    text = json.dumps(golden, indent=1, sort_keys=True) + "\n"
    old = records(json.loads(path.read_text())) if path.exists() else {}
    new = records(json.loads(text))
    counts = {"added": 0, "removed": 0, "changed": 0}
    for key in sorted(old.keys() | new.keys()):
        what = ("added" if key not in old else "removed" if key not in new
                else "changed" if old[key] != new[key] else None)
        if what:
            counts[what] += 1
            print(f"{what} {key}")
    print(", ".join(f"{k} {v}" for k, v in counts.items()))
    path.parent.mkdir(exist_ok=True)
    path.write_text(text)
