"""Girth computation for expanded graphs and offset patterns.

Two independent routes are provided on purpose: girth_oracle walks an
explicit graph with an array BFS from every vertex and is kept as simple as
possible (each root's BFS stops once it cannot close a cycle shorter than
the best found so far), while girth_fast exploits the rotational symmetry
of a pattern (every vertex class mod 2b has the same neighbourhood
structure, so the 2b class representatives suffice as roots).  Their
agreement is a tested contract.

has_girth_at_least is the plain reference pruning predicate: it builds the
graph forced by a partial offset assignment and searches it for a cycle
shorter than the target girth.  The search kernel decides the same question
incrementally, one new chord orbit at a time, with chord_cycle_shorter_than
and the per-node filters below; the two are tested against each other.

Per-node filters.  At a search node with frontier position j, let G be the
parent graph (the Hamiltonian cycle plus the chords of the assigned
classes), which has girth >= g, and let D(x) = dist_G(j, x).  A candidate
offset d adds the chord orbit of e = (j, q), q = j + d, whose far ends lie
in the partner class t = q mod 2b.  Rotation by 2b maps G to itself and the
new orbit to itself, so every G-path can be moved along by a multiple of 2b.
Three rules reject d:

- Layer 1, the new orbit used once: D(q) <= g-2.  A G-path from j to q and
  e close a cycle of length <= g-1.
- Layer 2a, the new chord twice in the same direction: there are
  x1, x2 = t (mod 2b) with D(x1) + D(x2) <= g-3 and 2q = x1 + x2 (mod n).
  Walk j -> x1 in G, take the orbit chord from x1 back to the class of j
  (landing at x1 - d), walk the rotated path j -> x2 from there, and take
  the orbit chord at its end; the congruence makes that chord land on j.
- Layer 2b, the new chord out and back: G has a path of length l1 from t to
  some x = t (mod 2b), x != t, and a path of length l2 from j to j + t - x,
  with l1 + l2 <= g-3.  Take e, the rotated path q -> q + x - t, the orbit
  chord back to j + x - t, and the rotated path to j.  This does not
  depend on d, so it rejects every candidate of class t.

Each rule exhibits a closed walk of length <= g-1 in the child graph that
alternates non-empty G-paths with orbit chords, which are not G-edges, so
the walk never turns straight back on an edge.  A closed walk that never
backtracks, read cyclically, cannot live in a forest, so the edges it uses
contain a cycle of length <= g-1.  The exact check rejects such a candidate
too: the filters change what a decision costs, never the decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .pattern import ExpandedGraph, OffsetPattern

if TYPE_CHECKING:  # pragma: no cover
    from .search import PartialAssignment


@dataclass(frozen=True)
class GirthResult:
    """Exact girth, or the marker that no cycle of length <= cap exists.

    value is the length of a shortest cycle when it is at most cap, and
    None when every cycle is longer than cap.
    """

    value: int | None
    cap: int

    @property
    def exceeds_cap(self) -> bool:
        return self.value is None

    def at_least(self, g: int) -> bool:
        """Whether the result certifies girth >= g."""
        if self.value is not None:
            return self.value >= g
        return self.cap >= g - 1


def girth_oracle(graph: ExpandedGraph, cap: int) -> GirthResult:
    """Reference girth by truncated BFS from every vertex.

    Deliberately plain: array BFS with parent-edge exclusion from every
    vertex, shortest cycle estimate min over all roots, no symmetry
    assumptions.  A cycle of length L through the root is found at depth
    ceil(L/2), so expanding vertices below depth ceil(cap/2) sees every
    cycle of length <= cap.  A root's BFS also stops at the first vertex of
    depth du with 2*du >= best: a non-tree edge met while expanding it
    closes a walk of length at least 2*du, so nothing below can beat best
    (Itai & Rodeh, SIAM J. Comput. 7, 1978).
    """
    return _shortest_cycle(graph.adjacency, range(graph.order), cap)


def _shortest_cycle(adj, roots, cap: int) -> GirthResult:
    """Shortest cycle through any of `roots`, as girth_oracle describes."""
    if cap < 3:
        raise ValueError(f"cap must be at least 3, got {cap}")
    depth_cap = (cap + 1) // 2
    dist = [-1] * len(adj)
    parent = [-1] * len(adj)
    best = cap + 1  # a cycle longer than cap is never reported
    for root in roots:
        dist[root] = 0
        parent[root] = -1
        reached = [root]
        for u in reached:  # grows while it is read: a FIFO queue
            du = dist[u]
            if du >= depth_cap or 2 * du >= best:
                break
            pu = parent[u]
            nd = du + 1
            for v in adj[u]:
                if v == pu:
                    continue
                dv = dist[v]
                if dv < 0:
                    dist[v] = nd
                    parent[v] = u
                    reached.append(v)
                elif du + dv + 1 < best:
                    best = du + dv + 1
        for v in reached:
            dist[v] = -1
    return GirthResult(value=best if best <= cap else None, cap=cap)


def girth_fast(pattern: OffsetPattern, cap: int) -> GirthResult:
    """Girth of the expanded pattern using only the 2b class representatives.

    Every vertex is mapped onto its class representative by a rotation of
    the cycle by a multiple of 2b, which is an automorphism of the expanded
    graph, so a shortest cycle always passes through one of the roots
    0..2b-1.  Agrees exactly with girth_oracle(expand(pattern), cap).
    """
    if cap < 3:
        raise ValueError(f"cap must be at least 3, got {cap}")
    n = pattern.order
    b2 = pattern.positions
    offs = pattern.offsets
    depth_cap = (cap + 1) // 2
    dist = [0] * n
    parent = [0] * n
    stamp = [0] * n
    queue = [0] * n
    token = 0
    best = n + 1
    for root in range(min(b2, n)):
        token += 1
        stamp[root] = token
        dist[root] = 0
        parent[root] = -1
        queue[0] = root
        head, tail = 0, 1
        while head < tail:
            u = queue[head]
            head += 1
            du = dist[u]
            if du >= depth_cap:
                break
            nd = du + 1
            pu = parent[u]
            chord = u + offs[u % b2]
            if chord >= n:
                chord -= n
            for v in (u + 1 if u + 1 < n else 0, u - 1 if u > 0 else n - 1, chord):
                if v == pu:
                    continue
                if stamp[v] == token:
                    length = du + dist[v] + 1
                    if length < best:
                        best = length
                else:
                    stamp[v] = token
                    dist[v] = nd
                    parent[v] = u
                    queue[tail] = v
                    tail += 1
    if best <= cap:
        return GirthResult(value=best, cap=cap)
    return GirthResult(value=None, cap=cap)


class _BfsScratch:
    """Reusable per-worker buffers for chord-cycle checks."""

    __slots__ = ("dist", "stamp", "queue", "token")

    def __init__(self, n: int):
        self.dist = [0] * n
        self.stamp = [0] * n
        self.queue = [0] * n
        self.token = 0


def chord_cycle_shorter_than(
    n: int,
    b2: int,
    offsets: list[int],
    rep: int,
    g: int,
    scratch: _BfsScratch,
    ends: bytearray | None = None,
) -> bool:
    """Whether some cycle through the chord orbit of position `rep` has length < g.

    offsets is the full 2b position table with -1 for unassigned classes.
    Because assigned chords come in whole translation orbits, it suffices to
    test the single representative chord (rep, rep + offset): a path of
    length <= g-2 back from its far end, avoiding the chord itself, closes
    a short cycle.  `ends`, when given, holds the far ends the per-node
    filters of the parent already rejected; those are answered without a
    BFS.
    """
    d = offsets[rep % b2]
    q = rep + d
    if q >= n:
        q -= n
    if ends is not None and ends[q]:
        return True
    limit = g - 2
    dist = scratch.dist
    stamp = scratch.stamp
    queue = scratch.queue
    scratch.token += 1
    token = scratch.token
    stamp[rep] = token
    dist[rep] = 0
    queue[0] = rep
    head, tail = 0, 1
    while head < tail:
        u = queue[head]
        head += 1
        du = dist[u]
        if du >= limit:
            break
        nd = du + 1
        v = u + 1
        if v == n:
            v = 0
        if stamp[v] != token:
            if v == q:
                return True
            stamp[v] = token
            dist[v] = nd
            queue[tail] = v
            tail += 1
        v = u - 1
        if v < 0:
            v = n - 1
        if stamp[v] != token:
            if v == q:
                return True
            stamp[v] = token
            dist[v] = nd
            queue[tail] = v
            tail += 1
        off = offsets[u % b2]
        if off >= 0 and u != rep:
            v = u + off
            if v >= n:
                v -= n
            if stamp[v] != token:
                if v == q:
                    return True
                stamp[v] = token
                dist[v] = nd
                queue[tail] = v
                tail += 1
    return False


def distances_within(n: int, b2: int, offsets: list[int], root: int, depth: int) -> list[int]:
    """dist_G(root, x) for every x within `depth`, and -1 beyond it.

    G is the graph of the assigned chords: the Hamiltonian cycle plus the
    chord of every position whose entry in `offsets` is not -1.
    """
    dist = [-1] * n
    dist[root] = 0
    reached = [root]
    for u in reached:  # grows while it is read: a FIFO queue
        du = dist[u]
        if du == depth:
            break
        du += 1
        v = u + 1
        if v == n:
            v = 0
        if dist[v] < 0:
            dist[v] = du
            reached.append(v)
        v = u - 1
        if v < 0:
            v = n - 1
        if dist[v] < 0:
            dist[v] = du
            reached.append(v)
        off = offsets[u % b2]
        if off >= 0:
            v = u + off
            if v >= n:
                v -= n
            if dist[v] < 0:
                dist[v] = du
                reached.append(v)
    return dist


def frontier_ball(n: int, b2: int, offsets: list[int], j: int, g: int
                  ) -> tuple[bytearray, list[int]]:
    """Layer 1 at the node whose frontier is j: (ends, D).

    D is dist_G(j, .) up to g-2 (-1 beyond), and ends marks every far end
    within it, so ends[j + d] rejects candidate d.  ends is the node's own
    buffer; mark_partner_class adds the layer-2 marks of a class to it.
    """
    dist = distances_within(n, b2, offsets, j, g - 2)
    return bytearray(x >= 0 for x in dist), dist


def mark_out_and_back(ends: bytearray, n: int, b2: int, offsets: list[int], j: int,
                      t: int, g: int, dist: list[int]) -> bool:
    """Layer 2b: mark every far end of class t if a short out-and-back walk exists."""
    limit = g - 3
    from_t = distances_within(n, b2, offsets, t, limit - 1)
    for x in range(t + b2, n, b2):
        l1 = from_t[x]
        if l1 < 0:
            continue
        y = j + t - x
        if y < 0:
            y += n
        l2 = dist[y]
        if 0 <= l2 <= limit - l1:
            ends[t::b2] = bytes([1]) * (n // b2)
            return True
    return False


def mark_same_direction(ends: bytearray, n: int, b2: int, j: int, t: int, g: int,
                        dist: list[int]) -> None:
    """Layer 2a: mark far ends q of class t with 2q = x1 + x2, D(x1) + D(x2) <= g-3."""
    limit = g - 3
    near = sorted((dist[x], x) for x in range(t, n, b2) if 0 <= dist[x] < limit)
    half = n // 2
    for i, (d1, x1) in enumerate(near):
        for d2, x2 in near[i:]:
            if d1 + d2 > limit:
                break
            q = (x1 + x2) // 2
            if q % b2 == t:
                ends[q] = 1
            q = (q + half) % n
            if q % b2 == t:
                ends[q] = 1


def mark_partner_class(ends: bytearray, n: int, b2: int, offsets: list[int], j: int,
                       t: int, g: int, dist: list[int]) -> None:
    """Add the layer-2 marks of partner class t to the node buffer `ends`.

    offsets must be the parent's table: neither j nor t assigned.
    """
    if not mark_out_and_back(ends, n, b2, offsets, j, t, g, dist):
        mark_same_direction(ends, n, b2, j, t, g, dist)


def has_girth_at_least(partial: "PartialAssignment", g: int) -> bool:
    """Reference pruning predicate over the edges forced by a partial assignment.

    False exactly when the Hamiltonian cycle plus the chords of the assigned
    classes already contain a cycle shorter than g; a prefix of any pattern
    whose completion has girth >= g therefore always passes.  Monotone: once
    False, every extension and every larger g stays False.  The graph is
    built explicitly and searched by the oracle's BFS from the 2b class
    representatives only: rotation by 2b maps the graph to itself, so every
    cycle has a rotated copy through one of them.
    """
    if g <= 3:
        return True
    n = 2 * partial.m
    b2 = 2 * partial.b
    adj = []
    for u in range(n):
        nbrs = [(u - 1) % n, (u + 1) % n]
        d = partial.offsets[u % b2]
        if d is not None:
            nbrs.append((u + d) % n)
        adj.append(nbrs)
    return _shortest_cycle(adj, range(b2), g - 1).value is None
