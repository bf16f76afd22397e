"""Girth computation for expanded graphs and partial offset tables.

There are two BFS loops, one reference and one for the kernel.

- _shortest_cycle is the reference: an array BFS over an explicit
  adjacency list, kept as plain as possible.  Each root's BFS walks only
  the vertices at or above the root, since a cycle lies at or above its
  least vertex, and stops once it cannot close a cycle shorter than the
  best found so far.  When every edge joins an even and an odd label, as
  in every pattern graph, it stops one level earlier: every cycle is then
  even, and one shorter than the best is found while expanding a depth
  below best/2 - 1 (girth_oracle gives the proof).  girth_oracle runs it
  from every vertex.  has_girth_at_least runs it from the 2b class
  representatives only: rotation by 2b maps the graph to itself, and
  shifting a cycle down by a multiple of 2b puts its least vertex in
  0..2b-1 without wrapping, so the shifted cycle still lies at or above
  that vertex.  tests/helpers.py runs it the same way on a whole pattern
  and tests that against girth_oracle.
- level_sets is the kernel's BFS over the offset table itself, with no
  adjacency list built.  Each BFS level is one n-bit Python int (bit x set
  means vertex x), so a step is a fixed number of big-int operations, not
  one loop trip per vertex: the level rotated by +1 and -1, and for each
  assigned class c the level's class-c vertices (a mask cached per
  (n, 2b)) rotated by c's offset.  It serves node_filter (the balls
  around the frontier of every search node and around a partner class in
  layer 2b) and the exact check chord_cycle_shorter_than, which passes the
  far end as a stop vertex.  It never follows the chord at its own root;
  the exact check relies on that to measure paths that avoid the new
  chord, and at every other caller the root's class is unassigned.  The
  (mask, offset) pairs of the assigned classes are its move table, which
  every caller passes: node_filter builds one per node and hands it to
  each of the node's BFSes, and the exact check builds its own, since its
  table holds the candidate's chord.  tests/helpers.py keeps a plain
  per-vertex BFS that level_sets is tested against.

The predicates read one form of a partial assignment, the kernel's table:
2b entries, one per class, each the class's offset or -1 when the class is
unassigned.  has_girth_at_least is the plain reference pruning predicate:
it builds the graph such a table forces and searches it for a cycle shorter
than the target girth.  The search kernel decides the same question
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

node_filter applies the three rules once when a node starts and returns one
n-bit int: bit q is set iff they reject far end q.  It builds j's BFS levels
once, and their cumulative balls: layer 1 is the last ball, layer 2a reads
the levels and layer 2b the balls.  The kernel passes the int, and the
candidate's far end from a table it builds once, to the exact check for
every candidate.  Layer 2 is computed for each open class t of the parity
opposite to j's that still has a far end outside the ball; a class's marks
lie in that class, so no other class would add a bit that a candidate
reads.

Parity.  Every offset is odd and n is even, so every edge joins an even and
an odd vertex: every pattern graph is bipartite, and a path between two
vertices has the parity of their difference.  That lets each ball stop
earlier than the rules read, with no decision changed:

- a far end q = j + d is at odd distance from j, so D(q) <= g-2 (layer 1)
  and a path of length <= g-2 avoiding the new chord (the exact check) mean
  the same as <= g-3: the frontier ball and the exact check go to depth g-3;
- in layer 2b, x shares t's class and j + t - x shares j's, so l1 and l2 are
  even, and x != t makes both at least 2; l1 + l2 <= g-3 then means
  l1 + l2 <= g-4, so l1 <= g-6: the ball from t goes to depth g-6, and l2
  is read from j's levels up to g-4-l1.  When b >= 2, t +- 2 and j +- 2
  are in other classes, and no path of length 2 reaches t's or j's class
  through a chord either: neither class is assigned, so no chord has its
  far end there.  Then l1 and l2 are at least 4, so l1 <= g-8 and the
  ball from t goes to depth g-8;
- in layer 2a, x1 and x2 share t's class, at odd distance from j, so only
  the odd levels below g-3 hold them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from operator import or_

from .pattern import ExpandedGraph


@dataclass(frozen=True)
class GirthResult:
    """Exact girth, or the marker that no cycle of length <= cap exists.

    value is the length of a shortest cycle when it is at most cap, and
    None when every cycle is longer than cap.
    """

    value: int | None
    cap: int


def girth_oracle(graph: ExpandedGraph, cap: int) -> GirthResult:
    """Reference girth by truncated BFS from every vertex.

    Deliberately plain: array BFS with parent-edge exclusion from every
    vertex, shortest cycle estimate min over all roots, no symmetry
    assumptions.  A cycle of length L through the root is found at depth
    ceil(L/2), so expanding vertices below depth ceil(cap/2) sees every
    cycle of length <= cap.  A root's BFS also stops at the first vertex of
    depth du with 2*du >= best: a non-tree edge met while expanding it
    closes a walk of length at least 2*du, so nothing below can beat best
    (Itai & Rodeh, SIAM J. Comput. 7, 1978).  When every edge joins an even
    and an odd label, the BFS stops at the first depth du with
    2*du + 2 >= best instead.  Every cycle is then even, and a vertex's
    depth has the parity of its label minus the root's, so every edge the
    BFS meets joins consecutive depths.  A cycle of length L < best through
    the root lies within depth L/2, and not all of its edges are tree
    edges, so one of them is met while expanding its lower end, at a depth
    at most L/2 - 1 < best/2 - 1; that edge closes a walk of length at most
    L.  A root's BFS walks only the vertices at or above it: a shortest
    cycle lies at or above its least vertex r, so the BFS from r still
    finds it, and every closed walk a BFS finds is a closed walk of the
    whole graph that contains a cycle, so no value comes out too short.
    """
    return _shortest_cycle(graph.adjacency, range(graph.order), cap)


def _shortest_cycle(adj, roots, cap: int) -> GirthResult:
    """Shortest cycle among those whose least vertex is one of `roots`.

    Each root's BFS walks only the vertices >= root and stops as
    girth_oracle describes.  The value is exact when a shortest cycle, or
    its image under an automorphism, has its least vertex among the roots;
    it is never shorter than the girth.
    """
    if cap < 3:
        raise ValueError(f"cap must be at least 3, got {cap}")
    depth_cap = (cap + 1) // 2
    # 2 when every edge joins an even and an odd label, so every cycle is even
    slack = 2 if all((u ^ v) & 1 for u, nbrs in enumerate(adj) for v in nbrs) else 0
    dist = [-1] * len(adj)
    parent = [-1] * len(adj)
    best = cap + 1  # a cycle longer than cap is never reported
    # the least depth du with du >= depth_cap or 2*du + slack >= best
    stop = min(depth_cap, (best - slack + 1) // 2)
    for root in roots:
        dist[root] = 0
        parent[root] = -1
        reached = [root]
        for u in reached:  # grows while it is read: a FIFO queue
            du = dist[u]
            if du >= stop:
                break
            pu = parent[u]
            nd = du + 1
            for v in adj[u]:
                if v == pu or v < root:
                    continue
                dv = dist[v]
                if dv < 0:
                    dist[v] = nd
                    parent[v] = u
                    reached.append(v)
                elif du + dv + 1 < best:
                    best = du + dv + 1
                    stop = min(depth_cap, (best - slack + 1) // 2)
        for v in reached:
            dist[v] = -1
    return GirthResult(value=best if best <= cap else None, cap=cap)


def chord_cycle_shorter_than(n: int, b2: int, offsets: list[int], rep: int, g: int,
                             ends: int, q: int) -> bool:
    """Whether some cycle through the chord orbit of position `rep` has length < g.

    offsets is the kernel's table: 2b entries, -1 for an unassigned class.
    Because assigned chords come in whole translation orbits, it suffices to
    test the single representative chord (rep, rep + offset): a path of
    length <= g-2 back from its far end q = (rep + offsets[rep]) mod n,
    avoiding the chord itself, closes a short cycle.  The far end is at odd
    distance, so depth g-3 is enough.  Bit x of `ends` marks a far end x the
    parent's node_filter already rejected; those are answered without a BFS.
    """
    if ends >> q & 1:
        return True
    return level_sets(n, _moves(n, b2, offsets), rep, g - 3, q)[-1] >> q & 1 == 1


@cache
def _class_masks(n: int, b2: int) -> tuple[int, ...]:
    """Bit set of every vertex class mod b2: bit x of masks[c] is set iff x = c (mod b2)."""
    every = 0
    for _ in range(n // b2):
        every = (every << b2) | 1
    return tuple(every << c for c in range(b2))


def _moves(n: int, b2: int, offsets: list[int]) -> tuple[list, list]:
    """The chords of G as level moves: (mask of class c, c's offset) for each
    assigned class c, in two lists, the even classes' and the odd classes'."""
    masks = _class_masks(n, b2)
    moves = ([], [])
    for c in range(b2):
        d = offsets[c]
        if d >= 0:
            moves[c & 1].append((masks[c], d))
    return moves


def level_sets(n: int, moves: tuple[list, list], root: int, depth: int,
               stop: int | None = None) -> list[int]:
    """The BFS levels of root up to `depth`: bit x of levels[k] is set iff dist_G(root, x) = k.

    G is the graph of the assigned chords: the Hamiltonian cycle plus the
    chord of every assigned class, given as its move table, _moves(n, b2,
    offsets).  The chord at `root` itself is never followed, so when root's
    class is assigned the distances are those of G minus that chord.  The
    list ends early at the first empty level, or at the first level that
    contains `stop`.

    One step moves a whole level at once: the level rotated by +1 and -1,
    and, for each assigned class c, the level's class-c vertices rotated by
    c's offset.  Every offset is odd, so a level holds vertices of one
    parity, and only the classes of that parity can move it.
    """
    levels = [1 << root]
    target = 0 if stop is None else 1 << stop
    if depth < 1 or target & levels[0]:
        return levels
    up = root + 1 if root + 1 < n else 0
    frontier = (1 << up) | (1 << (root - 1 if root else n - 1))
    unseen = ((1 << n) - 1) ^ levels[0] ^ frontier
    levels.append(frontier)
    parity = ~root & 1  # the parity of the vertices in `frontier`
    for _ in range(depth - 1):
        if frontier & target:
            break
        x = (frontier << 1) | (frontier << (n - 1))
        for mask, d in moves[parity]:
            x |= (frontier & mask) << d
        frontier = (x | (x >> n)) & unseen
        if not frontier:
            break
        unseen ^= frontier
        levels.append(frontier)
        parity ^= 1
    return levels


def _members(bits: int):
    """The vertices of a bit set, in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def mark_out_and_back(n: int, b2: int, j: int, t: int, g: int,
                      moves: tuple[list, list], balls: list[int]) -> bool:
    """Layer 2b: whether a short out-and-back walk rejects every far end of class t.

    x and t share a class and y = j + t - x shares j's, so l1 and l2 are
    even and at least 2: l1 + l2 <= g-3 means l1 <= g-6 and l2 <= g-4-l1.
    When b >= 2 both are at least 4 (module docstring), so l1 <= g-8.
    Rotation by x - t, a multiple of 2b, maps G to itself, y to j and j to
    j + x - t, so D(y) = D(j + x - t): one rotation by j - t moves every
    class-t vertex of a level to the vertex whose distance from j to read.
    moves is G's move table, and balls[k] the set of vertices within k of j.
    """
    mask = _class_masks(n, b2)[t]
    from_t = level_sets(n, moves, t, g - 6 if b2 == 2 else g - 8)
    shift = (j - t) % n
    last = len(balls) - 1
    for l1 in range(2, len(from_t), 2):
        xs = from_t[l1] & mask
        if xs and ((xs << shift) | (xs >> (n - shift))) & balls[min(g - 4 - l1, last)]:
            return True
    return False


def mark_same_direction(n: int, b2: int, j: int, t: int, g: int, levels: list[int]) -> int:
    """Layer 2a: far ends q of class t with 2q = x1 + x2, D(x1) + D(x2) <= g-3, as a bit set.

    Class t is at odd distance from j, so only odd levels below g-3 hold
    an x1 or x2; near lists them by distance, then by vertex.
    """
    limit = g - 3
    mask = _class_masks(n, b2)[t]
    near = [(d, x) for d in range(1, min(limit, len(levels)), 2)
            for x in _members(levels[d] & mask)]
    half = n // 2
    marks = 0
    for i, (d1, x1) in enumerate(near):
        for d2, x2 in near[i:]:
            if d1 + d2 > limit:
                break
            q = (x1 + x2) // 2
            if q % b2 == t:
                marks |= 1 << q
            q = (q + half) % n
            if q % b2 == t:
                marks |= 1 << q
    return marks


def node_filter(n: int, b2: int, offsets: list[int], j: int, g: int) -> int:
    """The far ends the filters reject at the node whose frontier is j, as a bit set.

    offsets is the node's own table, with j unassigned.  Layer 1 is the
    ball of the vertices within g-3 of j, so bit (j + d) mod n rejects
    candidate d: a far end is at odd distance, so that ball holds every far
    end within g-2.  Every open class t of the other parity that still has
    a vertex outside the ball adds its layer-2 marks: the whole class when
    an out-and-back walk exists, and its same-direction marks otherwise.
    The node's BFSes share one move table, and its out-and-back walks one
    list of cumulative balls around j.
    """
    moves = _moves(n, b2, offsets)
    levels = level_sets(n, moves, j, g - 3)
    balls = list(accumulate(levels, or_))
    ends = ball = balls[-1]
    masks = _class_masks(n, b2)
    for t in range(~j & 1, b2, 2):
        if offsets[t] >= 0 or not masks[t] & ~ball:
            continue
        if mark_out_and_back(n, b2, j, t, g, moves, balls):
            ends |= masks[t]
        else:
            ends |= mark_same_direction(n, b2, j, t, g, levels)
    return ends


def has_girth_at_least(n: int, b2: int, offsets: list[int], g: int) -> bool:
    """Reference pruning predicate over the edges forced by a partial offset table.

    offsets is the kernel's table: 2b entries, -1 for an unassigned class.
    False exactly when the Hamiltonian cycle of order n plus the chords of
    the assigned classes already contain a cycle shorter than g; a prefix of
    any pattern whose completion has girth >= g therefore always passes.
    Monotone: once False, every extension and every larger g stays False.
    The graph is built explicitly and searched by the oracle's BFS from the
    2b class representatives only: rotation by 2b maps the graph to itself,
    so every cycle has a rotated copy whose least vertex is one of them, as
    the module docstring describes.
    """
    if g <= 3:
        return True
    adj = []
    for u in range(n):
        nbrs = [(u - 1) % n, (u + 1) % n]
        d = offsets[u % b2]
        if d >= 0:
            nbrs.append((u + d) % n)
        adj.append(nbrs)
    return _shortest_cycle(adj, range(b2), g - 1).value is None
