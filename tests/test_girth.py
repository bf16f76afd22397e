import random

import pytest

from hbgsearch import (
    GirthResult,
    expand,
    girth_oracle,
    has_girth_at_least,
)
from hbgsearch.girth import _shortest_cycle

from helpers import assignment_prefix, edge_removal_girth, girth_fast, random_pattern


class TestOracle:
    def test_k33(self, k33):
        assert girth_oracle(expand(k33), 20) == GirthResult(4, 20)

    def test_heawood(self, heawood):
        assert girth_oracle(expand(heawood), 20) == GirthResult(6, 20)

    def test_tutte_coxeter(self, tutte_coxeter):
        assert girth_oracle(expand(tutte_coxeter), 20) == GirthResult(8, 20)

    def test_exceeds_cap_marker(self, heawood):
        r = girth_oracle(expand(heawood), 4)
        assert r.value is None and r.cap == 4
        assert girth_oracle(expand(heawood), 5).value is None
        assert girth_oracle(expand(heawood), 6).value == 6

    def test_cap_below_three_rejected(self, k33):
        with pytest.raises(ValueError):
            girth_oracle(expand(k33), 2)


class TestFastEquivalence:
    def test_examples(self, k33, heawood, tutte_coxeter):
        for p in (k33, heawood, tutte_coxeter):
            for cap in (3, 4, 6, 8, 20):
                assert girth_fast(p, cap) == girth_oracle(expand(p), cap)

    def test_random_property(self, rng):
        for _ in range(150):
            p = random_pattern(rng, max_m=30)
            cap = rng.randrange(3, 21)
            assert girth_fast(p, cap) == girth_oracle(expand(p), cap), p

    def test_measured_girth_even_and_bounded(self, rng):
        for _ in range(100):
            p = random_pattern(rng, max_m=25)
            v = girth_fast(p, 2 * p.m).value
            assert v is not None and v % 2 == 0 and 4 <= v <= 2 * p.m


def test_oracle_against_networkx_when_available(rng):
    networkx = pytest.importorskip("networkx")
    for _ in range(30):
        p = random_pattern(rng, max_m=20)
        g = expand(p)
        G = networkx.Graph()
        for i, nbrs in enumerate(g.adjacency):
            for v in nbrs:
                G.add_edge(i, v)
        assert girth_oracle(g, g.order).value == networkx.girth(G)


def _random_graph(rng, n: int) -> list[list[int]]:
    """A simple graph on n vertices, maximum degree 4: a disjoint union of
    random trees, cycles with a few chords, and denser random parts."""
    adj: list[list[int]] = [[] for _ in range(n)]

    def add(u, v):
        if u != v and v not in adj[u] and len(adj[u]) < 4 and len(adj[v]) < 4:
            adj[u].append(v)
            adj[v].append(u)

    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randrange(min(3, n))))
    for part in (order[i:j] for i, j in zip([0] + cuts, cuts + [n])):
        kind = rng.choice(("tree", "cycle", "dense"))
        if kind == "cycle" and len(part) >= 3:
            for i, u in enumerate(part):
                add(u, part[i - 1])
        else:
            for i in range(1, len(part)):
                add(part[i], part[rng.randrange(i)])
        if kind != "tree":
            for _ in range(rng.randrange(2 * len(part) if kind == "dense" else 3)):
                add(rng.choice(part), rng.choice(part))
    for nbrs in adj:
        rng.shuffle(nbrs)
    return adj


def _connected(adj) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adj)


def test_stop_rule_against_edge_removal_reference():
    """The oracle's BFS on graphs that are not patterns, at every cap 3..n+1.

    Patterns are bipartite, so every cycle in them is even; odd girths here
    catch a BFS that stops one level too early.
    """
    rng = random.Random(1978)
    seen = set()
    for _ in range(2000):
        n = rng.randrange(3, 15)
        adj = _random_graph(rng, n)
        girth = edge_removal_girth(adj)
        for cap in range(3, n + 2):
            want = girth if girth is not None and girth <= cap else None
            assert _shortest_cycle(adj, range(n), cap) == GirthResult(want, cap), (adj, cap)
        seen.add("forest" if girth is None else "odd girth" if girth % 2 else "even girth")
        seen.add("connected" if _connected(adj) else "disconnected")
        seen.update(f"degree {len(nbrs)}" for nbrs in adj)
    assert seen >= {"forest", "odd girth", "even girth", "connected", "disconnected",
                    "degree 1", "degree 2", "degree 3", "degree 4"}
    kinds = set()
    for _ in range(300):
        for kind, adj in _parity_cases(rng):
            n = len(adj)
            girth = edge_removal_girth(adj)
            for cap in range(3, n + 2):
                want = girth if girth is not None and girth <= cap else None
                assert _shortest_cycle(adj, range(n), cap) == GirthResult(want, cap), (adj, cap)
            kinds.add(kind)
            kinds.add("parity stop" if _labels_alternate(adj) else "generic stop")
            kinds.add("forest" if girth is None else "odd girth" if girth % 2 else "even girth")
    assert kinds == {"pattern", "same-parity edge", "loop", "bipartite, labels not alternating",
                     "parity stop", "generic stop", "forest", "odd girth", "even girth"}


def _labels_alternate(adj) -> bool:
    """Whether every edge joins an even and an odd label: the oracle's parity stop."""
    return all((u - v) % 2 for u, nbrs in enumerate(adj) for v in nbrs)


def _parity_cases(rng):
    """A pattern graph, which takes the oracle's parity stop, and graphs that
    keep the generic stop: the same graph plus one edge between two labels
    of the same parity, the same graph plus a loop, and a bipartite graph
    one of whose edges joins two labels of the same parity."""
    p = random_pattern(rng, max_m=8)
    n = p.order
    adj = [list(nbrs) for nbrs in expand(p).adjacency]
    yield "pattern", adj
    u = rng.randrange(n)
    v = rng.choice([x for x in range(u % 2, n, 2) if x != u])
    extra = [nbrs[:] for nbrs in adj]
    extra[u].append(v)
    extra[v].append(u)
    yield "same-parity edge", extra
    looped = [nbrs[:] for nbrs in adj]
    looped[u].append(u)
    yield "loop", looped
    yield "bipartite, labels not alternating", _bipartite_graph(rng, n)


def _bipartite_graph(rng, n: int) -> list[list[int]]:
    """A simple graph with sides that are not the label parities: its first
    edge joins two labels of the same parity, and every edge crosses sides."""
    u, v = rng.sample(range(rng.randrange(2), n, 2), 2)
    side = [rng.randrange(2) for _ in range(n)]
    side[u], side[v] = 0, 1
    adj: list[list[int]] = [[] for _ in range(n)]
    adj[u].append(v)
    adj[v].append(u)
    for _ in range(rng.randrange(2 * n)):
        x, y = rng.randrange(n), rng.randrange(n)
        if side[x] != side[y] and y not in adj[x] and len(adj[x]) < 4 and len(adj[y]) < 4:
            adj[x].append(y)
            adj[y].append(x)
    for nbrs in adj:
        rng.shuffle(nbrs)
    return adj


def _rotation_invariant_graph(rng, n: int, b2: int) -> list[list[int]]:
    """The n-cycle plus one chord orbit for some classes mod b2.

    Class c with offset d adds the edge {i, i + d} for every i = c (mod b2),
    so rotation by b2 maps the graph to itself.  Offsets of either parity
    (an even one closes odd cycles), 0 (a loop) and +-1 (a doubled cycle
    edge) all occur, and a class with no offset leaves vertices of degree 2
    unless another orbit reaches them.
    """
    adj = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
    for c in range(b2):
        if rng.random() < 0.5:
            continue
        d = rng.randrange(2, n - 1) if rng.random() < 0.9 else rng.choice((0, 1, n - 1))
        for i in range(c, n, b2):
            v = (i + d) % n
            adj[i].append(v)
            if v != i:
                adj[v].append(i)
    for nbrs in adj:
        rng.shuffle(nbrs)
    return adj


def test_least_vertex_rule_under_rotation():
    """Roots 0..b2-1 see every cycle of a graph that rotation by b2 preserves.

    Each root's BFS walks only vertices at or above it.  Shifting a cycle
    by a multiple of b2 puts its least vertex among the roots without
    wrapping, so the shifted cycle lies at or above that root.
    """
    rng = random.Random(2 * 1978)
    seen = set()
    for _ in range(1500):
        b2 = 2 * rng.randrange(1, 5)
        n = b2 * rng.randrange(2 if b2 == 2 else 1, 30 // b2 + 1)
        adj = _rotation_invariant_graph(rng, n, b2)
        girth = edge_removal_girth(adj)
        for cap in range(3, n + 2):
            want = GirthResult(girth if girth <= cap else None, cap)
            assert _shortest_cycle(adj, range(b2), cap) == want, (adj, b2, cap)
            assert _shortest_cycle(adj, range(n), cap) == want, (adj, cap)
        seen.add("loop" if girth == 1 else "doubled edge" if girth == 2
                 else "odd girth" if girth % 2 else "even girth")
        seen.update(f"degree {len(nbrs)}" for nbrs in adj)
    assert seen >= {"loop", "doubled edge", "odd girth", "even girth",
                    "degree 2", "degree 3", "degree 4"}
    for _ in range(150):  # pattern graphs: the parity stop
        p = random_pattern(rng, max_m=15)
        adj = expand(p).adjacency
        girth = edge_removal_girth(adj)
        for cap in range(3, p.order + 1):
            want = GirthResult(girth if girth <= cap else None, cap)
            assert _shortest_cycle(adj, range(p.positions), cap) == want, (p, cap)
            assert _shortest_cycle(adj, range(p.order), cap) == want, (p, cap)


class TestPruningPredicate:
    def test_empty_assignment(self):
        empty = [-1] * 4
        assert has_girth_at_least(20, 4, empty, 20)       # any g <= n
        assert not has_girth_at_least(20, 4, empty, 22)   # the bare cycle is a 20-cycle

    def test_small_offset_closes_short_cycle(self):
        # a chord of offset 3 plus three cycle edges is a 4-cycle
        table = [3, 57]
        assert not has_girth_at_least(60, 2, table, 8)
        assert has_girth_at_least(60, 2, table, 4)

    def test_heawood_prefix_replay(self, heawood):
        for pairs in range(0, heawood.b + 1):
            assert has_girth_at_least(*assignment_prefix(heawood, pairs), 6)

    def test_tutte_coxeter_prefix_replay(self, tutte_coxeter):
        for pairs in range(0, tutte_coxeter.b + 1):
            assert has_girth_at_least(*assignment_prefix(tutte_coxeter, pairs), 8)

    def test_full_assignment_matches_measured_girth(self, rng):
        for _ in range(60):
            p = random_pattern(rng, max_m=20)
            full = assignment_prefix(p, p.b)
            v = girth_fast(p, p.order).value
            assert has_girth_at_least(*full, v)
            assert not has_girth_at_least(*full, v + 1)

    def test_monotone_in_g_and_under_extension(self, rng):
        for _ in range(60):
            p = random_pattern(rng, max_m=20)
            cut = rng.randrange(0, p.b + 1)
            prefix = assignment_prefix(p, cut)
            for g in range(4, 2 * p.m + 3, 2):
                ok = has_girth_at_least(*prefix, g)
                if not ok:
                    # every extension of the prefix must also fail
                    for pairs in range(cut, p.b + 1):
                        assert not has_girth_at_least(*assignment_prefix(p, pairs), g)
                    # and every larger girth target too
                    assert not has_girth_at_least(*prefix, g + 2)
                    break

    def test_never_false_on_prefix_of_good_completion(self, rng):
        for _ in range(60):
            p = random_pattern(rng, max_m=20)
            v = girth_fast(p, p.order).value
            for pairs in range(0, p.b + 1):
                assert has_girth_at_least(*assignment_prefix(p, pairs), v)
