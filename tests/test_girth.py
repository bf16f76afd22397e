import random

import pytest

from hbgsearch import (
    GirthResult,
    expand,
    girth_fast,
    girth_oracle,
    has_girth_at_least,
)
from hbgsearch.girth import _shortest_cycle
from hbgsearch.search import partial_assignment

from helpers import assignment_prefix, edge_removal_girth, random_pattern


class TestOracle:
    def test_k33(self, k33):
        assert girth_oracle(expand(k33), 20) == GirthResult(4, 20)

    def test_heawood(self, heawood):
        assert girth_oracle(expand(heawood), 20) == GirthResult(6, 20)

    def test_tutte_coxeter(self, tutte_coxeter):
        assert girth_oracle(expand(tutte_coxeter), 20) == GirthResult(8, 20)

    def test_exceeds_cap_marker(self, heawood):
        r = girth_oracle(expand(heawood), 4)
        assert r.value is None and r.cap == 4 and r.exceeds_cap
        assert girth_oracle(expand(heawood), 5).value is None
        assert girth_oracle(expand(heawood), 6).value == 6

    def test_cap_below_three_rejected(self, k33):
        with pytest.raises(ValueError):
            girth_oracle(expand(k33), 2)

    def test_at_least_helper(self):
        assert GirthResult(6, 20).at_least(6)
        assert not GirthResult(6, 20).at_least(8)
        assert GirthResult(None, 13).at_least(14)
        assert not GirthResult(None, 10).at_least(14)


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


class TestPruningPredicate:
    def test_empty_assignment(self):
        empty = partial_assignment(10, 2, [None] * 4)
        assert has_girth_at_least(empty, 20)       # any g <= 2m
        assert has_girth_at_least(empty, 2 * 10)
        assert not has_girth_at_least(empty, 22)   # the bare cycle is a 20-cycle

    def test_small_offset_closes_short_cycle(self):
        # a chord of offset 3 plus three cycle edges is a 4-cycle
        pa = partial_assignment(30, 1, [3, 57])
        assert not has_girth_at_least(pa, 8)
        assert has_girth_at_least(pa, 4)

    def test_heawood_prefix_replay(self, heawood):
        for pairs in range(0, heawood.b + 1):
            pa = assignment_prefix(heawood, pairs)
            assert has_girth_at_least(pa, 6)

    def test_tutte_coxeter_prefix_replay(self, tutte_coxeter):
        for pairs in range(0, tutte_coxeter.b + 1):
            pa = assignment_prefix(tutte_coxeter, pairs)
            assert has_girth_at_least(pa, 8)

    def test_full_assignment_matches_measured_girth(self, rng):
        for _ in range(60):
            p = random_pattern(rng, max_m=20)
            full = assignment_prefix(p, p.b)
            v = girth_fast(p, p.order).value
            assert has_girth_at_least(full, v)
            assert not has_girth_at_least(full, v + 1)

    def test_monotone_in_g_and_under_extension(self, rng):
        for _ in range(60):
            p = random_pattern(rng, max_m=20)
            cut = rng.randrange(0, p.b + 1)
            pa = assignment_prefix(p, cut)
            for g in range(4, 2 * p.m + 3, 2):
                ok = has_girth_at_least(pa, g)
                if not ok:
                    # every extension of the prefix must also fail
                    for pairs in range(cut, p.b + 1):
                        assert not has_girth_at_least(assignment_prefix(p, pairs), g)
                    # and every larger girth target too
                    assert not has_girth_at_least(pa, g + 2)
                    break

    def test_never_false_on_prefix_of_good_completion(self, rng):
        for _ in range(60):
            p = random_pattern(rng, max_m=20)
            v = girth_fast(p, p.order).value
            for pairs in range(0, p.b + 1):
                assert has_girth_at_least(assignment_prefix(p, pairs), v)


class TestPartialAssignment:
    def test_validates_pairwise_consistency(self):
        with pytest.raises(Exception):
            partial_assignment(7, 1, [5, 5])
        pa = partial_assignment(7, 1, [5, 9])
        assert pa.frontier is None
        pa = partial_assignment(15, 3, [7, 23, None, None, None, None])
        assert pa.frontier == 2

    def test_rejects_half_assigned_pair(self):
        with pytest.raises(Exception):
            partial_assignment(15, 3, [7, None, None, None, None, None])

    def test_rejects_bad_single_offsets(self):
        for bad in (0, 1, 2, 13):
            with pytest.raises(Exception):
                partial_assignment(7, 1, [bad, None])
