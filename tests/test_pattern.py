import pytest

from hbgsearch import (
    DegenerateChordError,
    DivisibilityError,
    ExpandedGraph,
    LengthError,
    MatchingError,
    ParityError,
    RangeError,
    canonical_form,
    derived_symmetry_factors,
    expand,
    expansion_defects,
    validate_pattern,
)
from hbgsearch.pattern import minimal_position_period

from helpers import (
    PatternTransform,
    apply_transform,
    canonical_group,
    compose_transforms,
    girth_fast,
    random_pattern,
)


class TestValidate:
    def test_k33(self, k33):
        assert k33.offsets == (3, 3)
        assert k33.order == 6

    def test_heawood_normalizes_signed_offsets(self):
        p = validate_pattern(7, 1, [5, -5])
        assert p.offsets == (5, 9)

    def test_parity_error(self):
        with pytest.raises(ParityError):
            validate_pattern(7, 1, [4, 10])

    def test_divisibility_error(self):
        with pytest.raises(DivisibilityError):
            validate_pattern(8, 3, [3] * 6)

    def test_length_error(self):
        with pytest.raises(LengthError):
            validate_pattern(7, 1, [5, 9, 5])

    def test_degenerate_zero(self):
        with pytest.raises(DegenerateChordError):
            validate_pattern(7, 1, [14, 14])

    def test_degenerate_cycle_duplicate(self):
        with pytest.raises(DegenerateChordError):
            validate_pattern(7, 1, [1, 13])
        with pytest.raises(DegenerateChordError):
            validate_pattern(7, 1, [13, 1])

    def test_matching_error_reports_pair(self):
        with pytest.raises(MatchingError) as exc:
            validate_pattern(7, 1, [5, 5])
        assert "positions 1 and 2" in str(exc.value)

    def test_range_error_below_m3(self):
        with pytest.raises(RangeError):
            validate_pattern(2, 1, [3, 3])
        with pytest.raises(RangeError):
            validate_pattern(7, 0, [])

    def test_tutte_coxeter_lcf_normalization(self, tutte_coxeter):
        assert tutte_coxeter.offsets == (17, 21, 7, 23, 9, 13)

    def test_self_paired_midpoint_offset(self):
        # odd m allows the offset m, a single chord seen from both ends
        p = validate_pattern(9, 1, [9, 9])
        assert not expansion_defects(expand(p))


class TestExpand:
    def test_k33_counts(self, k33):
        g = expand(k33)
        assert g.order == 6
        assert len({frozenset((i, v)) for i, nbrs in enumerate(g.adjacency) for v in nbrs}) == 9
        assert all(len(set(nbrs)) == 3 for nbrs in g.adjacency)

    def test_heawood_counts(self, heawood):
        g = expand(heawood)
        edges = {frozenset((i, v)) for i, nbrs in enumerate(g.adjacency) for v in nbrs}
        assert g.order == 14 and len(edges) == 21

    def test_invariants_on_examples(self, k33, heawood, tutte_coxeter):
        for p in (k33, heawood, tutte_coxeter):
            assert expansion_defects(expand(p)) == []

    def test_invariants_on_random_patterns(self, rng):
        for _ in range(40):
            p = random_pattern(rng, max_m=24)
            assert expansion_defects(expand(p)) == []

    def test_chord_involution_closure_equivalence(self, rng):
        # closure holds exactly when the raw chord relation i -> i + d(i)
        # hands every vertex one non-cycle edge (a fixed-point-free pairing);
        # random raw sequences exercise both directions
        for _ in range(400):
            m = rng.randrange(3, 15)
            b = rng.choice([d for d in range(1, m + 1) if m % d == 0])
            n, b2 = 2 * m, 2 * b
            # odd, non-degenerate entries so only closure can fail
            seq = [rng.choice(range(3, n - 2, 2)) for _ in range(b2)]
            try:
                validate_pattern(m, b, seq)
                valid = True
            except MatchingError:
                valid = False
            chord = [(i + seq[i % b2]) % n for i in range(n)]
            pairs_up = all(chord[chord[i]] == i and chord[i] != i for i in range(n))
            assert valid == pairs_up, (m, b, seq)

    def test_expansion_chord_map_is_involution(self, rng):
        for _ in range(100):
            p = random_pattern(rng, max_m=16)
            g = expand(p)
            for i, (_, _, chord) in enumerate(g.adjacency):
                assert g.adjacency[chord][2] == i


def _edited(graph: ExpandedGraph, rows: dict[int, tuple[int, ...]]) -> ExpandedGraph:
    """The graph with the given 0-based adjacency rows replaced."""
    adj = list(graph.adjacency)
    for i, row in rows.items():
        adj[i] = row
    return ExpandedGraph(order=graph.order, adjacency=tuple(adj))


def _cycle_plus(n: int, chords) -> ExpandedGraph:
    """The labelled n-cycle plus the given chords, each listed from both ends."""
    adj = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
    for u, v in chords:
        adj[u].append(v)
        adj[v].append(u)
    return ExpandedGraph(order=n, adjacency=tuple(map(tuple, adj)))


_K33 = expand(validate_pattern(3, 1, [3, 3]))
_HEAWOOD = expand(validate_pattern(7, 1, [5, 9]))  # chords i+5 (i even), i+9 (i odd), n=14
_CUBE = expand(validate_pattern(4, 1, [3, 5]))     # chords 0-3, 1-6, 2-5, 4-7


@pytest.mark.parametrize("graph, defects", [
    pytest.param(ExpandedGraph(order=7, adjacency=_K33.adjacency + ((5, 0, 3),)),
                 ["order 7 is not an even integer >= 6"], id="odd-order"),
    pytest.param(ExpandedGraph(order=6, adjacency=_K33.adjacency[:5]),
                 ["adjacency has 5 rows for order 6"], id="row-count"),
    pytest.param(_edited(_HEAWOOD, {0: (13, 1)}),
                 ["vertex 1 has degree 2",
                  "edge 1-2 seen from 1 endpoint(s), expected 2",
                  "edge 1-6 seen from 1 endpoint(s), expected 2",
                  "edge 1-14 seen from 1 endpoint(s), expected 2"], id="degree-2"),
    pytest.param(_edited(_HEAWOOD, {0: (13, 1, 1)}),
                 ["vertex 1 has a repeated neighbour (parallel edge)",
                  "edge 1-2 seen from 3 endpoint(s), expected 2",
                  "edge 1-6 seen from 1 endpoint(s), expected 2"], id="repeated-neighbour"),
    pytest.param(_edited(_HEAWOOD, {0: (13, 1, 0)}),
                 ["vertex 1 has a loop",
                  "edge 1-1 seen from 1 endpoint(s), expected 2",
                  "edge 1-1 joins two same-parity vertices",
                  "edge 1-6 seen from 1 endpoint(s), expected 2"], id="loop"),
    # edges are reported in the order their keys were first met: 1-8 from
    # vertex 1 comes before 1-6, which only vertex 6 lists
    pytest.param(_edited(_HEAWOOD, {0: (13, 1, 7)}),
                 ["edge 1-8 seen from 1 endpoint(s), expected 2",
                  "edge 1-6 seen from 1 endpoint(s), expected 2"], id="one-sided-edge"),
    pytest.param(_cycle_plus(10, [(0, 2), (5, 7), (1, 4), (3, 8), (6, 9)]),
                 ["edge 1-3 joins two same-parity vertices",
                  "edge 6-8 joins two same-parity vertices"], id="same-parity-edge"),
    # cycle edges 0-1 and 4-5 swapped for 0-5 and 1-4: still 3-regular and bipartite
    pytest.param(_edited(_CUBE, {0: (7, 5, 3), 1: (4, 2, 6), 4: (3, 1, 7), 5: (0, 6, 2)}),
                 ["Hamiltonian cycle edge 1-2 missing",
                  "Hamiltonian cycle edge 5-6 missing"], id="missing-cycle-edge"),
])
def test_expansion_defects_lists_every_fault_in_order(graph, defects):
    assert expansion_defects(graph) == defects


class TestDerivedFactors:
    def test_k33(self, k33):
        assert derived_symmetry_factors(k33) == {1, 3}

    def test_heawood(self, heawood):
        assert derived_symmetry_factors(heawood) == {1, 7}

    def test_tutte_coxeter_period_is_computed(self, tutte_coxeter):
        assert minimal_position_period(tutte_coxeter.offsets) == 6
        assert derived_symmetry_factors(tutte_coxeter) == {3, 15}

    def test_recorded_b_always_included(self, rng):
        for _ in range(60):
            p = random_pattern(rng, max_m=20)
            facs = derived_symmetry_factors(p)
            assert p.b in facs and p.m in facs

    def test_observation_properties(self, rng):
        # contains m; upward closed into divisors of m; downward empty
        for _ in range(120):
            p = random_pattern(rng, max_m=24)
            facs = derived_symmetry_factors(p)
            m = p.m
            assert m in facs
            for bp in facs:
                a = 2
                while a * bp <= m:
                    if m % (a * bp) == 0:
                        assert a * bp in facs
                    a += 1
            absent = [d for d in range(1, m + 1) if m % d == 0 and d not in facs]
            for bp in absent:
                for d in range(1, bp + 1):
                    if bp % d == 0:
                        assert d not in facs

    def test_padded_pattern_keeps_small_period(self):
        # same offsets written with a larger recorded b
        small = validate_pattern(7, 1, [5, 9])
        padded = validate_pattern(7, 7, [5, 9] * 7)
        assert derived_symmetry_factors(small) == derived_symmetry_factors(padded) == {1, 7}


class TestCanonical:
    def test_shifted_heawood(self):
        p = validate_pattern(7, 1, [9, 5])
        assert canonical_form(p).offsets == (5, 9)

    def test_k33_fixed_point(self, k33):
        assert canonical_form(k33) is k33

    def test_idempotent(self, rng):
        for _ in range(80):
            p = random_pattern(rng, max_m=20)
            c1 = canonical_form(p)
            assert canonical_form(c1).offsets == c1.offsets

    def test_canonical_is_orbit_minimum(self, rng):
        seen = set()
        for _ in range(1200):
            p = random_pattern(rng, max_m=16)
            images = [apply_transform(t, p).offsets for t in canonical_group(p.b)]
            canon = canonical_form(p)
            assert canon.offsets == min(images), p
            # built without revalidation, so check it is a valid pattern
            assert validate_pattern(p.m, p.b, canon.offsets) == canon, p
            reflected = images[p.b:]
            seen.add(f"b={p.b}" if p.b <= 2 else "b>=3")
            if p.offsets in reflected:
                seen.add("fixed by a reflection, b=1" if p.b == 1 else
                         "fixed by a reflection, b>=2")
        assert seen == {"b=1", "b=2", "b>=3",
                        "fixed by a reflection, b=1", "fixed by a reflection, b>=2"}

    def test_transforms_preserve_validity_girth_factors(self, rng):
        for _ in range(40):
            p = random_pattern(rng, max_m=16)
            cap = p.order
            g0 = girth_fast(p, cap)
            f0 = derived_symmetry_factors(p)
            for t in canonical_group(p.b):
                q = apply_transform(t, p)  # revalidates internally
                assert girth_fast(q, cap) == g0
                assert derived_symmetry_factors(q) == f0

    def test_canonical_preserves_girth(self, rng):
        for _ in range(40):
            p = random_pattern(rng, max_m=20)
            assert girth_fast(canonical_form(p), p.order) == girth_fast(p, p.order)

    def test_compose_matches_sequential_application(self, rng):
        for _ in range(30):
            p = random_pattern(rng, max_m=12)
            group = canonical_group(p.b)
            t1 = rng.choice(group)
            t2 = rng.choice(group)
            seq = apply_transform(t1, apply_transform(t2, p))
            combined = apply_transform(compose_transforms(t1, t2), p)
            assert seq.offsets == combined.offsets

    def test_odd_shift_rejected(self):
        with pytest.raises(ValueError):
            PatternTransform(shift=1)

    def test_orbit_members_expand_isomorphic(self, rng):
        networkx = pytest.importorskip("networkx")

        def as_nx(pattern):
            g = expand(pattern)
            G = networkx.Graph()
            for i, nbrs in enumerate(g.adjacency):
                for v in nbrs:
                    G.add_edge(i, v)
            return G

        for _ in range(10):
            p = random_pattern(rng, max_m=10)
            base = as_nx(p)
            for t in canonical_group(p.b):
                q = apply_transform(t, p)
                assert networkx.is_isomorphic(base, as_nx(q))
