"""The per-node filters and the kernel against the plain reference predicate.

The kernel decides each candidate with the node's filter marks and, for the
candidates they leave open, the exact chord BFS.  Here every decision at a
node is compared with has_girth_at_least on the child's table, which
builds the graph explicitly, and every far end each filter rule marks is
checked to be one the exact BFS rejects on its own.  The kernel's bit-set
BFS is checked against the plain per-vertex BFS of the helpers, and each
filter rule is checked to mark everything its definition in girth.py
names, measured with that plain BFS.
"""

import random
from itertools import accumulate
from operator import or_

import pytest

from hbgsearch import has_girth_at_least, search
from hbgsearch.girth import (
    _moves,
    chord_cycle_shorter_than,
    level_sets,
    mark_out_and_back,
    mark_same_direction,
    node_filter,
)
from hbgsearch.search import candidate_values

from helpers import distances_within

# (g, b, n) up to the criterion-3 range; every n is even with b | n/2
DIFFERENTIAL_CASES = [
    (6, 1, 14), (8, 3, 30), (8, 3, 42), (10, 2, 40), (10, 5, 70), (12, 4, 104),
    (12, 6, 132), (14, 3, 258), (14, 7, 266), (14, 4, 312), (14, 3, 384), (14, 8, 384),
]


def random_node(rng, g, b, n):
    """A node the kernel can reach: a random accepted prefix with a frontier left."""
    b2 = 2 * b
    offs = [-1] * b2
    for _ in range(rng.randrange(b)):
        j = offs.index(-1)
        cand = candidate_values(n)
        rng.shuffle(cand)
        for d in cand:
            t = (j + d) % b2
            if offs[t] >= 0:
                continue
            offs[j], offs[t] = d, n - d
            if has_girth_at_least(n, b2, offs, g):
                break
            offs[j] = offs[t] = -1
        else:
            break  # every candidate closes a short cycle: stop at this node
    return offs


def kernel_decisions(monkeypatch, g, b, n, offs):
    """[(child offsets, rejected, by_marks)] for every predicate call at the node."""
    j = offs.index(-1)
    calls = []

    def record(n_, b2, offsets, rep, g_, ends, q):
        if rep != j:
            return True  # a grandchild: this test looks at one node only
        assert q == (rep + offsets[rep % b2]) % n_
        rejected = chord_cycle_shorter_than(n_, b2, offsets, rep, g_, ends, q)
        calls.append((list(offsets), rejected, bool(ends >> q & 1)))
        return rejected

    monkeypatch.setattr(search, "chord_cycle_shorter_than", record)
    kern = search._Kernel(n, b, g, reduction=False, collect="none")
    kern.offsets[:] = offs
    for counter in ("expansions", "conflicts", "girth_rejects", "sym_skips", "nodes", "leaves"):
        setattr(kern, counter, 0)
    kern.witnesses, kern.breached, kern.stop, kern.budget = [], False, False, None
    kern._descend()
    assert len(calls) == sum(offs[(j + d) % (2 * b)] < 0 for d in candidate_values(n))
    return calls


def test_kernel_decisions_equal_the_reference_predicate(monkeypatch):
    rng = random.Random(20161)
    tally = {"accept": 0, "marks": 0, "exact reject": 0}
    for g, b, n in DIFFERENTIAL_CASES:
        for _ in range(3):
            offs = random_node(rng, g, b, n)
            for child, rejected, by_marks in kernel_decisions(monkeypatch, g, b, n, offs):
                expected = has_girth_at_least(n, 2 * b, child, g)
                assert rejected != expected, (g, b, n, child)
                tally["accept" if not rejected else "marks" if by_marks else "exact reject"] += 1
    # the comparison reached all three kinds of decision
    assert min(tally.values()) > 0, tally


def node_balls(n, b2, offs, j, g):
    """The node's move table, j's BFS levels up to g-3 and their cumulative
    balls, as node_filter builds them."""
    moves = _moves(n, b2, offs)
    levels = level_sets(n, moves, j, g - 3)
    return moves, levels, list(accumulate(levels, or_))


def search_nodes(g, b, n, rng, limit):
    """Up to `limit` search nodes with a frontier, by the exact predicate alone."""
    b2 = 2 * b
    offs = [-1] * b2
    nodes = []

    def go():
        if -1 not in offs:
            return
        j = offs.index(-1)
        nodes.append((list(offs), j))
        cand = candidate_values(n)
        rng.shuffle(cand)
        for d in cand:
            if len(nodes) >= limit:
                return
            t = (j + d) % b2
            if offs[t] >= 0:
                continue
            offs[j], offs[t] = d, n - d
            if not chord_cycle_shorter_than(n, b2, offs, j, g, 0, (j + d) % n):
                go()
            offs[j] = offs[t] = -1

    go()
    return nodes


@pytest.mark.parametrize("g, b, n", [(8, 3, 42), (10, 2, 40), (12, 4, 104), (14, 3, 258),
                                     (14, 7, 266)])
def test_every_marked_far_end_is_rejected_by_the_exact_bfs(g, b, n):
    b2 = 2 * b
    cand = set(candidate_values(n))
    marked = {"layer 1": 0, "layer 2a": 0, "layer 2b": 0}
    for offs, j in search_nodes(g, b, n, random.Random(n), limit=60):
        moves, levels, balls = node_balls(n, b2, offs, j, g)
        rules = {"layer 1": balls[-1], "layer 2b": 0, "layer 2a": 0}
        for t in range(b2):
            if offs[t] >= 0 or (t - j) % 2 == 0:
                continue
            if mark_out_and_back(n, b2, j, t, g, moves, balls):
                rules["layer 2b"] |= sum(1 << q for q in range(t, n, b2))
            rules["layer 2a"] |= mark_same_direction(n, b2, j, t, g, levels)
        for rule, ends in rules.items():
            for q in range(n):
                d, t = (q - j) % n, q % b2
                if not ends >> q & 1 or d not in cand or offs[t] >= 0:
                    continue
                child = list(offs)
                child[j], child[t] = d, n - d
                assert chord_cycle_shorter_than(n, b2, child, j, g, 0, q), (rule, child)
                marked[rule] += 1
    assert marked["layer 1"] > 0, marked


def random_table(rng, b, n):
    """A random partial offset table: whole involution pairs, girth ignored."""
    b2 = 2 * b
    offs = [-1] * b2
    cand = candidate_values(n)
    for _ in range(rng.randrange(b + 1)):
        j = rng.choice([k for k in range(b2) if offs[k] < 0])
        d = rng.choice(cand)
        t = (j + d) % b2
        if offs[t] < 0:
            offs[j], offs[t] = d, n - d
    return offs


@pytest.mark.parametrize("g", range(4, 15))
def test_level_sets_equal_the_reference_distances(g):
    rng = random.Random(1000 + g)
    roots = {"assigned": 0, "unassigned": 0}
    for _ in range(12):
        b = rng.randrange(1, 9)
        n = 2 * b * rng.randrange(max(2, 4 // b), 384 // (2 * b) + 1)
        b2 = 2 * b
        offs = random_table(rng, b, n)
        moves = _moves(n, b2, offs)
        root = rng.randrange(n)
        roots["assigned" if offs[root % b2] >= 0 else "unassigned"] += 1
        for depth in (g - 6, g - 3, g - 2):
            ref = distances_within(n, b2, offs, root, depth)
            levels = level_sets(n, moves, root, depth)
            assert len(levels) == max(ref) + 1, (g, b, n, offs, root, depth)
            for k, level in enumerate(levels):
                assert level == sum(1 << x for x in range(n) if ref[x] == k), (k, offs, root)
            for stop in {rng.randrange(n), (root + 1) % n, root}:
                reached = level_sets(n, moves, root, depth, stop)[-1] >> stop & 1
                assert reached == (ref[stop] >= 0), (offs, root, depth, stop)
    # the root's own chord, which is never followed, came up both ways
    assert min(roots.values()) > 0, roots


def test_each_filter_marks_all_its_definition_names():
    seen = {"layer 1 at g-3": 0, "layer 2b": 0, "layer 2b at l1 = g-6 only": 0, "layer 2a": 0}
    # at b=1 the classes of j and t hold j+2 and t+2, so only there can a
    # layer-2b walk need l1 = g-6 (at b >= 2 both l1 and l2 are at least 4)
    for g, b, n in DIFFERENTIAL_CASES + [(8, 1, 20), (10, 1, 30)]:
        check_filter_marks(g, b, n, seen)
    # every rule marked something, and some marks needed the deepest level allowed
    assert min(seen.values()) > 0, seen


def check_filter_marks(g, b, n, seen):
    """Compare each rule's marks at seeded nodes with its definition, in reference distances."""
    b2 = 2 * b
    cand = candidate_values(n)
    for offs, j in search_nodes(g, b, n, random.Random(n + g), limit=40):
        dist = distances_within(n, b2, offs, j, n)
        moves, levels, balls = node_balls(n, b2, offs, j, g)
        ends = balls[-1]
        # layer 1: every valid far end within g-2 of j in G
        for d in cand:
            q = (j + d) % n
            if offs[q % b2] < 0 and dist[q] <= g - 2:
                assert ends >> q & 1, (offs, j, d)
                seen["layer 1 at g-3"] += dist[q] == g - 3
        for t in range(b2):
            if offs[t] >= 0 or (t - j) % 2 == 0:
                continue  # not a partner class of j
            # layer 2b: an out-and-back walk with l1 + l2 <= g-3 marks all of class t
            from_t = distances_within(n, b2, offs, t, n)
            walks = [from_t[x] for x in range(t + b2, n, b2)
                     if from_t[x] + dist[(j + t - x) % n] <= g - 3]
            assert mark_out_and_back(n, b2, j, t, g, moves, balls) == bool(walks), (offs, j, t)
            seen["layer 2b"] += bool(walks)
            seen["layer 2b at l1 = g-6 only"] += bool(walks) and min(walks) == g - 6
            # layer 2a: the marks of a brute-force pass over all pairs x1, x2
            near = [x for x in range(t, n, b2) if dist[x] <= g - 3]
            expected = 0
            for x1 in near:
                for x2 in near:
                    if dist[x1] + dist[x2] <= g - 3:
                        for q in range(t, n, b2):
                            if (2 * q - x1 - x2) % n == 0:
                                expected |= 1 << q
            assert mark_same_direction(n, b2, j, t, g, levels) == expected, (offs, j, t)
            seen["layer 2a"] += bin(expected).count("1")


@pytest.mark.parametrize("g, b, n", [(8, 3, 42), (12, 4, 104), (14, 3, 258), (14, 7, 266)])
def test_exact_check_alone_equals_the_reference_predicate(g, b, n):
    b2 = 2 * b
    rng = random.Random(7 * n + g)
    decided = {True: 0, False: 0}
    for offs, j in search_nodes(g, b, n, rng, limit=12):
        for d in rng.sample(candidate_values(n), 12):
            t = (j + d) % b2
            if offs[t] >= 0:
                continue
            child = list(offs)
            child[j], child[t] = d, n - d
            short = chord_cycle_shorter_than(n, b2, child, j, g, 0, (j + d) % n)
            assert short != has_girth_at_least(n, b2, child, g)
            decided[short] += 1
    assert min(decided.values()) > 0, decided


@pytest.mark.parametrize("g, b, n", [(8, 3, 42), (14, 3, 258), (14, 7, 266)])
def test_node_filter_is_the_ball_and_each_open_partner_class(g, b, n):
    """node_filter ORs layer 1 with the layer-2 marks of every open partner
    class, and marks nothing beyond the ball in any other class."""
    b2 = 2 * b
    seen = {"layer 2 beyond the ball": 0, "taken partner class": 0}
    for offs, j in search_nodes(g, b, n, random.Random(3 * n + g), limit=60):
        moves, levels, balls = node_balls(n, b2, offs, j, g)
        ball = balls[-1]
        expected = ball
        elsewhere = 0  # the classes that are taken or share j's parity
        for t in range(b2):
            whole_class = sum(1 << x for x in range(t, n, b2))
            if offs[t] >= 0 or (t - j) % 2 == 0:
                elsewhere |= whole_class
                seen["taken partner class"] += offs[t] >= 0 and (t - j) % 2 == 1
            elif mark_out_and_back(n, b2, j, t, g, moves, balls):
                expected |= whole_class
            else:
                expected |= mark_same_direction(n, b2, j, t, g, levels)
        ends = node_filter(n, b2, offs, j, g)
        assert ends == expected, (offs, j)
        assert ends & ~ball & elsewhere == 0, (offs, j)
        seen["layer 2 beyond the ball"] += ends != ball
    assert min(seen.values()) > 0, seen
