"""The per-node filters and the kernel against the plain reference predicate.

The kernel decides each candidate with the node's filter marks and, for the
candidates they leave open, the exact chord BFS.  Here every decision at a
node is compared with has_girth_at_least on the child assignment, which
builds the graph explicitly, and every far end each filter rule marks is
checked to be one the exact BFS rejects on its own.
"""

import random

import pytest

from hbgsearch import has_girth_at_least, search
from hbgsearch.girth import (
    chord_cycle_shorter_than,
    frontier_ball,
    mark_out_and_back,
    mark_same_direction,
)
from hbgsearch.search import candidate_values, partial_assignment

# (g, b, n) up to the criterion-3 range; every n is even with b | n/2
DIFFERENTIAL_CASES = [
    (6, 1, 14), (8, 3, 30), (8, 3, 42), (10, 2, 40), (10, 5, 70), (12, 4, 104),
    (12, 6, 132), (14, 3, 258), (14, 7, 266), (14, 4, 312), (14, 3, 384), (14, 8, 384),
]


def _table(offsets):
    return [None if d < 0 else d for d in offsets]


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
            if has_girth_at_least(partial_assignment(n // 2, b, _table(offs)), g):
                break
            offs[j] = offs[t] = -1
        else:
            break  # every candidate closes a short cycle: stop at this node
    return offs


def kernel_decisions(monkeypatch, g, b, n, offs):
    """[(child offsets, rejected, by_marks)] for every predicate call at the node."""
    j = offs.index(-1)
    calls = []

    def record(n_, b2, offsets, rep, g_, ends=None):
        if rep != j:
            return True  # a grandchild: this test looks at one node only
        q = (rep + offsets[rep % b2]) % n_
        rejected = chord_cycle_shorter_than(n_, b2, offsets, rep, g_, ends)
        calls.append((list(offsets), rejected, bool(ends[q])))
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
                expected = has_girth_at_least(partial_assignment(n // 2, b, _table(child)), g)
                assert rejected != expected, (g, b, n, child)
                tally["accept" if not rejected else "marks" if by_marks else "exact reject"] += 1
    # the comparison reached all three kinds of decision
    assert min(tally.values()) > 0, tally


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
            if not chord_cycle_shorter_than(n, b2, offs, j, g):
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
        ball, dist = frontier_ball(n, b2, offs, j, g)
        rules = {"layer 1": ball}
        for t in range(b2):
            if offs[t] >= 0 or (t - j) % 2 == 0:
                continue
            rules.setdefault("layer 2b", bytearray(n))
            rules.setdefault("layer 2a", bytearray(n))
            mark_out_and_back(rules["layer 2b"], n, b2, offs, j, t, g, dist)
            mark_same_direction(rules["layer 2a"], n, b2, j, t, g, dist)
        for rule, ends in rules.items():
            for q in range(n):
                d, t = (q - j) % n, q % b2
                if not ends[q] or d not in cand or offs[t] >= 0:
                    continue
                child = list(offs)
                child[j], child[t] = d, n - d
                assert chord_cycle_shorter_than(n, b2, child, j, g), (rule, child)
                marked[rule] += 1
    assert marked["layer 1"] > 0, marked
