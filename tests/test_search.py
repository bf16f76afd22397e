import multiprocessing
import os
import pickle
import time

import pytest

from hbgsearch import (
    SearchSpec,
    canonical_form,
    derived_symmetry_factors,
    enumerate_order,
    enumerate_order_sharded,
    expand,
    girth_oracle,
    merge_certificates,
    min_order,
    partition,
    validate_pattern,
)
from hbgsearch import search
from hbgsearch.search import (
    _Budget,
    candidate_values,
    certificate_defects,
    normalize_mode,
    root_values,
)

from helpers import brute_force_canonical_witnesses, brute_force_survey, root_events


def spec_for(g, b, orders, mode="all", **kw):
    return SearchSpec(g=g, b=b, orders=tuple(orders), mode=mode, **kw)


class TestSpec:
    def test_mode_aliases(self):
        assert normalize_mode("first") == "first-witness"
        assert normalize_mode("prove-nonexistence") == "prove-nonexistence"
        with pytest.raises(ValueError):
            normalize_mode("fastest")
        with pytest.raises(ValueError, match="prove-nonexistence$"):
            normalize_mode("count")

    def test_rejects_incompatible_orders(self):
        with pytest.raises(Exception):
            SearchSpec(g=6, b=3, orders=(8,))
        with pytest.raises(ValueError):
            SearchSpec(g=5, b=1, orders=(8,))
        # without an order, no check would ever see b
        with pytest.raises(ValueError, match="at least one order"):
            SearchSpec(g=6, b=0, orders=())

    def test_candidate_and_root_values(self):
        assert candidate_values(14) == [3, 5, 7, 9, 11]
        assert root_values(14, reduction=False) == [3, 5, 7, 9, 11]
        assert root_values(14, reduction=True) == [3, 5, 7]


class TestKnownInstances:
    def test_heawood_first_witness(self):
        oc = enumerate_order(spec_for(6, 1, [14], mode="first"), 14)
        assert oc.status == "witness"
        assert [w.pattern.offsets for w in oc.witnesses] == [(5, 9)]
        assert oc.witnesses[0].measured_girth == 6
        assert oc.certificate.status == "halted-witness"

    def test_order12_nonexistence(self):
        oc = enumerate_order(spec_for(6, 1, [12], mode="prove"), 12)
        assert oc.status == "exhausted"
        assert oc.certificate.covers_order() and oc.certificate.leaves == 0

    def test_tutte_coxeter_found(self, tutte_coxeter):
        oc = enumerate_order(spec_for(8, 3, [30], mode="all"), 30)
        assert oc.status == "witness"
        canon = {w.pattern.offsets for w in oc.witnesses}
        assert canonical_form(tutte_coxeter).offsets in canon
        assert all(w.measured_girth == 8 for w in oc.witnesses)

    def test_min_order_g6(self):
        out = min_order(spec_for(6, 1, range(6, 21, 2), mode="first"))
        assert out.minimal_order == 14
        below = [oc for oc in out.per_order if oc.order < 14]
        assert all(oc.status == "exhausted" and oc.certificate.covers_order()
                   for oc in below)

    def test_min_order_g8_b3(self):
        out = min_order(spec_for(8, 3, range(6, 31, 6), mode="first"))
        assert out.minimal_order == 30

    def test_girth_cap_larger_than_order(self):
        # a girth target above 2m is exhausted without any expansion
        oc = enumerate_order(spec_for(8, 1, [6], mode="prove"), 6)
        assert oc.status == "exhausted" and oc.certificate.expansions == 0

    def test_prove_reports_existence_without_records(self):
        oc = enumerate_order(spec_for(6, 1, [14], mode="prove"), 14)
        assert oc.status == "witness" and oc.witnesses == ()
        assert oc.certificate.leaves == 2

    def test_rejects_bad_root_ranges(self):
        spec = spec_for(6, 1, [14], mode="prove")
        with pytest.raises(ValueError):
            enumerate_order(spec, 14, ranges=[(3, 7), (5, 11)])
        with pytest.raises(ValueError):
            enumerate_order(spec, 14, ranges=[(3, 99)])
        with pytest.raises(ValueError, match="not odd"):
            enumerate_order(spec, 14, ranges=[(4, 9)])
        with pytest.raises(ValueError, match="order 20 is not one of the spec's orders"):
            enumerate_order(spec, 20)


class TestCertificates:
    def test_consistency_counters(self):
        oc = enumerate_order(spec_for(6, 1, [14], mode="prove"), 14)
        c = oc.certificate
        assert certificate_defects(c) == []
        assert c.nodes == c.expansions - c.conflicts - c.girth_rejects - c.sym_skips
        assert c.leaves <= c.nodes

    def test_determinism(self):
        spec = spec_for(8, 3, [30], mode="all")
        a = enumerate_order(spec, 30)
        b = enumerate_order(spec, 30)
        assert a == b

    def test_witness_and_leaf_agreement(self):
        oc = enumerate_order(spec_for(6, 1, [14], mode="all"), 14)
        # two raw leaves ([5,9] and [9,5]) share one canonical form
        assert oc.certificate.leaves == 2
        assert len(oc.witnesses) == 1


class TestPartition:
    def test_single_shard_covers_everything(self):
        spec = spec_for(6, 1, [20], mode="prove")
        roots = root_values(20, False)
        assert partition(spec, 20, 1) == [(roots[0], roots[-1])]

    def test_shard_union_is_disjoint_cover(self):
        spec = spec_for(8, 3, [42], mode="prove")
        roots = root_values(42, False)
        for shards in (1, 2, 3, 7, 100):
            ranges = partition(spec, 42, shards)
            got = [d for lo, hi in ranges for d in roots if lo <= d <= hi]
            assert got == roots

    def test_merge_counts_match_serial(self):
        for mode in ("prove", "all"):
            spec = spec_for(8, 3, [42], mode=mode)
            serial = enumerate_order(spec, 42)
            for shards in (2, 4, 9):
                merged = enumerate_order_sharded(spec, 42, shards)
                assert merged.certificate == serial.certificate
                assert [w.pattern.offsets for w in merged.witnesses] == \
                       [w.pattern.offsets for w in serial.witnesses]

    def test_parallel_processes_match_serial(self):
        spec = spec_for(8, 3, [36], mode="prove")
        serial = enumerate_order(spec, 36)
        merged = enumerate_order_sharded(spec, 36, shards=4, processes=2)
        assert merged.certificate == serial.certificate

    def test_first_witness_winner_shard_invariant(self):
        spec = spec_for(8, 3, [30], mode="first")
        serial = enumerate_order(spec, 30)
        for shards in (2, 5):
            merged = enumerate_order_sharded(spec, 30, shards)
            assert [w.pattern.offsets for w in merged.witnesses] == \
                   [w.pattern.offsets for w in serial.witnesses]

    def test_merge_rejects_overlap(self):
        spec = spec_for(6, 1, [14], mode="prove")
        a = enumerate_order(spec, 14, ranges=[(3, 7)])
        with pytest.raises(ValueError):
            merge_certificates([a.certificate, a.certificate])


class TestBudget:
    def test_budget_breach_is_resumable_and_stitchable(self):
        spec = spec_for(14, 3, [258], mode="prove", node_budget=4000)
        partial = enumerate_order(spec, 258)
        assert partial.status == "undecided"
        assert partial.certificate.status == "budget-exceeded"
        assert partial.pending
        full_spec = spec_for(14, 3, [258], mode="prove")
        rest = enumerate_order(full_spec, 258, ranges=list(partial.pending))
        stitched = merge_certificates([partial.certificate, rest.certificate])
        direct = enumerate_order(full_spec, 258)
        assert stitched == direct.certificate

    @pytest.mark.parametrize("g, b, order", [(10, 4, 80), (8, 3, 42), (14, 3, 258),
                                             (10, 2, 40)])
    @pytest.mark.parametrize("mode", ["first", "all", "prove"])
    def test_every_resume_chain_merges_to_the_uninterrupted_certificate(self, g, b, order,
                                                                        mode):
        """Breach, then resume the pending ranges until none is left; a step
        after one that covered nothing runs with no budget.  The merged
        certificate is the uninterrupted one, a first-witness halt included."""
        unbudgeted = spec_for(g, b, [order], mode=mode)
        direct = enumerate_order(unbudgeted, order).certificate
        for node_budget in (1, 3, 10, 50, 200, 1000, 4000):
            spec = spec_for(g, b, [order], mode=mode, node_budget=node_budget)
            oc = enumerate_order(spec, order)
            certs = [oc.certificate]
            while oc.pending:
                step = spec if oc.certificate.covered else unbudgeted
                oc = enumerate_order(step, order, ranges=list(oc.pending))
                certs.append(oc.certificate)
            assert merge_certificates(certs) == direct, node_budget

    def test_budget_never_claims_nonexistence(self):
        spec = spec_for(14, 3, [258], mode="prove", node_budget=50)
        oc = enumerate_order(spec, 258)
        assert oc.status == "undecided"
        assert not oc.certificate.covers_order()

    def test_zero_remaining_budget_touches_nothing(self):
        spec = spec_for(6, 1, [14], mode="prove")
        oc = enumerate_order(spec, 14, budget=_Budget(0))
        assert oc.certificate.expansions == 0 and oc.pending

    def test_min_order_marks_rest_undecided(self):
        spec = spec_for(14, 3, (258, 264), mode="prove", node_budget=4000)
        out = min_order(spec)
        assert [oc.status for oc in out.per_order] == ["undecided", "undecided"]
        assert out.per_order[1].certificate.expansions == 0

    def test_sharded_budget_breach_is_the_serial_one(self):
        spec = spec_for(14, 3, [258], mode="prove", node_budget=4000)
        a = enumerate_order_sharded(spec, 258, shards=3)
        assert a == enumerate_order(spec, 258)
        assert a.certificate.status == "budget-exceeded" and len(a.pending) == 1

    def test_pool_run_with_budget_is_deterministic(self):
        spec = spec_for(14, 3, [258], mode="prove", node_budget=6000)
        a = enumerate_order_sharded(spec, 258, shards=4, processes=2)
        b = enumerate_order_sharded(spec, 258, shards=4, processes=2)
        assert a == b

    def test_progress_callback_sees_every_root(self):
        seen = []
        spec = spec_for(6, 1, [14], mode="prove")
        enumerate_order(spec, 14, progress=lambda *args: seen.append(args))
        assert [s[1] for s in seen] == [1, 2, 3, 4, 5]
        assert all(s[0] == 14 and s[2] == 5 for s in seen)
        assert seen[-1][3] == 5  # five root expansions in total


class TestReduction:
    def test_reduction_agrees_on_existence(self):
        for g, b, order in ((6, 1, 14), (8, 3, 30), (8, 3, 36), (6, 2, 16)):
            full = enumerate_order(spec_for(g, b, [order], mode="all"), order)
            red = enumerate_order(spec_for(g, b, [order], mode="all",
                                           reduction=True), order)
            full_set = {w.pattern.offsets for w in full.witnesses}
            red_set = {w.pattern.offsets for w in red.witnesses}
            assert full_set == red_set  # canonical dedup hides skipped duplicates
            assert red.certificate.expansions <= full.certificate.expansions

    def test_reduction_recorded_in_certificate(self):
        oc = enumerate_order(spec_for(6, 1, [12], mode="prove", reduction=True), 12)
        assert oc.certificate.reduction is True

    def test_reduction_shards_match_reduced_serial(self):
        spec = spec_for(8, 3, [42], mode="prove", reduction=True)
        serial = enumerate_order(spec, 42)
        merged = enumerate_order_sharded(spec, 42, shards=3)
        assert merged.certificate == serial.certificate

    def test_reduction_agrees_on_nonexistence_at_scale(self):
        full = enumerate_order(spec_for(14, 3, [258], mode="prove"), 258)
        red = enumerate_order(spec_for(14, 3, [258], mode="prove",
                                       reduction=True), 258)
        assert full.status == red.status == "exhausted"
        assert red.certificate.covers_order()
        assert red.certificate.expansions < full.certificate.expansions


class TestBruteForceEquivalence:
    @pytest.mark.parametrize("b,order", [(1, 14), (1, 20), (2, 16), (2, 24), (3, 18)])
    def test_engine_matches_brute_force(self, b, order):
        survey = brute_force_survey(b, order)
        for g in (4, 6, 8):
            raw_count, canon = brute_force_canonical_witnesses(g, b, order, survey=survey)
            oc = enumerate_order(spec_for(g, b, [order], mode="all"), order)
            assert oc.certificate.leaves == raw_count
            assert sorted(w.pattern.offsets for w in oc.witnesses) == canon

    def test_brute_force_size_guard(self):
        with pytest.raises(ValueError):
            brute_force_survey(10, 40, limit=1000)


class TestCrossFactorIdentity:
    """Witnesses of one order agree across symmetry factors b and kb.

    A pattern that repeats with period 2b also repeats with period 2kb, so
    the b-row witnesses are exactly the kb-row witnesses whose derived
    factors include b, cut to their first 2b offsets.  Unlike the brute
    force above, this reaches g=10.
    """

    @pytest.mark.parametrize("g, b, kb, order", [(10, 2, 4, 80), (8, 2, 6, 48), (8, 3, 6, 48)])
    def test_kb_row_restricted_to_b_is_the_b_row(self, g, b, kb, order):
        wide = enumerate_order(spec_for(g, kb, [order]), order).witnesses
        narrow = enumerate_order(spec_for(g, b, [order]), order).witnesses
        cut = {canonical_form(validate_pattern(order // 2, b, w.pattern.offsets[:2 * b])).offsets
               for w in wide if b in derived_symmetry_factors(w.pattern)}
        assert narrow and cut == {w.pattern.offsets for w in narrow}


class TestNonMonotonicity:
    def test_g8_b3_gap_between_30_and_36(self):
        # existence at order 30, non-existence at the larger order 36; the
        # brute-force cross-check of the gap runs in the acceptance suite
        exists = enumerate_order(spec_for(8, 3, [30], mode="all"), 30)
        gap = enumerate_order(spec_for(8, 3, [36], mode="prove"), 36)
        again = enumerate_order(spec_for(8, 3, [42], mode="all"), 42)
        assert exists.status == "witness"
        assert gap.status == "exhausted" and gap.certificate.covers_order()
        assert gap.certificate.leaves == 0
        assert again.status == "witness"


class TestOutcomeSoundness:
    def test_every_witness_revalidates(self, rng):
        for g, b, order in ((6, 1, 18), (6, 3, 18), (8, 2, 32), (4, 2, 12)):
            oc = enumerate_order(spec_for(g, b, [order], mode="all"), order)
            for w in oc.witnesses:
                p = validate_pattern(w.pattern.m, w.pattern.b, w.pattern.offsets)
                res = girth_oracle(expand(p), cap=order)
                assert res.value == w.measured_girth and res.value >= g
                assert canonical_form(p).offsets == p.offsets

    def test_girth_surplus_is_reported_not_dropped(self):
        # searching girth >= 6 at order 30 keeps girth-8 witnesses with both numbers
        oc = enumerate_order(spec_for(6, 3, [30], mode="all"), 30)
        surplus = [w for w in oc.witnesses if w.measured_girth > 6]
        assert surplus and all(w.measured_girth == 8 for w in surplus)


class TestBudgetObject:
    def test_of_spec_sets_allowance_and_deadline(self):
        before = time.perf_counter()
        budget = _Budget.of(spec_for(8, 3, [42], node_budget=7, wall_budget_s=60))
        assert budget.remaining == 7
        assert before + 60 <= budget.deadline <= time.perf_counter() + 60
        assert _Budget.of(spec_for(8, 3, [42])) == _Budget(None, None)

    def test_spent_at_zero_remaining_or_past_the_deadline(self):
        now = time.perf_counter()
        assert _Budget(0).spent() and _Budget(-3).spent()
        assert _Budget(None, now - 1).spent() and _Budget(5, now - 1).spent()
        assert not _Budget(1).spent() and not _Budget(None).spent()
        assert not _Budget(None, now + 3600).spent()

    def test_consume_spends_only_a_limited_budget(self):
        limited, unlimited = _Budget(5), _Budget(None)
        limited.consume(3)
        unlimited.consume(3)
        assert limited.remaining == 2 and unlimited.remaining is None

    def test_shards_pickled_together_spend_their_own_copies(self):
        spec = spec_for(8, 3, [42], mode="prove", node_budget=90)
        payloads = search._shard_payloads(spec, [42], 3, _Budget.of(spec))
        assert [p[2] for p in payloads] == partition(spec, 42, 3)
        copies = pickle.loads(pickle.dumps(payloads))  # as one pool chunk is sent
        copies[0][3].consume(30)
        assert [p[3] for p in copies] == [_Budget(60), _Budget(90), _Budget(90)]


class TestScanDeadline:
    def test_pooled_shards_stop_at_the_scan_deadline(self, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the injected clock reaches pool workers only by fork")
        scan_pid = os.getpid()
        real = time.perf_counter

        class Clock:  # pool workers start an hour after the scan does
            @staticmethod
            def perf_counter():
                return real() + (0 if os.getpid() == scan_pid else 3600)

        monkeypatch.setattr(search, "time", Clock)
        spec = spec_for(8, 3, [42], mode="prove", wall_budget_s=60)
        oc = min_order(spec, shards=3, processes=2).per_order[0]
        assert oc.certificate.status == "budget-exceeded"
        assert oc.certificate.expansions == 0
        assert oc.pending == ((3, 39),)

    def test_passed_deadline_starts_no_pool(self, monkeypatch):
        def no_pool(*args):
            raise AssertionError("a pool was started after the deadline")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        spec = spec_for(8, 3, [42], mode="prove")
        oc = enumerate_order_sharded(spec, 42, 3, 2,
                                     budget=_Budget(None, time.perf_counter() - 1))
        assert oc.certificate.expansions == 0
        assert oc.pending == ((3, 39),)
        # a scan whose wall budget is already spent when it starts
        late = spec_for(8, 3, [36, 42], mode="prove", wall_budget_s=-1)
        out = min_order(late, shards=3, processes=2)
        assert [oc.certificate.expansions for oc in out.per_order] == [0, 0]
        assert all(oc.status == "undecided" for oc in out.per_order)

    def test_progress_fires_per_root_for_shards_and_pools(self):
        seen = []
        spec = spec_for(6, 1, [14], mode="prove")
        min_order(spec, shards=2, progress=lambda *args: seen.append(args))
        assert [s[1:3] for s in seen] == [(k, 5) for k in range(1, 6)]
        # pooled: the same per-root calls, made as each shard's records arrive
        pooled = []
        min_order(spec, shards=2, processes=2, progress=lambda *args: pooled.append(args))
        assert pooled == seen


@pytest.fixture
def started_pools(monkeypatch):
    """Every pool the search starts, kept referenced so that only an explicit
    close, not garbage collection, can stop its workers."""
    real = multiprocessing.Pool
    pools = []

    def keeping(*args, **kwargs):
        pools.append(real(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(multiprocessing, "Pool", keeping)
    return pools


class TestScanPool:
    spec = spec_for(8, 3, [30, 36, 42], mode="prove")

    def test_pooled_scan_starts_one_pool(self, started_pools):
        out = min_order(self.spec, shards=3, processes=2)
        assert len(started_pools) == 1
        serial = min_order(self.spec)
        assert len(started_pools) == 1  # a serial scan starts none
        assert [oc.certificate for oc in out.per_order] == \
            [oc.certificate for oc in serial.per_order]

    def test_pooled_scan_leaves_no_workers(self, started_pools):
        min_order(self.spec, shards=3, processes=2)
        assert started_pools and multiprocessing.active_children() == []

    def test_raising_progress_callback_leaves_no_workers(self, started_pools):
        calls = []

        def progress(order, done, total, expansions):
            calls.append(order)
            if order == 36:
                raise RuntimeError("stop the scan")

        with pytest.raises(RuntimeError, match="stop the scan"):
            min_order(self.spec, shards=3, processes=2, progress=progress)
        assert calls[0] == 30 and calls[-1] == 36
        assert started_pools and multiprocessing.active_children() == []


@pytest.fixture
def imap_calls(monkeypatch):
    """Every `imap` call on a pool the search starts, as [payloads sent,
    results read]."""
    real = multiprocessing.Pool
    calls = []

    def counting_pool(*args, **kwargs):
        pool = real(*args, **kwargs)
        real_imap = pool.imap

        def imap(func, payloads, *rest):
            payloads = list(payloads)
            call = [len(payloads), 0]
            calls.append(call)
            for result in real_imap(func, payloads, *rest):
                call[1] += 1
                yield result

        pool.imap = imap
        return pool

    monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
    return calls


class TestStreamedShards:
    orders = (30, 36, 42)

    @pytest.mark.parametrize("node_budget", [None, 10**9])
    def test_one_imap_per_scan(self, imap_calls, node_budget):
        spec = spec_for(8, 3, self.orders, mode="prove", node_budget=node_budget)
        out = min_order(spec, shards=3, processes=2)
        assert imap_calls == [[9, 9]]
        assert [oc.certificate for oc in out.per_order] == \
            [oc.certificate for oc in min_order(spec).per_order]

    def test_first_witness_scan_returns_the_serial_outcome(self, imap_calls):
        # orders 30 and 42 both have witnesses; the scan must stop at 30
        spec = spec_for(8, 3, self.orders, mode="first")
        out = min_order(spec, shards=3, processes=2)
        serial = min_order(spec)
        assert out.minimal_order == 30
        assert out == serial  # certificates included
        # every order's shards went out; the witness is in order 30's first
        # shard, so only that result was read, and the rest were dropped
        # with the pool
        assert imap_calls == [[9, 1]]
        assert multiprocessing.active_children() == []

    def test_shards_sent_past_a_deadline_are_dropped(self, imap_calls, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the injected clock reaches pool workers only by fork")
        scan_pid = os.getpid()
        real = time.perf_counter

        class Clock:  # pool workers start an hour after the scan does
            @staticmethod
            def perf_counter():
                return real() + (0 if os.getpid() == scan_pid else 3600)

        monkeypatch.setattr(search, "time", Clock)
        spec = spec_for(8, 3, self.orders, mode="prove", wall_budget_s=60)
        out = min_order(spec, shards=3, processes=2)
        assert [oc.status for oc in out.per_order] == ["undecided"] * 3
        assert all(oc.certificate.expansions == 0 for oc in out.per_order)
        # order 30's shards breach the deadline; 36 and 42 never read theirs
        assert imap_calls == [[9, 3]]
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("shards, processes", [(1, None), (2, None), (2, 2)])
def test_orders_below_the_girth_need_no_search(shards, processes):
    # a Hamiltonian cycle of 8 or 10 vertices already has girth below 12
    spec = spec_for(12, 1, (8, 10), mode="prove")
    out = min_order(spec, shards=shards, processes=processes)
    assert [oc.status for oc in out.per_order] == ["exhausted", "exhausted"]
    assert all(oc.certificate.covers_order() and oc.certificate.expansions == 0
               for oc in out.per_order)


@pytest.mark.parametrize("spec, order", [
    (spec_for(14, 3, [258], mode="prove"), 258),
    (spec_for(8, 3, [42], mode="all", reduction=True), 42),
    (spec_for(14, 7, [266], mode="prove", node_budget=2000), 266),
    (spec_for(10, 4, [80], mode="first"), 80),
    (spec_for(10, 4, [80], mode="first", reduction=True), 80),
], ids=["prove-g14-b3", "all-reduced-g8-b3", "budget-g14-b7", "halt-g10-b4",
        "halt-reduced-g10-b4"])
def test_one_predicate_call_per_undecided_candidate(spec, order, monkeypatch):
    """The benchmark tracer's self-check: every expansion that is neither a
    conflict nor a symmetry skip calls the predicate exactly once, including
    the candidates the per-node filters already decide."""
    calls = 0
    discarded = 0
    real_predicate = search.chord_cycle_shorter_than
    real_run_root = search._Kernel.run_root

    def counting(*args):
        nonlocal calls
        calls += 1
        return real_predicate(*args)

    def run_root(kern, root, budget):
        # a breached root's counters never reach the certificate; add them back
        nonlocal discarded
        real_run_root(kern, root, budget)
        if kern.breached:
            discarded += kern.expansions - kern.conflicts - kern.sym_skips

    monkeypatch.setattr(search, "chord_cycle_shorter_than", counting)
    monkeypatch.setattr(search._Kernel, "run_root", run_root)
    cert = enumerate_order(spec, order).certificate
    assert calls == cert.expansions - cert.conflicts - cert.sym_skips + discarded
    assert (discarded > 0) == (spec.node_budget is not None)
    assert calls > cert.girth_rejects > 0
    # a first-witness halt leaves the halted root's partial counts
    assert (cert.status == "halted-witness") == (spec.mode == "first-witness")


@pytest.mark.parametrize("g, b, order, reduction, root", [
    (10, 4, 80, False, 45),
    (10, 4, 80, True, 11),
    (14, 3, 258, False, 13),
])
def test_every_node_budget_leaves_exact_kernel_counters(g, b, order, reduction, root,
                                                        monkeypatch):
    """A run_root that breaches at any expansion, or does not, leaves counters
    that describe exactly the expansions it made, and every offset unset."""
    calls = 0
    real_predicate = search.chord_cycle_shorter_than

    def counting(*args):
        nonlocal calls
        calls += 1
        return real_predicate(*args)

    monkeypatch.setattr(search, "chord_cycle_shorter_than", counting)
    kern = search._Kernel(order, b, g, reduction, "none")
    kern.run_root(root, None)
    full = kern.expansions
    assert full > kern.nodes >= 1
    for k in range(1, full + 2):
        calls = 0
        kern.run_root(root, k)
        assert kern.breached == (k < full), k
        assert kern.expansions == min(k, full), k
        assert kern.nodes == (kern.expansions - kern.conflicts - kern.girth_rejects
                              - kern.sym_skips), k
        assert calls == kern.expansions - kern.conflicts - kern.sym_skips, k
        assert kern.offsets == [-1] * (2 * b), k


def test_every_node_budget_leaves_the_reference_prefix():
    """run_root with node budget k leaves the counters, witnesses, breach and
    halt of the first k expansions of a plain per-candidate loop, for every
    k up to one past the root's size, and every offset unset."""
    seen = {"conflict": 0, "skip": 0, "after a descent": 0, "halt in a descent": 0}
    for g, b, n, root, reduction, collect in [
        (10, 4, 80, 45, False, "first"), (10, 4, 80, 45, False, "all"),
        (10, 4, 80, 11, True, "first"), (10, 4, 80, 11, True, "all"),
        (14, 3, 258, 13, False, "none"),
    ]:
        events = root_events(n, b, g, root, reduction, collect)
        halts = collect == "first" and events[-1][2] is not None
        seen["halt in a descent"] += halts and events[-1][1] > 0
        kern = search._Kernel(n, b, g, reduction, collect)
        for k in range(1, len(events) + 2):
            kern.run_root(root, k)
            done = events[:k]
            kinds = [kind for kind, _, _ in done]
            leaves = [leaf for _, _, leaf in done if leaf is not None]
            case = (g, b, n, root, reduction, collect, k)
            assert search._kernel_counts(kern) == (
                len(done), kinds.count("conflict"), kinds.count("reject"),
                kinds.count("skip"), kinds.count("node"), len(leaves)), case
            assert kern.witnesses == (leaves if collect != "none" else []), case
            assert kern.breached == (k < len(events)), case
            assert kern.stop == (kern.breached or halts), case
            assert kern.offsets == [-1] * (2 * b), case
            if k < len(events):  # the expansion the budget stopped at
                kind, depth, _ = events[k]
                seen[kind] = seen.get(kind, 0) + 1
                seen["after a descent"] += depth < events[k - 1][1]
    assert min(seen.values()) > 0, seen


def test_a_pool_worker_builds_each_order_once(monkeypatch):
    """The shards of one order share one set of kernel tables in a worker,
    and their records are those of one in-process run over the whole span."""
    monkeypatch.setattr(search, "_scan_over", None)  # restored after the test
    search._start_worker(multiprocessing.Event())
    spec = spec_for(14, 3, [258], mode="prove")
    search._order_tables.cache_clear()
    records = [run for rng in partition(spec, 258, 8)
               for run in search._shard_worker((spec, 258, rng, _Budget(None)))]
    assert search._order_tables.cache_info().misses == 1
    assert records == list(search._root_runs(spec, 258, root_values(258, False),
                                             _Budget(None)))


@pytest.mark.parametrize("g, b, orders, mode", [
    (14, 3, (258, 264), "prove"),
    (8, 3, (30, 36, 42), "first"),
    (12, 1, (10, 12, 14, 16, 18, 20, 22, 24), "all"),  # g > n below 12
])
@pytest.mark.parametrize("node_budget", [None, 100, 1000, 5000])
def test_pooled_scan_gives_the_serial_outcome(g, b, orders, mode, node_budget):
    spec = spec_for(g, b, orders, mode=mode, node_budget=node_budget)
    serial = min_order(spec)
    for shards in (2, 5, 8):
        assert min_order(spec, shards=shards, processes=2) == serial
    assert multiprocessing.active_children() == []
