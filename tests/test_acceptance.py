"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The stretch rediscovery attempt is excluded by default;
set HBG_STRETCH=1 (and optionally HBG_STRETCH_BUDGET) to enable it.
"""

import os
import random
import time

import pytest

from hbgsearch import (
    CatalogEntry,
    SearchSpec,
    derived_symmetry_factors,
    enumerate_order,
    expand,
    girth_oracle,
    lower_bound_order,
    min_order,
    parse_witness,
    serialize_witness,
    verify_witness,
)
from hbgsearch.cli import main
from hbgsearch.search import candidate_values

from helpers import (
    brute_force_canonical_witnesses,
    brute_force_survey,
    girth_fast,
    random_pattern,
)

TABLE2_B3_ORDERS = list(range(258, 385, 6))
BRUTE_SPACE_CAP = 8_000_000


def _ok(name, detail=""):
    print(f"PASS {name}" + (f": {detail}" if detail else ""))


def test_criterion_1_moore_floor_cage_g6(tmp_path, capsys):
    t0 = time.perf_counter()
    out_dir = tmp_path / "g6"
    code = main(["search", "--girth", "6", "--sym", "1", "--min", "6",
                 "--max", "20", "--mode", "first", "--out", str(out_dir),
                 "--quiet"])
    elapsed = time.perf_counter() - t0
    out, _ = capsys.readouterr()
    assert code == 0
    assert "minimal 14" in out
    for n in (6, 8, 10, 12):
        cert = (out_dir / f"g6_n{n}_b1.cert").read_text()
        assert "status complete" in cert and "leaves 0" in cert
    entry = parse_witness((out_dir / "g6_n14_b1_w000.hbg").read_text())
    report = verify_witness(entry)
    assert report.passed and report.measured_girth == 6
    assert elapsed < 1.0
    with capsys.disabled():
        _ok("criterion-1", f"minimal order 14, oracle girth 6, {elapsed:.3f}s < 1s")


def test_criterion_2_g8_b3_minimum_order(capsys):
    t0 = time.perf_counter()
    spec = SearchSpec(g=8, b=3, orders=tuple(range(6, 31, 6)), mode="first")
    outcome = min_order(spec)
    elapsed = time.perf_counter() - t0
    assert outcome.minimal_order == 30
    below = [oc for oc in outcome.per_order if oc.order < 30]
    assert [oc.order for oc in below] == [6, 12, 18, 24]
    assert all(oc.status == "exhausted" and oc.certificate.covers_order()
               for oc in below)
    w = outcome.per_order[-1].witnesses[0]
    assert girth_oracle(expand(w.pattern), cap=30).value == 8
    assert elapsed < 10.0
    with capsys.disabled():
        _ok("criterion-2", f"minimal order 30, oracle girth 8, {elapsed:.3f}s < 10s")


def test_criterion_3_table2_row_b3_full_scale(capsys):
    t0 = time.perf_counter()
    spec = SearchSpec(g=14, b=3, orders=tuple(TABLE2_B3_ORDERS), mode="prove")
    serial = min_order(spec)
    serial_s = time.perf_counter() - t0
    assert serial_s < 4 * 3600
    assert [oc.order for oc in serial.per_order] == TABLE2_B3_ORDERS
    for oc in serial.per_order:
        assert oc.status == "exhausted", f"order {oc.order} not exhausted"
        assert oc.certificate.covers_order() and oc.certificate.leaves == 0
    assert serial.minimal_order is None

    # the same row sharded 8 ways, as one pooled scan, must merge to
    # identical certificates
    t1 = time.perf_counter()
    sharded = min_order(spec, shards=8, processes=2)
    sharded_s = time.perf_counter() - t1
    assert [oc.order for oc in sharded.per_order] == TABLE2_B3_ORDERS
    for merged, oc in zip(sharded.per_order, serial.per_order):
        assert merged.certificate == oc.certificate, oc.order
    with capsys.disabled():
        _ok("criterion-3",
            f"non-existence certified for all 22 orders 258..384; serial "
            f"{serial_s:.1f}s, 8-shard merge equality confirmed in {sharded_s:.1f}s")


def test_criterion_4_reduced_budget_spot_rows(tmp_path, capsys):
    results = []
    for b, order in ((7, 266), (9, 270)):
        out_dir = tmp_path / f"b{b}"
        code = main(["search", "--girth", "14", "--sym", str(b),
                     "--min", str(order), "--max", str(order), "--mode", "prove",
                     "--node-budget", "150000", "--out", str(out_dir), "--quiet"])
        out, _ = capsys.readouterr()
        cert_text = (out_dir / f"g14_n{order}_b{b}.cert").read_text()
        if code == 0:
            assert f"order {order} exhausted" in out
            assert "status complete" in cert_text
            results.append(f"b={b} order {order} exhausted in budget")
        else:
            # budget breach: resumable state, never a non-existence claim
            assert code == 2
            assert f"order {order} undecided" in out
            assert "status budget-exceeded" in cert_text
            resume = out_dir / f"g14_n{order}_b{b}.resume"
            assert resume.exists()
            assert resume.read_text().startswith("HBG-RESUME 1\n")
            results.append(f"b={b} order {order} exit 2 with resume state")
    with capsys.disabled():
        _ok("criterion-4", "; ".join(results))


def test_criterion_5_lower_bound_rule(capsys):
    expected = [258, 264, 260, 264, 266, 272, 270, 260, 264, 264, 260, 280, 270, 288]
    got = [lower_bound_order(14, b) for b in range(3, 17)]
    assert got == expected
    with capsys.disabled():
        _ok("criterion-5", f"lb(14, b) for b=3..16 = {got}")


def test_criterion_6_oracle_equivalence_500(capsys):
    rng = random.Random(0x6E0)
    checked = 0
    t0 = time.perf_counter()
    while checked < 500:
        p = random_pattern(rng, max_m=30)
        cap = rng.randrange(3, 21)
        assert girth_fast(p, cap) == girth_oracle(expand(p), cap), (p, cap)
        checked += 1
    with capsys.disabled():
        _ok("criterion-6",
            f"girth_fast == girth_oracle on {checked} random patterns "
            f"(2m <= 60, caps 3..20) in {time.perf_counter() - t0:.1f}s")


def _criterion_7_grid():
    grid = []
    for order in range(6, 41, 2):
        m = order // 2
        for b in range(1, m + 1):
            if m % b:
                continue
            space = len(candidate_values(order)) ** (2 * b)
            if space <= BRUTE_SPACE_CAP:
                grid.append((b, order))
    return grid


def test_criterion_7_brute_force_equivalence(capsys):
    t0 = time.perf_counter()
    grid = _criterion_7_grid()
    assert len(grid) >= 30
    checked = 0
    for b, order in grid:
        survey = brute_force_survey(b, order, limit=BRUTE_SPACE_CAP)
        for g in (4, 6, 8):
            raw, canon = brute_force_canonical_witnesses(g, b, order, survey=survey)
            spec = SearchSpec(g=g, b=b, orders=(order,), mode="all")
            oc = enumerate_order(spec, order)
            assert oc.certificate.leaves == raw, (g, b, order)
            assert sorted(w.pattern.offsets for w in oc.witnesses) == canon, (g, b, order)
            checked += 1
    with capsys.disabled():
        _ok("criterion-7",
            f"{checked} (g, b, order) cells match the unpruned brute force "
            f"(grid capped at {BRUTE_SPACE_CAP} raw sequences) "
            f"in {time.perf_counter() - t0:.1f}s")


def test_criterion_8_symmetry_factor_observations(capsys):
    rng = random.Random(0x8B5)
    for _ in range(200):
        p = random_pattern(rng, max_m=30)
        facs = derived_symmetry_factors(p)
        m = p.m
        assert m in facs
        for bp in facs:
            for a in range(2, m // bp + 1):
                if m % (a * bp) == 0:
                    assert a * bp in facs, (p.offsets, bp, a)
        absent = [d for d in range(1, m + 1) if m % d == 0 and d not in facs]
        for bp in absent:
            for d in range(1, bp):
                if bp % d == 0 and d in facs:
                    # a divisor of an absent factor may only be present if it
                    # independently satisfies the period rule; rule that out
                    raise AssertionError((p.offsets, bp, d))
    with capsys.disabled():
        _ok("criterion-8", "derived-factor observations hold on 200 random patterns")


def test_criterion_9_round_trip_and_determinism(tmp_path, capsys):
    # serialize/parse identity on witnesses from several searches
    count = 0
    for g, b, order in ((6, 1, 14), (8, 3, 30), (6, 3, 30), (4, 2, 16), (6, 2, 28)):
        spec = SearchSpec(g=g, b=b, orders=(order,), mode="all")
        for w in enumerate_order(spec, order).witnesses:
            entry = CatalogEntry(g=g, order=order, b=b, offsets=w.pattern.offsets,
                                 note=f"measured girth {w.measured_girth}")
            text = serialize_witness(entry)
            assert parse_witness(text) == entry
            assert serialize_witness(parse_witness(text)) == text
            count += 1
    assert count >= 5

    # byte-identical outcome files across repeated identical runs
    dirs = []
    for name in ("run1", "run2"):
        d = tmp_path / name
        code = main(["search", "--girth", "8", "--sym", "3", "--min", "6",
                     "--max", "36", "--mode", "all", "--out", str(d), "--quiet"])
        capsys.readouterr()
        assert code == 0
        dirs.append(d)
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    with capsys.disabled():
        _ok("criterion-9",
            f"round trip on {count} witnesses; {len(names)} outcome files "
            f"byte-identical across reruns")


def test_nonmonotonicity_cross_check(capsys):
    # engine and brute force agree that (3, 8) patterns with b=3 exist at
    # order 30, vanish at order 36 and reappear at order 42
    spec30 = SearchSpec(g=8, b=3, orders=(30,), mode="all")
    spec36 = SearchSpec(g=8, b=3, orders=(36,), mode="prove")
    assert enumerate_order(spec30, 30).status == "witness"
    gap = enumerate_order(spec36, 36)
    assert gap.status == "exhausted" and gap.certificate.leaves == 0
    raw, canon = brute_force_canonical_witnesses(8, 3, 36, limit=20_000_000)
    assert raw == 0 and canon == []
    with capsys.disabled():
        _ok("non-monotonicity",
            "witness at order 30, independently confirmed gap at 36 (b=3, girth 8)")


@pytest.mark.stretch
@pytest.mark.skipif(not os.environ.get("HBG_STRETCH"),
                    reason="long-running rediscovery attempt; set HBG_STRETCH=1")
def test_criterion_10_stretch_record_rediscovery(capsys):
    # with the orbit reduction this lands in about 6 s on a 2-core Xeon (the
    # first hit sits below root offset 15); still excluded from the default
    # suite by design
    budget = int(os.environ.get("HBG_STRETCH_BUDGET", "30000000"))
    spec = SearchSpec(g=14, b=8, orders=(384,), mode="first", node_budget=budget,
                      reduction=True)
    oc = enumerate_order(spec, 384)
    if oc.status != "witness":
        pytest.skip(f"no witness within {budget} expansions (no runtime guarantee)")
    w = oc.witnesses[0]
    report = verify_witness(CatalogEntry(g=14, order=384, b=8,
                                         offsets=w.pattern.offsets))
    assert report.passed and report.measured_girth >= 14
    assert 8 in report.derived_factors
    with capsys.disabled():
        _ok("criterion-10", f"rediscovered an order-384 girth-14 witness: "
                            f"{w.pattern.offsets}")
