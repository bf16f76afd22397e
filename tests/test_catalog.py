from dataclasses import replace

import pytest

from hbgsearch import (
    BoundsInput,
    CatalogEntry,
    ParseError,
    SearchSpec,
    bounds_table,
    enumerate_order,
    lower_bound_order,
    moore_floor,
    non_existence_report,
    parse_witness,
    serialize_witness,
    verify_witness,
)
from hbgsearch.catalog import (
    ResumeState,
    evidence_refusal,
    format_bounds_table,
    format_non_existence,
    parse_certificate,
    parse_claims,
    parse_claims_file,
    parse_resume,
    serialize_certificate,
    serialize_resume,
)
from hbgsearch.search import ShardRange

HEAWOOD_FILE = "HBG 1\ng 6\nn 14\nb 1\noffsets 5 9\n"


def heawood_entry(**overrides):
    base = dict(g=6, order=14, b=1, offsets=(5, 9))
    base.update(overrides)
    return CatalogEntry(**base)


class TestWitnessFormat:
    def test_parse_basic(self):
        e = parse_witness(HEAWOOD_FILE)
        assert e == heawood_entry()

    def test_round_trip_byte_exact(self):
        e = heawood_entry(note="record graph")
        text = serialize_witness(e)
        again = parse_witness(text)
        assert again == e
        assert serialize_witness(again) == text

    def test_note_preserved_verbatim(self):
        text = "HBG 1\ng 6\nn 14\nb 1\noffsets 5 9\nnote  spaces  kept \n"
        e = parse_witness(text)
        assert e.note == " spaces  kept "
        assert serialize_witness(e) == text

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            parse_witness(HEAWOOD_FILE + "color blue\n")

    def test_wrong_key_order_rejected(self):
        with pytest.raises(ParseError):
            parse_witness("HBG 1\nn 14\ng 6\nb 1\noffsets 5 9\n")

    def test_missing_magic(self):
        with pytest.raises(ParseError):
            parse_witness("g 6\nn 14\nb 1\noffsets 5 9\n")

    def test_offset_count_must_match_b(self):
        with pytest.raises(ParseError):
            parse_witness("HBG 1\ng 6\nn 14\nb 2\noffsets 5 9\n")

    def test_offsets_normalized_to_positive_residues(self):
        e = parse_witness("HBG 1\ng 6\nn 14\nb 1\noffsets -9 -5\n")
        assert e.offsets == (5, 9)

    def test_error_carries_file_and_line(self):
        with pytest.raises(ParseError) as exc:
            parse_witness("HBG 1\ng six\n", source="w.hbg")
        assert "w.hbg:2" in str(exc.value)

    def test_odd_order_rejected(self):
        with pytest.raises(ParseError):
            parse_witness("HBG 1\ng 6\nn 15\nb 1\noffsets 5 9\n")

    def test_multiline_note_unserializable(self):
        with pytest.raises(ValueError):
            serialize_witness(heawood_entry(note="two\nlines"))


class TestLowerBounds:
    def test_moore_floor_values(self):
        assert moore_floor(4) == 6
        assert moore_floor(6) == 14
        assert moore_floor(8) == 30
        assert moore_floor(14) == 254

    def test_published_g14_bound(self):
        assert lower_bound_order(14, 1) == 258
        assert lower_bound_order(6, 1) == 14

    def test_lower_bound_order_table_one_column(self):
        expected = [258, 264, 260, 264, 266, 272, 270, 260, 264, 264, 260, 280, 270, 288]
        got = [lower_bound_order(14, b) for b in range(3, 17)]
        assert got == expected

    def test_lower_bound_order_invariants(self, rng):
        for _ in range(200):
            g = rng.choice([4, 6, 8, 10, 12, 14])
            b = rng.randrange(1, 20)
            bound = 258 if g == 14 else moore_floor(g)
            lb = lower_bound_order(g, b)
            assert lb % (2 * b) == 0
            assert bound <= lb < bound + 2 * b

    def test_override_file(self, tmp_path):
        path = tmp_path / "claims.txt"
        path.write_text("HBG-CLAIMS 1\ng 6\nbound 20\n", encoding="ascii")
        g, bound, _ = parse_claims_file(path)
        assert (g, bound) == (6, 20)
        assert lower_bound_order(6, 4, bound) == 24

    def test_override_below_floor_rejected(self, tmp_path):
        path = tmp_path / "claims.txt"
        path.write_text("HBG-CLAIMS 1\ng 6\nbound 12\n", encoding="ascii")
        with pytest.raises(ParseError):
            parse_claims_file(path)


class TestVerify:
    def test_heawood_passes(self):
        report = verify_witness(heawood_entry())
        assert report.passed and report.measured_girth == 6
        assert report.lines()[-1] == "PASS girth=6"

    def test_overclaimed_girth_fails(self):
        report = verify_witness(heawood_entry(g=8))
        assert not report.passed
        assert "girth 6 < 8" in report.lines()[-1]

    def test_wrong_symmetry_factor_fails(self):
        report = verify_witness(CatalogEntry(g=6, order=14, b=2, offsets=(5, 9, 5, 9)))
        assert not report.passed
        assert "does not divide" in report.lines()[-1]

    def test_hostile_offsets_fail_gracefully(self):
        report = verify_witness(CatalogEntry(g=6, order=14, b=1, offsets=(4, 10)))
        assert not report.passed

    def test_surplus_is_flagged(self):
        report = verify_witness(CatalogEntry(g=6, order=30, b=3,
                                             offsets=(17, 21, 7, 23, 9, 13)))
        assert report.passed and report.girth_surplus and report.measured_girth == 8

    def test_derived_factor_listed(self, tutte_coxeter):
        report = verify_witness(CatalogEntry(g=8, order=30, b=3,
                                             offsets=tutte_coxeter.offsets))
        assert report.derived_factors == (3, 15)

    def test_record_scale_witness_verifies(self):
        # order-384 girth-14 witness at symmetry factor 8, found by this
        # engine in first-witness mode with the orbit reduction
        offs = (13, 41, 247, 165, 59, 329, 21, 117, 219, 137,
                343, 363, 267, 371, 55, 325)
        report = verify_witness(CatalogEntry(g=14, order=384, b=8, offsets=offs))
        assert report.passed and report.measured_girth == 14
        assert report.derived_factors == (8, 16, 24, 32, 48, 64, 96, 192)


class TestCertificateFormat:
    def cert(self):
        spec = SearchSpec(g=6, b=1, orders=(14,), mode="prove")
        return enumerate_order(spec, 14).certificate

    def test_round_trip(self):
        c = self.cert()
        text = serialize_certificate(c)
        again = parse_certificate(text)
        assert again == c
        assert serialize_certificate(again) == text

    def test_wall_time_not_serialized(self):
        text = serialize_certificate(self.cert())
        assert "wall" not in text

    def test_tampered_counters_rejected(self):
        c = self.cert()
        text = serialize_certificate(c)
        bad = text.replace(f"nodes {c.nodes}", f"nodes {c.nodes + 3}")
        assert bad != text
        with pytest.raises(ParseError):
            parse_certificate(bad)

    @pytest.mark.parametrize("edits, message", [
        ({"roots 3 11": "roots 3 9"}, "roots 3 9 are not the root span 3 11 of order 14"),
        ({"b 1\n": "b 2\n", "positions 2\npairs 1": "positions 4\npairs 2"},
         "no such search: order 14: b=2 does not divide m=7"),
    ])
    def test_roots_must_be_the_span_of_the_search(self, edits, message):
        text = serialize_certificate(self.cert())
        for old, new in edits.items():
            text = text.replace(old, new)
        with pytest.raises(ParseError, match=f"<string>:9: {message}$"):
            parse_certificate(text)

    def test_unknown_key_rejected(self):
        text = serialize_certificate(self.cert()) + "speed fast\n"
        with pytest.raises(ParseError):
            parse_certificate(text)


class TestResumeFormat:
    def test_round_trip(self):
        state = ResumeState(g=14, order=266, b=7, mode="prove-nonexistence",
                            reduction=False, node_budget=200000,
                            pending=(ShardRange(13, 131), ShardRange(175, 263)))
        text = serialize_resume(state)
        assert text.splitlines()[0] == "HBG-RESUME 1"
        assert parse_resume(text) == state
        assert serialize_resume(parse_resume(text)) == text

    def test_requires_pending_lines(self):
        with pytest.raises(ParseError):
            parse_resume("HBG-RESUME 1\ng 14\nn 266\nb 7\nmode prove-nonexistence\n"
                         "reduction off\n")

    def test_shard_bounds_validated(self):
        with pytest.raises(ParseError):
            parse_resume("HBG-RESUME 1\ng 14\nn 266\nb 7\nmode prove-nonexistence\n"
                         "reduction off\nshard 4 10\n")

    @pytest.mark.parametrize("lineno, bad", [
        (7, "shard 13 z"),
        (6, "reduction maybe"),
        (5, "mode fastest"),
        (5, "mode count-only"),
    ])
    def test_malformed_line_names_file_and_line(self, lineno, bad):
        lines = ["HBG-RESUME 1", "g 14", "n 266", "b 7", "mode prove-nonexistence",
                 "reduction off", "shard 13 263"]
        lines[lineno - 1] = bad
        with pytest.raises(ParseError, match=f"^x.resume:{lineno}: "):
            parse_resume("\n".join(lines) + "\n", source="x.resume")


class TestBoundsTable:
    def test_resolved_row_from_search_results(self):
        inputs = {1: BoundsInput(exhausted=frozenset({6, 8, 10, 12}),
                                 uppers=((14, True, "search"),))}
        (row,) = bounds_table(6, [1], None, inputs)
        assert (row.lb, row.proven_lower, row.upper, row.status) == (14, 14, 14, "resolved")

    def test_paper_style_claimed_row(self):
        claimed = frozenset(range(264, 433, 8)) | {456}
        inputs = {4: BoundsInput(exhausted=claimed, uppers=((440, False, "catalog"),))}
        (row,) = bounds_table(14, [4], None, inputs)
        assert (row.lb, row.proven_lower, row.upper) == (264, 440, 440)
        assert row.status == "resolved-claimed" and not row.upper_verified

    def test_not_exist_row(self):
        inputs = {3: BoundsInput(exhausted=frozenset(range(258, 385, 6)))}
        (row,) = bounds_table(14, [3], None, inputs)
        assert (row.proven_lower, row.upper, row.status) == (390, None, "not-exist")

    def test_empty_row_is_open(self):
        (row,) = bounds_table(14, [5], None, {})
        assert (row.lb, row.proven_lower, row.upper, row.status) == (260, 260, None, "open")

    def test_gap_stops_proven_lower(self):
        inputs = {3: BoundsInput(exhausted=frozenset({258, 270}))}
        (row,) = bounds_table(14, [3], None, inputs)
        assert row.proven_lower == 264

    def test_witnessed_and_exhausted_conflict_rejected(self):
        inputs = {1: BoundsInput(exhausted=frozenset({14}), uppers=((14, True, "x"),))}
        with pytest.raises(ValueError):
            bounds_table(6, [1], None, inputs)

    def test_any_witness_at_an_exhausted_order_rejected(self):
        # the least witness (14) is fine; the second sits at an exhausted order
        inputs = {1: BoundsInput(exhausted={20}, uppers=[(14, True, "a.hbg"),
                                                         (20, True, "b.hbg")])}
        with pytest.raises(ValueError, match=r"order 20 \(b\.hbg\) both witnessed and exhausted"):
            bounds_table(6, [1], None, inputs)

    def test_witness_below_the_lower_bound_rejected(self):
        inputs = {1: BoundsInput(uppers=[(14, True, "g6_n14_b1_w000.hbg")])}
        with pytest.raises(ValueError, match="g6_n14_b1_w000.hbg .*lower bound 20"):
            bounds_table(6, [1], 20, inputs)

    def test_formats(self):
        inputs = {1: BoundsInput(uppers=((14, True, "x"),))}
        rows = bounds_table(6, [1], None, inputs)
        text = format_bounds_table(6, rows)
        kv = format_bounds_table(6, rows, fmt="kv")
        assert "resolved" in text and "open" not in text
        assert kv.splitlines()[-1] == "row 1 14 14 14 verified resolved"


class TestNonExistenceReport:
    def certs_for(self, g, b, orders, mode="prove"):
        out = []
        for n in orders:
            spec = SearchSpec(g=g, b=b, orders=(n,), mode=mode)
            out.append(enumerate_order(spec, n).certificate)
        return out

    def test_basic_report(self):
        certs = self.certs_for(6, 1, [6, 8, 10, 12])
        report = non_existence_report(6, certs)
        assert report == {1: [6, 8, 10, 12]}
        text = format_non_existence(6, report)
        assert "b=1: 6, 8, 10, 12" in text

    def test_empty_report(self):
        assert non_existence_report(6, []) == {}
        assert "(no certified orders)" in format_non_existence(6, {})

    def test_witnessed_cert_rejected(self):
        certs = self.certs_for(6, 1, [14], mode="all")
        with pytest.raises(ValueError):
            non_existence_report(6, certs)

    def test_breached_cert_rejected(self):
        spec = SearchSpec(g=14, b=3, orders=(258,), mode="prove", node_budget=100)
        cert = enumerate_order(spec, 258).certificate
        assert cert.status == "budget-exceeded"
        with pytest.raises(ValueError):
            non_existence_report(14, [cert])

    def test_wrong_girth_rejected(self):
        certs = self.certs_for(6, 1, [12])
        with pytest.raises(ValueError):
            non_existence_report(8, certs)

    def test_reduced_cert_rejected(self):
        spec = SearchSpec(g=6, b=1, orders=(12,), mode="prove", reduction=True)
        cert = enumerate_order(spec, 12).certificate
        assert cert.covers_order() and cert.leaves == 0
        assert "reduction on" in evidence_refusal(cert)
        with pytest.raises(ValueError, match="reduction on"):
            non_existence_report(6, [cert])

    def test_evidence_is_unreduced_complete_and_leaf_free(self):
        (proof,) = self.certs_for(6, 1, [12])
        (found,) = self.certs_for(6, 1, [14], mode="all")
        assert evidence_refusal(proof) is None
        assert evidence_refusal(found) == "2 witnesses found"
        partial = replace(proof, covered=(), expansions=0, conflicts=0, girth_rejects=0,
                          sym_skips=0, nodes=0)
        assert "full root span" in evidence_refusal(partial)


class TestClaims:
    def test_parse(self):
        g, bound, data = parse_claims("HBG-CLAIMS 1\ng 14\nexhausted 4 264\n"
                                      "exhausted 4 272\nupper 4 440 catalog fig\n")
        assert (g, bound) == (14, None)
        assert data[4].exhausted == frozenset({264, 272})
        assert data[4].uppers == [(440, False, "catalog fig")]

    def test_bad_lines_rejected(self):
        with pytest.raises(ParseError):
            parse_claims("HBG-CLAIMS 1\ng 14\nexhausted 4\n")
        with pytest.raises(ParseError):
            parse_claims("HBG-CLAIMS 1\nexhausted 4 264\n")
