"""Witness files, certificates, resume state, bound tables and verification.

All on-disk formats are ASCII, line-oriented `key value` text with a magic
header, so outputs are human-diffable and byte-deterministic.  Each format is
one `_Format` table, read by `_read` and written by `_write`.  The witness
format is:

    HBG 1
    g <int>
    n <int>
    b <int>
    offsets <2b space-separated ints>
    note <free text>          (optional)

Offsets are least positive residues with 1-based vertex semantics: vertex i
joins vertex i + offset (mod n).

Reader contract, shared by every format: printable ASCII only, integers
spelled `-?[0-9]+`, blank lines skipped, unknown and repeated keys rejected,
and any malformed file a ParseError naming `file:line`, with lines counted at
newline characters only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .girth import girth_oracle
from .pattern import (
    OffsetPattern,
    PatternError,
    derived_symmetry_factors,
    expand,
    expansion_defects,
    validate_pattern,
)
from .search import (
    COUNTERS,
    MODES,
    ExhaustionCertificate,
    ShardRange,
    certificate_defects,
    root_span_defect,
)


class ParseError(ValueError):
    """Malformed catalog file; message carries file and line context."""

    def __init__(self, source: str, lineno: int, message: str):
        super().__init__(f"{source}:{lineno}: {message}")
        self.source = source
        self.lineno = lineno


# --- the line format ------------------------------------------------------

_INTEGER = re.compile(r"-?[0-9]+")


def _int(value: str) -> int:
    if not _INTEGER.fullmatch(value.strip()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _count(value: str) -> int:
    k = _int(value)
    if k < 1:
        raise ValueError(f"expected at least 1, got {k}")
    return k


def _ints(count: int | None = None, tail: bool = False) -> Callable[[str], tuple]:
    """Kind: `count` integers (any number when None), then free text if `tail`."""
    def parse(value: str) -> tuple:
        toks = value.split()
        k = len(toks) if count is None else count
        if len(toks) < k or (len(toks) > k and not tail):
            raise ValueError(f"expected {k} integers, got {value!r}")
        ints = tuple(_int(tok) for tok in toks[:k])
        return ints + (" ".join(toks[k:]),) if tail else ints
    return parse


def _words(*allowed: str) -> Callable[[str], str]:
    def parse(value: str) -> str:
        if value not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}, got {value!r}")
        return value
    return parse


def _odd_range(value: str) -> tuple[int, int]:
    lo, hi = _ints(2)(value)
    if lo > hi or lo % 2 == 0 or hi % 2 == 0:
        raise ValueError(f"{lo}..{hi}: bounds must be odd, lo <= hi")
    return lo, hi


def _printable(line: str) -> bool:
    return line.isascii() and line.isprintable()


class _Format:
    """One file format: magic header, then (key, kind, arity) in writer order.

    A kind parses a value string or raises ValueError; `str` is free text.
    Arity is "1" (exactly once), "?" (at most once), "+" (one or more) or
    "*" (any number).  Keys of an `ordered` format must come in table order.
    """

    def __init__(self, magic: str, keys: tuple[tuple[str, Callable[[str], object], str], ...],
                 ordered: bool = False):
        self.magic, self.keys, self.ordered = magic, keys, ordered
        self.table = {key: (index, kind, arity) for index, (key, kind, arity) in enumerate(keys)}


def _lines(text: str, source: str) -> list[str]:
    """Lines split at newlines only; any other control or non-ASCII character
    is a ParseError at its line."""
    lines = text.split("\n")
    if not _printable(text.replace("\n", "")):
        lineno, line = next((i, line) for i, line in enumerate(lines, 1) if not _printable(line))
        bad = next(c for c in line if not _printable(c))
        raise ParseError(source, lineno, f"character {bad!r} is not printable ASCII")
    return lines


def _read(fmt: _Format, text: str, source: str) -> tuple[dict[str, object], dict[str, int]]:
    """Parsed values by key, and the line of each key's first occurrence.

    Keys of arity "+" or "*" map to lists.  The line numbers let checks that
    span a whole record cite the line of the field they refuse.
    """
    lines = _lines(text, source)
    if lines[0].strip() != fmt.magic:
        raise ParseError(source, 1, f"expected magic header {fmt.magic!r}")
    fields: dict[str, object] = {}
    linenos: dict[str, int] = {}
    last = 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        key, _, value = line.partition(" ")
        if key not in fmt.table:
            raise ParseError(source, lineno, f"unknown key {key!r}")
        index, kind, arity = fmt.table[key]
        if key in fields and arity in ("1", "?"):
            raise ParseError(source, lineno, f"repeated key {key!r}")
        if fmt.ordered and index < last:
            raise ParseError(source, lineno, f"key {key!r} out of order")
        last = index
        try:
            parsed = kind(value)
        except ValueError as exc:
            raise ParseError(source, lineno, f"{key}: {exc}") from None
        linenos.setdefault(key, lineno)
        if arity in ("+", "*"):
            fields.setdefault(key, []).append(parsed)
        else:
            fields[key] = parsed
    for key, _, arity in fmt.keys:
        if arity in ("1", "+") and key not in fields:
            raise ParseError(source, len(lines), f"missing key {key!r}")
    return fields, linenos


def _write(fmt: _Format, fields: dict[str, object]) -> str:
    """File text of `fields`: lists for keys of arity "+" or "*", None for an
    absent optional key, tuples as space-separated values."""
    lines = [fmt.magic]
    for key, _, arity in fmt.keys:
        values = fields[key] if arity in ("+", "*") else [fields[key]]
        for value in values:
            if value is None:
                continue
            text = " ".join(map(str, value)) if isinstance(value, tuple) else str(value)
            if not _printable(text):
                raise ValueError(f"{key}: {text!r} is not one line of printable ASCII")
            lines.append(f"{key} {text}")
    return "\n".join(lines) + "\n"


def _read_file(path) -> str:
    """File contents as text; a byte outside ASCII is a ParseError at its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(str(path), data.count(b"\n", 0, exc.start) + 1,
                         f"byte 0x{data[exc.start]:02x} is not ASCII") from None


# --- witness files --------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """A persisted witness claim: girth target, order, symmetry factor, offsets."""

    g: int
    order: int
    b: int
    offsets: tuple[int, ...]
    note: str | None = None


_WITNESS = _Format("HBG 1", ordered=True, keys=(
    ("g", _int, "1"), ("n", _int, "1"), ("b", _int, "1"),
    ("offsets", _ints(), "1"), ("note", str, "?"),
))


def parse_witness(text: str, source: str = "<string>") -> CatalogEntry:
    """Parse a witness file; grammar errors raise ParseError.

    Structural validity of the pattern itself is the job of verify_witness;
    this only enforces the file grammar (key order, integer fields, offset
    count matching 2b) and normalizes offsets into (0, n).
    """
    fields, line = _read(_WITNESS, text, source)
    n, b, offs = fields["n"], fields["b"], fields["offsets"]
    if n < 6 or n % 2 != 0:
        raise ParseError(source, line["n"], f"n={n}: order must be an even integer >= 6")
    if b < 1:
        raise ParseError(source, line["b"], f"b={b}: symmetry factor must be positive")
    if len(offs) != 2 * b:
        raise ParseError(source, line["offsets"],
                         f"expected {2 * b} offsets for b={b}, got {len(offs)}")
    return CatalogEntry(g=fields["g"], order=n, b=b, offsets=tuple(d % n for d in offs),
                        note=fields.get("note"))


def serialize_witness(entry: CatalogEntry) -> str:
    return _write(_WITNESS, {"g": entry.g, "n": entry.order, "b": entry.b,
                             "offsets": tuple(entry.offsets), "note": entry.note})


def parse_witness_file(path) -> CatalogEntry:
    return parse_witness(_read_file(path), source=str(path))


def write_witness_file(path, entry: CatalogEntry) -> None:
    Path(path).write_text(serialize_witness(entry), encoding="ascii")


# --- lower bounds ---------------------------------------------------------

# best published lower bounds on the order of a (3, g) graph, by girth (Exoo &
# Jajcay, Dynamic Cage Survey, EJC DS16); other girths use the counting floor
KNOWN_BOUNDS = {14: 258}


def moore_floor(g: int) -> int:
    """Counting lower bound on the order of a degree-3 graph with even girth g."""
    if g < 4 or g % 2 != 0:
        raise ValueError(f"even girth >= 4 required, got {g}")
    return 2 * (2 ** (g // 2) - 1)


def lower_bound_order(g: int, b: int, bound: int | None = None) -> int:
    """Smallest order >= the (3, g) lower bound that is divisible by 2b.

    The bound is `bound` when given, else the published bound for g in
    KNOWN_BOUNDS, else the counting floor.
    """
    if b < 1:
        raise ValueError(f"b must be positive, got {b}")
    if bound is None:
        bound = KNOWN_BOUNDS[g] if g in KNOWN_BOUNDS else moore_floor(g)
    step = 2 * b
    return ((bound + step - 1) // step) * step


# --- verification ---------------------------------------------------------

@dataclass(frozen=True)
class VerificationCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    entry: CatalogEntry
    checks: tuple[VerificationCheck, ...]
    measured_girth: int | None
    derived_factors: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def girth_surplus(self) -> bool:
        return (self.measured_girth is not None
                and self.measured_girth > self.entry.g)

    def lines(self) -> list[str]:
        out = [f"{'ok  ' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in self.checks]
        if self.passed:
            tail = f"PASS girth={self.measured_girth}"
            if self.girth_surplus:
                tail += f" (girth-surplus over claimed {self.entry.g})"
            out.append(tail)
        else:
            first = next(c for c in self.checks if not c.passed)
            out.append(f"FAIL {first.detail}")
        return out


def verify_witness(entry: CatalogEntry) -> VerificationReport:
    """Independently check a witness claim; hostile input allowed.

    Re-runs pattern validation, expansion, the plain girth oracle (never the
    symmetry-using fast path or any search machinery) and the derived
    symmetry factors.  Passes only when the measured girth is at least the
    claimed g and the claimed b is among the derived factors.
    """
    checks: list[VerificationCheck] = []
    pattern: OffsetPattern | None = None
    try:
        pattern = validate_pattern(entry.order // 2, entry.b, entry.offsets)
        checks.append(VerificationCheck("pattern", True,
                                        f"valid offset pattern, m={entry.order // 2} b={entry.b}"))
    except PatternError as exc:
        checks.append(VerificationCheck("pattern", False, str(exc)))
    measured = None
    derived: tuple[int, ...] = ()
    if pattern is not None:
        graph = expand(pattern)
        defects = expansion_defects(graph)
        if defects:
            checks.append(VerificationCheck("expansion", False, "; ".join(defects)))
        else:
            checks.append(VerificationCheck(
                "expansion", True,
                f"3-regular simple bipartite, order {graph.order}, {3 * graph.order // 2} edges"))
        result = girth_oracle(graph, cap=graph.order)
        measured = result.value
        if measured is None:
            checks.append(VerificationCheck("girth", False, "oracle found no cycle (impossible)"))
        elif measured >= entry.g:
            checks.append(VerificationCheck("girth", True,
                                            f"measured girth {measured} >= claimed {entry.g}"))
        else:
            checks.append(VerificationCheck("girth", False,
                                            f"girth {measured} < {entry.g}"))
        derived = tuple(sorted(derived_symmetry_factors(pattern)))
        if entry.b in derived:
            checks.append(VerificationCheck("symmetry", True,
                                            f"claimed b={entry.b} among derived factors {list(derived)}"))
        else:
            checks.append(VerificationCheck("symmetry", False,
                                            f"claimed b={entry.b} not among derived factors {list(derived)}"))
    return VerificationReport(entry=entry, checks=tuple(checks),
                              measured_girth=measured, derived_factors=derived)


# --- certificates ---------------------------------------------------------

# the fields that name one search: certificates merge, and a resume file
# resumes, only within one search
_SEARCH_KEYS = (
    ("g", _int, "1"), ("n", _int, "1"), ("b", _int, "1"),
    ("mode", _words(*MODES), "1"), ("reduction", _words("on", "off"), "1"),
)
_COUNTERS = tuple(key.replace("_", "-") for key in COUNTERS)
_CERT = _Format("HBG-CERT 1", keys=_SEARCH_KEYS + (
    ("positions", _int, "1"), ("pairs", _int, "1"), ("roots", _ints(2), "1"),
    ("covered", _ints(2), "*"), ("status", str, "1"),
    *((key, _int, "1") for key in _COUNTERS),
    ("engine", str, "1"),
))


def _search_fields(run) -> dict[str, object]:
    return {"g": run.g, "n": run.order, "b": run.b, "mode": run.mode,
            "reduction": "on" if run.reduction else "off"}


def serialize_certificate(cert: ExhaustionCertificate) -> str:
    """Canonical byte form of a certificate."""
    return _write(_CERT, {
        **_search_fields(cert), "positions": 2 * cert.b, "pairs": cert.b,
        "roots": (cert.root_lo, cert.root_hi), "covered": list(cert.covered),
        "status": cert.status, "engine": cert.engine,
        **{key: getattr(cert, key.replace("-", "_")) for key in _COUNTERS},
    })


def parse_certificate(text: str, source: str = "<string>") -> ExhaustionCertificate:
    fields, line = _read(_CERT, text, source)
    cert = ExhaustionCertificate(
        g=fields["g"], order=fields["n"], b=fields["b"], mode=fields["mode"],
        reduction=fields["reduction"] == "on",
        root_lo=fields["roots"][0], root_hi=fields["roots"][1],
        covered=tuple(fields.get("covered", ())), status=fields["status"],
        engine=fields["engine"],
        **{key.replace("-", "_"): fields[key] for key in _COUNTERS},
    )
    if fields["positions"] != 2 * cert.b or fields["pairs"] != cert.b:
        key = "positions" if fields["positions"] != 2 * cert.b else "pairs"
        raise ParseError(source, line[key], "positions/pairs lines inconsistent with b")
    span = root_span_defect(cert)
    if span:
        raise ParseError(source, line["roots"], span)
    defects = certificate_defects(cert)
    if defects:
        raise ParseError(source, line[_COUNTERS[0]],
                         "inconsistent certificate: " + "; ".join(defects))
    return cert


def parse_certificate_file(path) -> ExhaustionCertificate:
    return parse_certificate(_read_file(path), source=str(path))


def write_certificate_file(path, cert: ExhaustionCertificate) -> None:
    Path(path).write_text(serialize_certificate(cert), encoding="ascii")


# --- resume files ----------------------------------------------------------

@dataclass(frozen=True)
class ResumeState:
    """Pending first-position value ranges of one interrupted order."""

    g: int
    order: int
    b: int
    mode: str
    reduction: bool
    node_budget: int | None
    pending: tuple[ShardRange, ...]


_RESUME = _Format("HBG-RESUME 1", keys=_SEARCH_KEYS + (
    ("node-budget", _count, "?"), ("shard", _odd_range, "+"),
))


def serialize_resume(state: ResumeState) -> str:
    return _write(_RESUME, {**_search_fields(state), "node-budget": state.node_budget,
                            "shard": [(rng.lo, rng.hi) for rng in state.pending]})


def parse_resume(text: str, source: str = "<string>") -> ResumeState:
    fields, _ = _read(_RESUME, text, source)
    return ResumeState(
        g=fields["g"], order=fields["n"], b=fields["b"], mode=fields["mode"],
        reduction=fields["reduction"] == "on", node_budget=fields.get("node-budget"),
        pending=tuple(ShardRange(lo, hi) for lo, hi in fields["shard"]),
    )


def parse_resume_file(path) -> ResumeState:
    return parse_resume(_read_file(path), source=str(path))


def write_resume_file(path, state: ResumeState) -> None:
    Path(path).write_text(serialize_resume(state), encoding="ascii")


# --- bound tables and non-existence reports --------------------------------

@dataclass
class BoundsInput:
    """Evidence for one symmetry factor: exhausted orders and witness orders."""

    exhausted: set[int] = field(default_factory=set)
    uppers: list[tuple[int, bool, str]] = field(default_factory=list)  # (order, verified, tag)


@dataclass(frozen=True)
class BoundsRow:
    b: int
    lb: int
    proven_lower: int
    upper: int | None
    upper_verified: bool
    status: str


def bounds_table(g: int, bs, bound: int | None,
                 inputs: dict[int, BoundsInput]) -> list[BoundsRow]:
    """Per-b bound summary in the style of a sub-problem bound table.

    lb is lower_bound_order(g, b, bound); proven_lower is the first order on
    the 2b lattice at or above lb that lacks exhaustion evidence; the status
    legend is resolved (lower equals a verified upper), lb-improved (lower
    raised, witness above), not-exist (lower raised, no witness known) and
    open (no progress past lb).  A row whose bounds meet only through
    unverified claims is marked resolved-claimed, never plain resolved.
    A row whose least witness lies below lb, or with any witness at an
    exhausted order, has contradicting inputs and raises ValueError.
    """
    rows = []
    for b in bs:
        data = inputs.get(b, BoundsInput())
        lb = lower_bound_order(g, b, bound)
        k = lb
        while k in data.exhausted:
            k += 2 * b
        proven_lower = k
        upper = None
        upper_verified = False
        for order, _, tag in data.uppers:
            if order in data.exhausted:
                raise ValueError(f"b={b}: order {order} ({tag}) both witnessed and "
                                 "exhausted; inputs inconsistent")
        if data.uppers:
            upper, upper_verified, tag = min(data.uppers)
            if upper < lb:
                raise ValueError(f"b={b}: witness {tag} of order {upper} lies below the "
                                 f"lower bound {lb}; inputs inconsistent")
        if upper is not None and proven_lower == upper:
            status = "resolved" if upper_verified else "resolved-claimed"
        elif proven_lower > lb and upper is not None:
            status = "lb-improved"
        elif proven_lower > lb:
            status = "not-exist"
        else:
            status = "open"
        rows.append(BoundsRow(b=b, lb=lb, proven_lower=proven_lower, upper=upper,
                              upper_verified=upper_verified, status=status))
    return rows


def format_bounds_table(g: int, rows: list[BoundsRow], fmt: str = "text") -> str:
    if fmt == "kv":
        lines = ["table bounds", f"g {g}"]
        for r in rows:
            upper = r.upper if r.upper is not None else "-"
            ver = "verified" if r.upper_verified else ("claimed" if r.upper is not None else "-")
            lines.append(f"row {r.b} {r.lb} {r.proven_lower} {upper} {ver} {r.status}")
        return "\n".join(lines) + "\n"
    header = f"(3, {g}) sub-problem bounds by symmetry factor"
    cols = [("b", 4), ("lb", 6), ("lower", 7), ("upper", 16), ("status", 12)]
    lines = [header, "".join(name.ljust(w) for name, w in cols)]
    for r in rows:
        if r.upper is None:
            upper = "-"
        else:
            upper = str(r.upper) + ("" if r.upper_verified else " (claimed)")
        lines.append(
            f"{r.b}".ljust(4) + f"{r.lb}".ljust(6) + f"{r.proven_lower}".ljust(7)
            + upper.ljust(16) + r.status.ljust(12)
        )
    return "\n".join(line.rstrip() for line in lines) + "\n"


def evidence_refusal(cert: ExhaustionCertificate) -> str | None:
    """Why a certificate is not non-existence evidence, or None when it is.

    Non-existence rests on the plain full enumeration: a certificate counts
    only when it is unreduced, complete over the full root span, leaf-free
    and free of defects.
    """
    if cert.reduction:
        return "reduction on; only an unreduced run is evidence"
    if not cert.covers_order():
        return f"status {cert.status}; not a complete run over the full root span"
    if cert.leaves != 0:
        return f"{cert.leaves} witnesses found"
    return "; ".join(certificate_defects(cert)) or None


def non_existence_report(g: int, certificates) -> dict[int, list[int]]:
    """Ascending non-existence orders per symmetry factor, from certificates.

    A certificate that evidence_refusal refuses raises.
    """
    by_b: dict[int, list[int]] = {}
    for cert in certificates:
        if cert.g != g:
            raise ValueError(f"certificate for g={cert.g} mixed into a g={g} report")
        refusal = evidence_refusal(cert)
        if refusal:
            raise ValueError(f"order {cert.order} (b={cert.b}): {refusal}")
        by_b.setdefault(cert.b, []).append(cert.order)
    return {b: sorted(orders) for b, orders in sorted(by_b.items())}


def format_non_existence(g: int, report: dict[int, list[int]], fmt: str = "text") -> str:
    if fmt == "kv":
        lines = ["report non-existence", f"g {g}"]
        for b, orders in report.items():
            lines.append(f"nonexistent {b} " + " ".join(str(n) for n in orders))
        return "\n".join(lines) + "\n"
    lines = [f"(3, {g}) HBG non-existence by symmetry factor"]
    if not report:
        lines.append("(no certified orders)")
    for b, orders in report.items():
        lines.append(f"b={b}: " + ", ".join(str(n) for n in orders))
    return "\n".join(lines) + "\n"


# --- claims files (unverified literature data for tables) ------------------

def _claim(tail: bool = False) -> Callable[[str], tuple]:
    """Kind: `<b> <order>`, then free text if `tail`, for an order that b divides."""
    ints = _ints(2, tail)

    def parse(value: str) -> tuple:
        claim = ints(value)
        b, order = claim[:2]
        if b < 1:
            raise ValueError(f"b={b}: symmetry factor must be positive")
        if order < 6 or order % 2 != 0:
            raise ValueError(f"order {order} is not an even integer >= 6")
        if (order // 2) % b != 0:
            raise ValueError(f"order {order}: b={b} does not divide m={order // 2}")
        return claim
    return parse


_CLAIMS = _Format("HBG-CLAIMS 1", keys=(
    ("g", _int, "1"), ("bound", _int, "?"),
    ("exhausted", _claim(), "*"), ("upper", _claim(tail=True), "*"),
))


def parse_claims(text: str, source: str = "<string>",
                 inputs: dict[int, BoundsInput] | None = None,
                 ) -> tuple[int, int | None, dict[int, BoundsInput]]:
    """Unverified literature data: `bound <order>`, the best known (3, g) lower
    bound, and per-b `exhausted <b> <order>` and `upper <b> <order> [tag]`.

    Returns g, the bound (None when absent) and `inputs` (a new dict when
    None) with the per-b claims added.
    """
    fields, line = _read(_CLAIMS, text, source)
    g, bound = fields["g"], fields.get("bound")
    if g < 4 or g % 2 != 0:
        raise ParseError(source, line["g"], f"g={g}: girth must be even and >= 4")
    # the floor is at least 2^(g/2): a bound of at most g/2 bits is below it,
    # and no floor of unbounded size is computed
    if bound is not None and (bound.bit_length() <= g // 2 or bound < moore_floor(g)):
        raise ParseError(source, line["bound"],
                         f"bound {bound} below the counting floor for girth {g}")
    if inputs is None:
        inputs = {}
    for b, order in fields.get("exhausted", ()):
        inputs.setdefault(b, BoundsInput()).exhausted.add(order)
    for b, order, tag in fields.get("upper", ()):
        inputs.setdefault(b, BoundsInput()).uppers.append((order, False, tag))
    return g, bound, inputs


def parse_claims_file(path, inputs: dict[int, BoundsInput] | None = None,
                      ) -> tuple[int, int | None, dict[int, BoundsInput]]:
    return parse_claims(_read_file(path), source=str(path), inputs=inputs)
