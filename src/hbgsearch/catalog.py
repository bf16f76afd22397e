"""Witness files, certificates, resume state, bound tables and verification.

All on-disk formats are ASCII, line-oriented `key value` text with a magic
header, so outputs are human-diffable and byte-deterministic.  The witness
format is:

    HBG 1
    g <int>
    n <int>
    b <int>
    offsets <2b space-separated ints>
    note <free text>          (optional)

Offsets are least positive residues with 1-based vertex semantics: vertex i
joins vertex i + offset (mod n).  Unknown keys are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from importlib import resources

from .girth import girth_oracle
from .pattern import (
    OffsetPattern,
    PatternError,
    derived_symmetry_factors,
    expand,
    expansion_defects,
    validate_pattern,
)
from .search import MODES, ExhaustionCertificate, ShardRange, certificate_defects

WITNESS_MAGIC = "HBG 1"
CERT_MAGIC = "HBG-CERT 1"
RESUME_MAGIC = "HBG-RESUME 1"
CLAIMS_MAGIC = "HBG-CLAIMS 1"


class ParseError(ValueError):
    """Malformed catalog file; message carries file and line context."""

    def __init__(self, source: str, lineno: int, message: str):
        super().__init__(f"{source}:{lineno}: {message}")
        self.source = source
        self.lineno = lineno


@dataclass(frozen=True)
class CatalogEntry:
    """A persisted witness claim: girth target, order, symmetry factor, offsets.

    measured_girth is filled by verification and is never serialized; the
    byte round trip covers the claim fields only.
    """

    g: int
    order: int
    b: int
    offsets: tuple[int, ...]
    note: str | None = None
    measured_girth: int | None = None


def _split_lines(text: str, source: str, magic: str) -> list[tuple[int, str]]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != magic:
        raise ParseError(source, 1, f"expected magic header {magic!r}")
    out = []
    for i, line in enumerate(lines[1:], start=2):
        if line.strip() == "":
            continue
        out.append((i, line.rstrip("\n")))
    return out


def _int_field(source: str, lineno: int, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(source, lineno, f"{key}: expected an integer, got {value!r}") from None


def parse_witness(text: str, source: str = "<string>") -> CatalogEntry:
    """Parse a witness file; grammar errors raise ParseError.

    Structural validity of the pattern itself is the job of verify_witness;
    this only enforces the file grammar (key order, integer fields, offset
    count matching 2b) and normalizes offsets into (0, n).
    """
    body = _split_lines(text, source, WITNESS_MAGIC)
    expected = ["g", "n", "b", "offsets"]
    fields: dict[str, object] = {}
    note = None
    for idx, (lineno, line) in enumerate(body):
        key, _, value = line.partition(" ")
        if idx < len(expected):
            if key != expected[idx]:
                raise ParseError(source, lineno,
                                 f"expected key {expected[idx]!r}, got {key!r}")
        elif key == "note" and "note" not in fields:
            fields["note"] = True
            note = value
            continue
        else:
            raise ParseError(source, lineno, f"unknown or repeated key {key!r}")
        if key == "offsets":
            try:
                offs = tuple(int(tok) for tok in value.split())
            except ValueError:
                raise ParseError(source, lineno, "offsets: expected integers") from None
            fields["offsets"] = offs
        else:
            fields[key] = _int_field(source, lineno, key, value)
    for key in expected:
        if key not in fields:
            raise ParseError(source, len(body) + 1, f"missing required key {key!r}")
    g = fields["g"]
    n = fields["n"]
    b = fields["b"]
    offs = fields["offsets"]
    if n < 6 or n % 2 != 0:
        raise ParseError(source, 1, f"n={n}: order must be an even integer >= 6")
    if b < 1:
        raise ParseError(source, 1, f"b={b}: symmetry factor must be positive")
    if len(offs) != 2 * b:
        raise ParseError(source, 1, f"expected {2 * b} offsets for b={b}, got {len(offs)}")
    offs = tuple(d % n for d in offs)
    return CatalogEntry(g=g, order=n, b=b, offsets=offs, note=note)


def serialize_witness(entry: CatalogEntry) -> str:
    if entry.note is not None and ("\n" in entry.note or "\r" in entry.note):
        raise ValueError("witness note must be a single line")
    lines = [
        WITNESS_MAGIC,
        f"g {entry.g}",
        f"n {entry.order}",
        f"b {entry.b}",
        "offsets " + " ".join(str(d) for d in entry.offsets),
    ]
    if entry.note is not None:
        lines.append(f"note {entry.note}")
    return "\n".join(lines) + "\n"


def parse_witness_file(path) -> CatalogEntry:
    with open(path, "r", encoding="ascii") as fh:
        return parse_witness(fh.read(), source=str(path))


def write_witness_file(path, entry: CatalogEntry) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_witness(entry))


# --- lower bounds ---------------------------------------------------------

def moore_floor(g: int) -> int:
    """Counting lower bound on the order of a degree-3 graph with even girth g."""
    if g < 4 or g % 2 != 0:
        raise ValueError(f"even girth >= 4 required, got {g}")
    return 2 * (2 ** (g // 2) - 1)


@dataclass(frozen=True)
class LowerBoundConfig:
    """Best known (3, g) order bounds: counting floor plus published overrides."""

    overrides: tuple[tuple[int, int], ...] = ()

    def bound(self, g: int) -> int:
        floor = moore_floor(g)
        for gg, val in self.overrides:
            if gg == g:
                return val
        return floor

    @classmethod
    def from_text(cls, text: str, source: str = "<string>") -> "LowerBoundConfig":
        pairs = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            if len(toks) != 2:
                raise ParseError(source, lineno, "expected '<girth> <bound>'")
            g = _int_field(source, lineno, "girth", toks[0])
            val = _int_field(source, lineno, "bound", toks[1])
            if g % 2 != 0 or g < 4:
                raise ParseError(source, lineno, f"girth {g} must be even and >= 4")
            if val < moore_floor(g):
                raise ParseError(source, lineno,
                                 f"bound {val} below the counting floor {moore_floor(g)}")
            pairs.append((g, val))
        return cls(overrides=tuple(pairs))

    @classmethod
    def from_file(cls, path) -> "LowerBoundConfig":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_text(fh.read(), source=str(path))

    @classmethod
    def default(cls) -> "LowerBoundConfig":
        text = resources.files("hbgsearch").joinpath("data/lower_bounds.txt").read_text("ascii")
        return cls.from_text(text, source="hbgsearch/data/lower_bounds.txt")


def lower_bound_order(g: int, b: int, config: LowerBoundConfig | None = None) -> int:
    """Smallest order >= the configured (3, g) bound that is divisible by 2b."""
    if b < 1:
        raise ValueError(f"b must be positive, got {b}")
    if config is None:
        config = LowerBoundConfig.default()
    lb = config.bound(g)
    step = 2 * b
    return ((lb + step - 1) // step) * step


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

    def verified_entry(self) -> CatalogEntry:
        return replace(self.entry, measured_girth=self.measured_girth)

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

def serialize_certificate(cert: ExhaustionCertificate) -> str:
    """Canonical byte form of a certificate; wall time is deliberately omitted."""
    lines = [
        CERT_MAGIC,
        f"g {cert.g}",
        f"n {cert.order}",
        f"b {cert.b}",
        f"mode {cert.mode}",
        f"reduction {'on' if cert.reduction else 'off'}",
        f"positions {cert.positions}",
        f"pairs {cert.free_pairs}",
        f"roots {cert.root_lo} {cert.root_hi}",
    ]
    for lo, hi in cert.covered:
        lines.append(f"covered {lo} {hi}")
    lines += [
        f"status {cert.status}",
        f"expansions {cert.expansions}",
        f"conflicts {cert.conflicts}",
        f"girth-rejects {cert.girth_rejects}",
        f"sym-skips {cert.sym_skips}",
        f"nodes {cert.nodes}",
        f"leaves {cert.leaves}",
        f"engine {cert.engine}",
    ]
    return "\n".join(lines) + "\n"


def parse_certificate(text: str, source: str = "<string>") -> ExhaustionCertificate:
    body = _split_lines(text, source, CERT_MAGIC)
    fields: dict[str, str] = {}
    covered: list[tuple[int, int]] = []
    for lineno, line in body:
        key, _, value = line.partition(" ")
        if key == "covered":
            toks = value.split()
            if len(toks) != 2:
                raise ParseError(source, lineno, "covered: expected '<lo> <hi>'")
            covered.append((int(toks[0]), int(toks[1])))
            continue
        if key in fields:
            raise ParseError(source, lineno, f"repeated key {key!r}")
        fields[key] = value
    required = ["g", "n", "b", "mode", "reduction", "positions", "pairs", "roots",
                "status", "expansions", "conflicts", "girth-rejects", "sym-skips",
                "nodes", "leaves", "engine"]
    for key in required:
        if key not in fields:
            raise ParseError(source, len(body) + 1, f"missing key {key!r}")
    extra = set(fields) - set(required)
    if extra:
        raise ParseError(source, 1, f"unknown keys {sorted(extra)}")
    roots = fields["roots"].split()
    if len(roots) != 2:
        raise ParseError(source, 1, "roots: expected '<lo> <hi>'")
    cert = ExhaustionCertificate(
        g=int(fields["g"]), order=int(fields["n"]), b=int(fields["b"]),
        mode=fields["mode"], reduction=fields["reduction"] == "on",
        root_lo=int(roots[0]), root_hi=int(roots[1]), covered=tuple(covered),
        status=fields["status"], expansions=int(fields["expansions"]),
        conflicts=int(fields["conflicts"]), girth_rejects=int(fields["girth-rejects"]),
        sym_skips=int(fields["sym-skips"]), nodes=int(fields["nodes"]),
        leaves=int(fields["leaves"]), engine=fields["engine"],
    )
    if int(fields["positions"]) != cert.positions or int(fields["pairs"]) != cert.free_pairs:
        raise ParseError(source, 1, "positions/pairs lines inconsistent with b")
    defects = certificate_defects(cert)
    if defects:
        raise ParseError(source, 1, "inconsistent certificate: " + "; ".join(defects))
    return cert


def parse_certificate_file(path) -> ExhaustionCertificate:
    with open(path, "r", encoding="ascii") as fh:
        return parse_certificate(fh.read(), source=str(path))


def write_certificate_file(path, cert: ExhaustionCertificate) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_certificate(cert))


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


def serialize_resume(state: ResumeState) -> str:
    lines = [
        RESUME_MAGIC,
        f"g {state.g}",
        f"n {state.order}",
        f"b {state.b}",
        f"mode {state.mode}",
        f"reduction {'on' if state.reduction else 'off'}",
    ]
    if state.node_budget is not None:
        lines.append(f"node-budget {state.node_budget}")
    for rng in state.pending:
        lines.append(f"shard {rng.lo} {rng.hi}")
    return "\n".join(lines) + "\n"


_RESUME_CHOICES = {"mode": MODES, "reduction": ("on", "off")}


def parse_resume(text: str, source: str = "<string>") -> ResumeState:
    body = _split_lines(text, source, RESUME_MAGIC)
    fields: dict[str, object] = {}
    pending: list[ShardRange] = []
    for lineno, line in body:
        key, _, value = line.partition(" ")
        if key == "shard":
            toks = value.split()
            if len(toks) != 2:
                raise ParseError(source, lineno, "shard: expected '<lo> <hi>'")
            lo, hi = (_int_field(source, lineno, key, tok) for tok in toks)
            if lo > hi or lo % 2 == 0 or hi % 2 == 0:
                raise ParseError(source, lineno, f"shard {lo}..{hi}: bounds must be odd, lo <= hi")
            pending.append(ShardRange(lo, hi))
            continue
        if key in fields:
            raise ParseError(source, lineno, f"repeated key {key!r}")
        if key in ("g", "n", "b", "node-budget"):
            fields[key] = _int_field(source, lineno, key, value)
        elif key in _RESUME_CHOICES:
            if value not in _RESUME_CHOICES[key]:
                raise ParseError(source, lineno, f"{key}: expected one of "
                                 f"{', '.join(_RESUME_CHOICES[key])}, got {value!r}")
            fields[key] = value
        else:
            raise ParseError(source, lineno, f"unknown key {key!r}")
    for key in ("g", "n", "b", "mode", "reduction"):
        if key not in fields:
            raise ParseError(source, len(body) + 1, f"missing key {key!r}")
    if not pending:
        raise ParseError(source, len(body) + 1, "no pending shard lines")
    return ResumeState(
        g=fields["g"], order=fields["n"], b=fields["b"], mode=fields["mode"],
        reduction=fields["reduction"] == "on", node_budget=fields.get("node-budget"),
        pending=tuple(pending),
    )


def parse_resume_file(path) -> ResumeState:
    with open(path, "r", encoding="ascii") as fh:
        return parse_resume(fh.read(), source=str(path))


def write_resume_file(path, state: ResumeState) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_resume(state))


# --- bound tables and non-existence reports --------------------------------

@dataclass(frozen=True)
class BoundsInput:
    """Evidence for one symmetry factor: exhausted orders and witness orders."""

    exhausted: frozenset[int] = frozenset()
    uppers: tuple[tuple[int, bool, str], ...] = ()  # (order, verified, tag)


@dataclass(frozen=True)
class BoundsRow:
    b: int
    lb: int
    proven_lower: int
    upper: int | None
    upper_verified: bool
    status: str


def bounds_table(g: int, bs, config: LowerBoundConfig | None,
                 inputs: dict[int, BoundsInput]) -> list[BoundsRow]:
    """Per-b bound summary in the style of a sub-problem bound table.

    proven_lower is the first order on the 2b lattice at or above lb that
    lacks exhaustion evidence; the status legend is resolved (lower equals a
    verified upper), lb-improved (lower raised, witness above), not-exist
    (lower raised, no witness known) and open (no progress past lb).  A row
    whose bounds meet only through unverified claims is marked
    resolved-claimed, never plain resolved.
    """
    if config is None:
        config = LowerBoundConfig.default()
    rows = []
    for b in bs:
        data = inputs.get(b, BoundsInput())
        lb = lower_bound_order(g, b, config)
        k = lb
        while k in data.exhausted:
            k += 2 * b
        proven_lower = k
        upper = None
        upper_verified = False
        if data.uppers:
            upper, upper_verified, _ = min(data.uppers)
        if upper is not None and upper in data.exhausted:
            raise ValueError(
                f"b={b}: order {upper} both witnessed and exhausted; inputs inconsistent")
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


def non_existence_report(g: int, certificates,
                         expected: dict[int, list[int]] | None = None) -> dict[int, list[int]]:
    """Ascending non-existence orders per symmetry factor, from certificates.

    Only complete full-span certificates with zero leaves count as evidence;
    anything else raises.  When `expected` is given, every listed order must
    be backed by a certificate.
    """
    by_b: dict[int, list[int]] = {}
    seen: dict[tuple[int, int], ExhaustionCertificate] = {}
    for cert in certificates:
        if cert.g != g:
            raise ValueError(f"certificate for g={cert.g} mixed into a g={g} report")
        if cert.status == "budget-exceeded":
            raise ValueError(
                f"order {cert.order} (b={cert.b}): budget-breached run is not exhaustion evidence")
        if not cert.covers_order():
            raise ValueError(
                f"order {cert.order} (b={cert.b}): certificate does not cover the full root span")
        if cert.leaves != 0:
            raise ValueError(
                f"order {cert.order} (b={cert.b}): {cert.leaves} witnesses found; not non-existence")
        defects = certificate_defects(cert)
        if defects:
            raise ValueError(f"order {cert.order} (b={cert.b}): " + "; ".join(defects))
        seen[(cert.b, cert.order)] = cert
        by_b.setdefault(cert.b, []).append(cert.order)
    if expected:
        for b, orders in expected.items():
            for order in orders:
                if (b, order) not in seen:
                    raise ValueError(f"order {order} (b={b}): certificate missing")
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

def parse_claims(text: str, source: str = "<string>") -> tuple[int, dict[int, BoundsInput]]:
    """Unverified per-b claims: `exhausted <b> <order>` and `upper <b> <order> [tag]`."""
    body = _split_lines(text, source, CLAIMS_MAGIC)
    g = None
    exhausted: dict[int, set[int]] = {}
    uppers: dict[int, list[tuple[int, bool, str]]] = {}
    for lineno, line in body:
        key, _, value = line.partition(" ")
        if key == "g":
            if g is not None:
                raise ParseError(source, lineno, "repeated key 'g'")
            g = _int_field(source, lineno, "g", value)
        elif key == "exhausted":
            toks = value.split()
            if len(toks) != 2:
                raise ParseError(source, lineno, "exhausted: expected '<b> <order>'")
            exhausted.setdefault(int(toks[0]), set()).add(int(toks[1]))
        elif key == "upper":
            toks = value.split()
            if len(toks) < 2:
                raise ParseError(source, lineno, "upper: expected '<b> <order> [tag]'")
            b = int(toks[0])
            uppers.setdefault(b, []).append((int(toks[1]), False, " ".join(toks[2:])))
        else:
            raise ParseError(source, lineno, f"unknown key {key!r}")
    if g is None:
        raise ParseError(source, len(body) + 1, "missing key 'g'")
    out: dict[int, BoundsInput] = {}
    for b in set(exhausted) | set(uppers):
        out[b] = BoundsInput(exhausted=frozenset(exhausted.get(b, ())),
                             uppers=tuple(uppers.get(b, ())))
    return g, out


def parse_claims_file(path) -> tuple[int, dict[int, BoundsInput]]:
    with open(path, "r", encoding="ascii") as fh:
        return parse_claims(fh.read(), source=str(path))


def merge_bounds_inputs(a: BoundsInput, b: BoundsInput) -> BoundsInput:
    return BoundsInput(exhausted=a.exhausted | b.exhausted, uppers=a.uppers + b.uppers)
