"""Exhaustive pattern search with girth pruning and exhaustion certificates.

The search assigns chord offsets one involution pair at a time: choosing an
offset d for the lowest unassigned position j simultaneously forces position
(j + d) mod 2b to the negated offset, so the tree is b pairs deep.  Each
accepted node is girth-checked through the newly added chord orbit only;
cycles avoiding the new orbit were already checked at the parent, so the
incremental test is equivalent to the full pruning predicate.  Each node
first computes the sound per-node filters of girth.py (its frontier ball,
and the two-chord marks of a partner class the first time a candidate of
that class survives the ball) and hands the rejected far ends to the exact
check, which then runs its BFS only for the candidates they do not decide.

Counters use a fixed accounting that makes certificates mergeable by
summation: nodes = expansions - conflicts - girth_rejects - sym_skips, and
the covered first-position value ranges record exactly which subtrees the
counters describe.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field, replace

from .girth import (
    chord_cycle_shorter_than,
    frontier_ball,
    girth_oracle,
    mark_partner_class,
)
from .pattern import (
    DivisibilityError,
    OffsetPattern,
    PatternError,
    RangeError,
    canonical_form,
    expand,
    validate_pattern,
)

ENGINE_TAG = "hbgsearch-0.1.0"

MODES = ("first-witness", "all-witnesses", "count-only", "prove-nonexistence")

_MODE_ALIASES = {
    "first": "first-witness",
    "all": "all-witnesses",
    "count": "count-only",
    "prove": "prove-nonexistence",
}


def normalize_mode(mode: str) -> str:
    full = _MODE_ALIASES.get(mode, mode)
    if full not in MODES:
        raise ValueError(f"unknown search mode {mode!r}; choose from {', '.join(MODES)}")
    return full


@dataclass(frozen=True)
class SearchSpec:
    """One sub-problem: target girth g, symmetry factor b, orders to scan."""

    g: int
    b: int
    orders: tuple[int, ...]
    mode: str = "all-witnesses"
    node_budget: int | None = None
    wall_budget_s: float | None = None
    reduction: bool = False

    def __post_init__(self):
        if self.g < 4 or self.g % 2 != 0:
            raise ValueError(f"girth target must be an even integer >= 4, got {self.g}")
        if self.b < 1:
            raise ValueError(f"symmetry factor must be positive, got {self.b}")
        object.__setattr__(self, "mode", normalize_mode(self.mode))
        object.__setattr__(self, "orders", tuple(int(n) for n in self.orders))
        for n in self.orders:
            if n < 6 or n % 2 != 0:
                raise ValueError(f"order {n} is not an even integer >= 6")
            if (n // 2) % self.b != 0:
                raise DivisibilityError(f"order {n}: b={self.b} does not divide m={n // 2}")


@dataclass(frozen=True)
class PartialAssignment:
    """Offsets fixed for some involution pairs; None marks unassigned positions."""

    m: int
    b: int
    offsets: tuple[int | None, ...]

    @property
    def frontier(self) -> int | None:
        for j, d in enumerate(self.offsets):
            if d is None:
                return j
        return None


def partial_assignment(m: int, b: int, offsets) -> PartialAssignment:
    """Validate the assigned entries of a partial offset table.

    Assigned entries must individually satisfy the single-offset constraints
    and pairwise involution consistency; unassigned positions are None.
    """
    if m < 3:
        raise RangeError(f"m={m}: no simple trivalent graph below order 6")
    if b < 1 or m % b != 0:
        raise DivisibilityError(f"b={b} does not divide m={m}")
    n = 2 * m
    b2 = 2 * b
    seq = list(offsets)
    if len(seq) != b2:
        raise ValueError(f"expected {b2} entries, got {len(seq)}")
    table: list[int | None] = []
    for j, raw in enumerate(seq):
        if raw is None:
            table.append(None)
            continue
        d = int(raw) % n
        if d == 0 or d == 1 or d == n - 1 or d % 2 == 0:
            raise PatternError(f"position {j + 1}: offset {raw} violates chord constraints")
        table.append(d)
    for j, d in enumerate(table):
        if d is None:
            continue
        t = (j + d) % b2
        if table[t] is None:
            raise PatternError(
                f"position {j + 1} is assigned but its involution partner "
                f"{t + 1} is not; pairs are always filled together"
            )
        if table[t] != n - d:
            raise PatternError(
                f"positions {j + 1} and {t + 1}: assigned offsets are not negations mod {n}"
            )
    return PartialAssignment(m=m, b=b, offsets=tuple(table))


@dataclass(frozen=True)
class ShardRange:
    """Inclusive range of first-position offset values (all odd)."""

    lo: int
    hi: int


@dataclass(frozen=True)
class ExhaustionCertificate:
    """Machine-checkable record of an enumeration run over root ranges.

    Counter semantics: expansions counts every candidate value tried at any
    node; conflicts are candidates whose forced partner position was already
    taken; girth_rejects are candidates pruned by the short-cycle test;
    sym_skips are candidates skipped by the optional canonical-orbit
    reduction; nodes are accepted assignments (the empty root is not
    counted, so certificates merge by plain summation); leaves are complete
    assignments, all of which have girth >= g by construction.

    status is "complete" when the run finished its assigned ranges; the run
    certifies exhaustion of the whole order only when covers_order() holds.
    Wall time is informational and never serialized, keeping outcome files
    byte-identical across runs.
    """

    g: int
    order: int
    b: int
    mode: str
    reduction: bool
    root_lo: int
    root_hi: int
    covered: tuple[tuple[int, int], ...]
    status: str
    expansions: int
    conflicts: int
    girth_rejects: int
    sym_skips: int
    nodes: int
    leaves: int
    engine: str = ENGINE_TAG
    wall_time_s: float | None = field(default=None, compare=False)

    @property
    def positions(self) -> int:
        return self.b * 2

    @property
    def free_pairs(self) -> int:
        return self.b

    def covers_order(self) -> bool:
        return self.status == "complete" and self.covered == ((self.root_lo, self.root_hi),)


def certificate_defects(cert: ExhaustionCertificate) -> list[str]:
    """Internal consistency checks for a certificate."""
    defects = []
    if cert.nodes != cert.expansions - cert.conflicts - cert.girth_rejects - cert.sym_skips:
        defects.append("nodes != expansions - conflicts - girth_rejects - sym_skips")
    if cert.leaves > cert.nodes:
        defects.append("more leaves than visited nodes")
    if any(c < 0 for c in (cert.expansions, cert.conflicts, cert.girth_rejects,
                           cert.sym_skips, cert.nodes, cert.leaves)):
        defects.append("negative counter")
    last = None
    for lo, hi in cert.covered:
        if lo > hi or lo < cert.root_lo or hi > cert.root_hi or lo % 2 == 0 or hi % 2 == 0:
            defects.append(f"covered range {lo}..{hi} outside root span or not odd")
        if last is not None and lo <= last:
            defects.append("covered ranges not ascending/disjoint")
        last = hi
    if cert.status not in ("complete", "budget-exceeded", "halted-witness"):
        defects.append(f"unknown status {cert.status!r}")
    return defects


@dataclass(frozen=True)
class WitnessRecord:
    """A canonical witness together with its independently measured girth."""

    pattern: OffsetPattern
    measured_girth: int


@dataclass(frozen=True)
class OrderOutcome:
    order: int
    status: str  # "witness" | "exhausted" | "undecided"
    witnesses: tuple[WitnessRecord, ...]
    certificate: ExhaustionCertificate
    pending: tuple[ShardRange, ...] = ()


@dataclass(frozen=True)
class SearchOutcome:
    spec: SearchSpec
    per_order: tuple[OrderOutcome, ...]
    minimal_order: int | None


def candidate_values(order: int) -> list[int]:
    """Admissible chord offsets: odd residues in (0, order) minus {1, order-1}."""
    return list(range(3, order - 2, 2))


def root_values(order: int, reduction: bool) -> list[int]:
    """First-position candidates; the reflection orbit halves them when reducing."""
    cand = candidate_values(order)
    if reduction:
        m = order // 2
        return [d for d in cand if d <= m]
    return cand


class _Kernel:
    """Depth-first enumeration below one root value; counters per run_root call."""

    __slots__ = (
        "n", "b2", "g", "cand", "offsets", "reduction", "collect", "root_node",
        "expansions", "conflicts", "girth_rejects", "sym_skips", "nodes", "leaves",
        "witnesses", "breached", "stop", "budget",
    )

    def __init__(self, order: int, b: int, g: int, reduction: bool, collect: str):
        self.n = order
        self.b2 = 2 * b
        self.g = g
        self.cand = candidate_values(order)
        self.offsets = [-1] * self.b2
        self.reduction = reduction
        self.collect = collect
        # every root value is a candidate at the same node, the bare cycle at
        # j=0, so its buffers (and the class marks they gain) outlive a root
        ends, dist = frontier_ball(order, self.b2, self.offsets, 0, g)
        self.root_node = (ends, dist, bytearray(self.b2))

    def run_root(self, root: int, budget: int | None):
        self.expansions = 0
        self.conflicts = 0
        self.girth_rejects = 0
        self.sym_skips = 0
        self.nodes = 0
        self.leaves = 0
        self.witnesses = []
        self.breached = False
        self.stop = False
        self.budget = budget
        # offsets[0] is still -1, so the reduction skips no root value here:
        # root_values already dropped the reflected ones
        self._try_values(0, (root,), *self.root_node)

    def _descend(self):
        offs = self.offsets
        if -1 not in offs:
            self.leaves += 1
            if self.collect != "none":
                self.witnesses.append(tuple(offs))
                if self.collect == "first":
                    self.stop = True
            return
        j = offs.index(-1)
        # this node's own buffers: children build theirs and leave these alone
        ends, dist = frontier_ball(self.n, self.b2, offs, j, self.g)
        self._try_values(j, self.cand, ends, dist, bytearray(self.b2))

    def _try_values(self, j: int, values, ends: bytearray, dist: list[int],
                    built: bytearray):
        """Try each offset in `values` at frontier j, descending into accepted ones.

        ends and dist are the node's frontier_ball; built[t] is set once the
        layer-2 marks of partner class t have been added to ends.
        """
        offs = self.offsets
        n = self.n
        b2 = self.b2
        g = self.g
        budget = self.budget
        first = offs[0]
        reduction = self.reduction
        j_even = j % 2 == 0
        for d in values:
            if budget is not None and self.expansions >= budget:
                self.breached = True
                self.stop = True
                return
            self.expansions += 1
            t = (j + d) % b2
            if offs[t] >= 0:
                self.conflicts += 1
                continue
            if reduction:
                # one position of each pair is even; keep the first offset minimal
                even_value = d if j_even else n - d
                if even_value < first:
                    self.sym_skips += 1
                    continue
            q = j + d
            if q >= n:
                q -= n
            if not ends[q] and not built[t]:
                built[t] = 1
                mark_partner_class(ends, n, b2, offs, j, t, g, dist)
            offs[j] = d
            offs[t] = n - d
            if chord_cycle_shorter_than(n, b2, offs, j, g, ends):
                self.girth_rejects += 1
            else:
                self.nodes += 1
                self._descend()
            offs[j] = -1
            offs[t] = -1
            if self.stop:
                return


class _NodeBudget:
    """Mutable remaining-expansion counter shared across orders of one run."""

    __slots__ = ("remaining",)

    def __init__(self, limit: int | None):
        self.remaining = limit

    def exhausted(self) -> bool:
        return self.remaining is not None and self.remaining <= 0

    def consume(self, k: int):
        if self.remaining is not None:
            self.remaining -= k


def _scan_deadline(spec: SearchSpec, deadline: float | None) -> float | None:
    """The caller's wall deadline, or else one derived from the spec's budget now."""
    if deadline is None and spec.wall_budget_s is not None:
        return time.perf_counter() + spec.wall_budget_s
    return deadline


def _out_of_work(budget: _NodeBudget, deadline: float | None) -> bool:
    """True once the node budget is spent or the wall deadline has passed."""
    return budget.exhausted() or (deadline is not None and time.perf_counter() > deadline)


def _coalesce(ranges: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(ranges):
        if out and lo <= out[-1][1] + 2:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return tuple(out)


def _collect_mode(mode: str) -> str:
    if mode == "first-witness":
        return "first"
    if mode == "all-witnesses":
        return "all"
    return "none"


def _witness_records(spec: SearchSpec, order: int, raw_leaves) -> tuple[WitnessRecord, ...]:
    """Canonicalize, dedupe and independently re-verify raw leaf assignments."""
    m = order // 2
    canon: dict[tuple[int, ...], OffsetPattern] = {}
    for seq in raw_leaves:
        p = validate_pattern(m, spec.b, seq)
        cp = canonical_form(p)
        canon.setdefault(cp.offsets, cp)
    records = []
    for key in sorted(canon):
        cp = canon[key]
        res = girth_oracle(expand(cp), cap=order)
        if res.value is None or res.value < spec.g:
            raise AssertionError(
                f"search produced a leaf failing independent girth check: {key}, {res}"
            )
        records.append(WitnessRecord(pattern=cp, measured_girth=res.value))
    return tuple(records)


def enumerate_order(
    spec: SearchSpec,
    order: int,
    ranges: list[ShardRange] | None = None,
    budget: _NodeBudget | None = None,
    deadline: float | None = None,
    progress=None,
) -> OrderOutcome:
    """Enumerate all patterns of one order within the given root ranges.

    With ranges=None the full first-position value span is searched.  The
    returned certificate records exactly the covered ranges; on a budget or
    wall-clock breach the unfinished root values are reported as pending and
    the (deterministic) counters describe only fully completed roots.

    `progress`, if given, is called as progress(order, roots_done,
    roots_total, expansions_so_far) after each completed root subtree.
    """
    if order not in spec.orders:
        spec = replace(spec, orders=tuple(sorted(set(spec.orders) | {order})))
    roots = root_values(order, spec.reduction)
    span_lo, span_hi = roots[0], roots[-1]
    if ranges is None:
        ranges = [ShardRange(span_lo, span_hi)]
    last_hi = None
    for rng in ranges:
        if rng.lo > rng.hi or rng.lo < span_lo or rng.hi > span_hi:
            raise ValueError(f"root range {rng.lo}..{rng.hi} outside span "
                             f"{span_lo}..{span_hi}")
        if last_hi is not None and rng.lo <= last_hi:
            raise ValueError("root ranges must be ascending and disjoint")
        last_hi = rng.hi
    if budget is None:
        budget = _NodeBudget(spec.node_budget)
    deadline = _scan_deadline(spec, deadline)
    t0 = time.perf_counter()

    totals = {"expansions": 0, "conflicts": 0, "girth_rejects": 0,
              "sym_skips": 0, "nodes": 0, "leaves": 0}
    covered: list[tuple[int, int]] = []
    pending: list[ShardRange] = []
    raw_leaves: list[tuple[int, ...]] = []
    halted = None  # None | "budget" | "witness"
    if spec.g > order:
        # the Hamiltonian cycle itself is shorter than g: nothing to search
        covered, ranges = [(rng.lo, rng.hi) for rng in ranges], []

    kern = _Kernel(order, spec.b, spec.g, spec.reduction, _collect_mode(spec.mode))
    roots_total = sum(1 for d in roots for rng in ranges if rng.lo <= d <= rng.hi)
    roots_done = 0
    for rng in ranges:
        if halted == "budget":
            pending.append(rng)
            continue
        if halted:
            break
        rng_roots = [d for d in roots if rng.lo <= d <= rng.hi]
        done_hi = None
        for root in rng_roots:
            if _out_of_work(budget, deadline):
                halted = "budget"
            else:
                kern.run_root(root, budget.remaining)
                if kern.breached:
                    halted = "budget"
            if halted == "budget":
                pending.append(ShardRange(root, rng.hi))
                break
            for key in totals:
                totals[key] += getattr(kern, key)
            budget.consume(kern.expansions)
            raw_leaves.extend(kern.witnesses)
            roots_done += 1
            if progress is not None:
                progress(order, roots_done, roots_total, totals["expansions"])
            if kern.stop:  # first-witness halt: this root is not fully covered
                halted = "witness"
                break
            done_hi = root
        if done_hi is not None:
            covered.append((rng_roots[0], done_hi))

    status = "complete"
    if halted == "budget":
        status = "budget-exceeded"
    elif halted == "witness":
        status = "halted-witness"
    cert = ExhaustionCertificate(
        g=spec.g, order=order, b=spec.b, mode=spec.mode, reduction=spec.reduction,
        root_lo=span_lo, root_hi=span_hi, covered=_coalesce(covered), status=status,
        expansions=totals["expansions"], conflicts=totals["conflicts"],
        girth_rejects=totals["girth_rejects"], sym_skips=totals["sym_skips"],
        nodes=totals["nodes"], leaves=totals["leaves"],
        wall_time_s=time.perf_counter() - t0,
    )
    witnesses = _witness_records(spec, order, raw_leaves)
    return OrderOutcome(order=order, status=outcome_status(witnesses, cert),
                        witnesses=witnesses, certificate=cert, pending=tuple(pending))


def outcome_status(witnesses, cert: ExhaustionCertificate) -> str:
    # count-only runs have no witness records but still count leaves
    if witnesses or cert.leaves > 0:
        return "witness"
    if cert.covers_order():
        return "exhausted"
    return "undecided"


def partition(spec: SearchSpec, order: int, shards: int) -> list[ShardRange]:
    """Split the first-position value range into near-equal contiguous chunks.

    The union of the shard searches visits exactly the nodes of the
    single-shard search, so merged certificates are independent of the shard
    count.  Empty chunks are dropped when shards exceed the root count.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    roots = root_values(order, spec.reduction)
    count = len(roots)
    shards = min(shards, count)
    base, extra = divmod(count, shards)
    out = []
    at = 0
    for s in range(shards):
        size = base + (1 if s < extra else 0)
        if size == 0:
            continue
        chunk = roots[at:at + size]
        out.append(ShardRange(chunk[0], chunk[-1]))
        at += size
    return out


def merge_certificates(certs: list[ExhaustionCertificate]) -> ExhaustionCertificate:
    """Sum counters of disjoint-range certificates for one search."""
    if not certs:
        raise ValueError("nothing to merge")
    base = certs[0]
    for c in certs:
        if (c.g, c.order, c.b, c.mode, c.reduction, c.root_lo, c.root_hi) != (
                base.g, base.order, base.b, base.mode, base.reduction,
                base.root_lo, base.root_hi):
            raise ValueError("certificates describe different searches; refusing to merge")
    seen_hi = None
    for lo, hi in sorted(r for c in certs for r in c.covered):
        if seen_hi is not None and lo <= seen_hi:
            raise ValueError(f"certificates overlap at root value {lo}; refusing to merge")
        seen_hi = hi
    covered = _coalesce([r for c in certs for r in c.covered])
    statuses = {c.status for c in certs}
    if covered == ((base.root_lo, base.root_hi),):
        # counters always describe exactly the covered roots, so full
        # coverage after merging (e.g. stitching a resumed run onto a
        # breached one) is a completed enumeration
        status = "complete"
    elif "budget-exceeded" in statuses:
        status = "budget-exceeded"
    elif "halted-witness" in statuses:
        status = "halted-witness"
    else:
        status = "complete"
    return ExhaustionCertificate(
        g=base.g, order=base.order, b=base.b, mode=base.mode, reduction=base.reduction,
        root_lo=base.root_lo, root_hi=base.root_hi, covered=covered, status=status,
        expansions=sum(c.expansions for c in certs),
        conflicts=sum(c.conflicts for c in certs),
        girth_rejects=sum(c.girth_rejects for c in certs),
        sym_skips=sum(c.sym_skips for c in certs),
        nodes=sum(c.nodes for c in certs),
        leaves=sum(c.leaves for c in certs),
        wall_time_s=sum(c.wall_time_s or 0.0 for c in certs),
    )


def merge_order_outcomes(spec: SearchSpec, order: int,
                         parts: list[OrderOutcome]) -> OrderOutcome:
    """Deterministically merge disjoint shard outcomes for one order."""
    if not parts:
        raise ValueError("nothing to merge")
    cert = merge_certificates([p.certificate for p in parts])
    pending = tuple(r for p in parts for r in p.pending)
    if spec.mode == "first-witness":
        first = next((p for p in parts if p.witnesses), None)
        witnesses = first.witnesses[:1] if first else ()
    else:
        merged: dict[tuple[int, ...], WitnessRecord] = {}
        for p in parts:
            for w in p.witnesses:
                merged.setdefault(w.pattern.offsets, w)
        witnesses = tuple(merged[k] for k in sorted(merged))
    return OrderOutcome(order=order, status=outcome_status(witnesses, cert),
                        witnesses=witnesses, certificate=cert, pending=pending)


def _shard_worker(payload):
    spec, order, rng, shard_budget, deadline = payload
    return enumerate_order(spec, order, ranges=[rng], budget=_NodeBudget(shard_budget),
                           deadline=deadline)


def enumerate_order_sharded(
    spec: SearchSpec,
    order: int,
    shards: int,
    processes: int | None = None,
    budget: _NodeBudget | None = None,
    deadline: float | None = None,
    progress=None,
) -> OrderOutcome:
    """Partitioned enumeration of one order, optionally on a process pool.

    In process this is one enumerate_order call over the partition.  On a
    pool the node budget is split evenly across shards and every shard stops
    at the same wall deadline; first-witness runs let every shard halt at
    its own first witness, and the merged winner is the one from the lowest
    value range, which equals the serial answer.  A spent budget or a passed
    deadline skips the pool: the in-process call leaves every shard pending.
    """
    ranges = partition(spec, order, shards)
    if budget is None:
        budget = _NodeBudget(spec.node_budget)
    deadline = _scan_deadline(spec, deadline)
    if len(ranges) == 1 or not processes or processes <= 1 or _out_of_work(budget, deadline):
        return enumerate_order(spec, order, ranges=ranges, budget=budget, deadline=deadline,
                               progress=progress)
    per_shard = None
    if budget.remaining is not None:
        per_shard = max(1, budget.remaining // len(ranges))
    # perf_counter is the system-wide monotonic clock (CLOCK_MONOTONIC on
    # Linux), so pool workers can compare against this process's deadline
    payloads = [(spec, order, rng, per_shard, deadline) for rng in ranges]
    with multiprocessing.Pool(processes) as pool:
        parts = pool.map(_shard_worker, payloads)
    merged = merge_order_outcomes(spec, order, parts)
    budget.consume(merged.certificate.expansions)
    return merged


def min_order(spec: SearchSpec, shards: int = 1, processes: int | None = None,
              progress=None) -> SearchOutcome:
    """Scan the spec's orders ascending; stop at the first witness in first mode.

    One node budget and one wall deadline are shared by the whole scan.
    Once an order breaches either, the budget is marked spent, so every
    later order is reported undecided with its full root span pending.
    Per-root progress callbacks fire for in-process searches, sharded ones
    included, but not for pooled shards.
    """
    if list(spec.orders) != sorted(set(spec.orders)):
        raise ValueError("orders must be strictly ascending")
    budget = _NodeBudget(spec.node_budget)
    deadline = _scan_deadline(spec, None)
    outcomes: list[OrderOutcome] = []
    minimal = None
    for order in spec.orders:
        # an order the scan cannot start stays pending as one full-span range
        order_shards = 1 if _out_of_work(budget, deadline) else shards
        oc = enumerate_order_sharded(spec, order, order_shards, processes or 1, budget,
                                     deadline, progress)
        outcomes.append(oc)
        if oc.certificate.status == "budget-exceeded":
            # the breaching subtree did not fit the remaining allowance;
            # later orders would re-breach immediately, so leave them pending
            budget.remaining = 0
        if oc.status == "witness" and minimal is None:
            minimal = order
            if spec.mode == "first-witness":
                break
    return SearchOutcome(spec=spec, per_order=tuple(outcomes), minimal_order=minimal)
