"""Exhaustive pattern search with girth pruning and exhaustion certificates.

The search assigns chord offsets one involution pair at a time: choosing an
offset d for the lowest unassigned position j simultaneously forces position
(j + d) mod 2b to the negated offset, so the tree is b pairs deep.  Each
accepted node is girth-checked through the newly added chord orbit only;
cycles avoiding the new orbit were already checked at the parent, so the
incremental test is equivalent to the full pruning predicate.  When a node
starts it computes the sound per-node filters of girth.py once, with
girth.node_filter: one n-bit int of the far ends they reject (its frontier
ball, and the two-chord marks of every open partner class the ball leaves a
far end of).  It hands that int to the exact check, which then runs its BFS
only for the candidates the filters do not decide.  The balls and the exact
check are one BFS, girth.level_sets, which moves a whole level per step as
a bit set; parity cuts the frontier ball and the exact check to depth g-3,
and the ball around a partner class to g-6, or g-8 when b >= 2.

Counters use a fixed accounting that makes certificates mergeable by
summation: nodes = expansions - conflicts - girth_rejects - sym_skips, and
the covered first-position value ranges record exactly which subtrees the
counters describe.

The kernel's hot path is the per-candidate loop of _Kernel._try_values.
It keeps a node's counts in locals, reads each candidate's partner class
and far end from a table built once per kernel, and writes the counts back
to the kernel before each descent and on every return (end of node,
first-witness halt, budget breach), so the kernel's counters are exact
whenever another node or the caller reads them.  It still calls the exact
check, chord_cycle_shorter_than, once for every candidate that is neither
a conflict nor a symmetry skip, also when the node's filter decides it:
the tier-1 tests and the benchmark's traced self-check both count those
calls.
"""

from __future__ import annotations

import contextlib
import itertools
import operator
import time
from dataclasses import dataclass, replace

from .girth import chord_cycle_shorter_than, girth_oracle, node_filter
from .pattern import (
    DivisibilityError,
    OffsetPattern,
    canonical_form,
    expand,
    validate_pattern,
)

ENGINE_TAG = "hbgsearch-0.1.0"

MODES = ("first-witness", "all-witnesses", "prove-nonexistence")

_MODE_ALIASES = {
    "first": "first-witness",
    "all": "all-witnesses",
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
    It carries no wall time, so outcome files are byte-identical across runs.
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

    def covers_order(self) -> bool:
        return self.status == "complete" and self.covered == ((self.root_lo, self.root_hi),)


# the certificate's counters, in file order; they merge by summation
COUNTERS = ("expansions", "conflicts", "girth_rejects", "sym_skips", "nodes", "leaves")


def root_span_defect(cert: ExhaustionCertificate) -> str | None:
    """Why cert's roots are not the root span of the search it names, or None."""
    try:
        SearchSpec(cert.g, cert.b, (cert.order,), cert.mode)
    except ValueError as exc:
        return f"no such search: {exc}"
    roots = root_values(cert.order, cert.reduction)
    if (cert.root_lo, cert.root_hi) != (roots[0], roots[-1]):
        return (f"roots {cert.root_lo} {cert.root_hi} are not the root span "
                f"{roots[0]} {roots[-1]} of order {cert.order}")
    return None


def certificate_defects(cert: ExhaustionCertificate) -> list[str]:
    """Internal consistency checks for a certificate."""
    span = root_span_defect(cert)
    defects = [span] if span else []
    if cert.nodes != cert.expansions - cert.conflicts - cert.girth_rejects - cert.sym_skips:
        defects.append("nodes != expansions - conflicts - girth_rejects - sym_skips")
    if cert.leaves > cert.nodes:
        defects.append("more leaves than visited nodes")
    if any(getattr(cert, key) < 0 for key in COUNTERS):
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
        "n", "b2", "g", "choices", "offsets", "reduction", "collect", "root_node",
        "expansions", "conflicts", "girth_rejects", "sym_skips", "nodes", "leaves",
        "witnesses", "breached", "stop", "budget",
    )

    def __init__(self, order: int, b: int, g: int, reduction: bool, collect: str):
        self.n = order
        self.b2 = b2 = 2 * b
        self.g = g
        # choices[j]: (d, t, q) for every candidate d at frontier j, ascending,
        # with t = (j + d) mod 2b the partner class d forces and q = (j + d)
        # mod n the far end of its chord
        self.choices = [[(d, (j + d) % b2, (j + d) % order) for d in candidate_values(order)]
                        for j in range(b2)]
        self.offsets = [-1] * b2
        self.reduction = reduction
        self.collect = collect
        # every root value is a candidate at the same node, the bare cycle at
        # j=0, so its filter is computed once per kernel
        self.root_node = node_filter(order, b2, self.offsets, 0, g)

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
        self._try_values(0, ((root, root % self.b2, root),), self.root_node)

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
        self._try_values(j, self.choices[j], node_filter(self.n, self.b2, offs, j, self.g))

    def _try_values(self, j: int, choices, ends: int):
        """Try each candidate (d, t, q) of `choices` at frontier j, descending into accepted ones.

        choices are ascending consecutive odd offsets d, each with the
        partner class t and the far end q it forces, so d's index in choices
        is (d - d0) // 2, where d0 is the first, and trying d makes the
        node's expansions that index plus one.  ends is the node's
        node_filter: bit q rejects candidate d.

        Every candidate that is neither a conflict nor a symmetry skip calls
        the predicate once, even when `ends` already decides it; the tier-1
        tests and the benchmark's traced self-check both count those calls.
        The node's counts live in locals and are written back to the kernel
        before each descent and on every return, so a breach or a halt
        leaves the kernel's counters exact.  A partner class is never j,
        since every offset is odd, so offs[j] is cleared once, on return.
        """
        offs = self.offsets
        n = self.n
        b2 = self.b2
        g = self.g
        predicate = chord_cycle_shorter_than  # looked up per node, so a wrapper sees it
        d0 = choices[0][0]
        base = self.expansions  # the kernel's expansions before d0
        budget = self.budget
        # the least offset the budget does not reach
        d_stop = n if budget is None else d0 + 2 * (budget - base)
        reduction = self.reduction
        if reduction:
            # one position of each pair is even; keep the first offset minimal:
            # skip d unless its even-position value, d or n - d, is >= offs[0]
            first = offs[0]
            lo, hi = (first, n) if j % 2 == 0 else (0, n - first)
        conflicts = rejects = skips = 0
        tried = len(choices)
        for d, t, q in choices:
            if d >= d_stop:
                self.breached = True
                self.stop = True
                tried = (d - d0) // 2
                break
            if offs[t] >= 0:
                conflicts += 1
                continue
            if reduction and not lo <= d <= hi:
                skips += 1
                continue
            offs[j] = d
            offs[t] = n - d
            if predicate(n, b2, offs, j, g, ends, q):
                rejects += 1
                offs[t] = -1
                continue
            i = (d - d0) // 2  # d's index in choices
            self.expansions = base + i + 1
            self.conflicts += conflicts
            self.girth_rejects += rejects
            self.sym_skips += skips
            conflicts = rejects = skips = 0
            self.nodes += 1
            self._descend()
            offs[t] = -1
            if self.stop:
                offs[j] = -1
                return
            base = self.expansions - i - 1  # the descent's expansions included
            if budget is not None:
                d_stop = d0 + 2 * (budget - base)
        offs[j] = -1
        self.expansions = base + tried
        self.conflicts += conflicts
        self.girth_rejects += rejects
        self.sym_skips += skips


@dataclass
class _Budget:
    """The node allowance and wall deadline of one scan, spent as it goes."""

    remaining: int | None
    deadline: float | None = None

    @classmethod
    def of(cls, spec: SearchSpec) -> _Budget:
        """A fresh budget for a scan of spec that starts now."""
        wall = spec.wall_budget_s
        return cls(spec.node_budget, None if wall is None else time.perf_counter() + wall)

    def spent(self) -> bool:
        """True once no expansion is left or the wall deadline has passed."""
        return ((self.remaining is not None and self.remaining <= 0)
                or (self.deadline is not None and time.perf_counter() > self.deadline))

    def consume(self, k: int):
        if self.remaining is not None:
            self.remaining -= k


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


_kernel_counts = operator.attrgetter(*COUNTERS)
_NO_RUN = (None, (), [], False, False)  # read once the records run out


def _root_runs(spec: SearchSpec, order: int, roots, budget: _Budget):
    """Run the kernel below each root in turn while `budget` lasts, spending it.

    Yields one record per root it runs: (root, the root's COUNTERS as a
    tuple, its raw leaves, breached, halted), where breached means it ran
    out of allowance, so its counts are partial, and halted that it stopped
    at its first witness.  It stops after a breach or a halt.  Pulled
    lazily, it runs a root only when asked for that root's record.  The
    records are plain tuples because pool workers pickle them.
    """
    kern = _Kernel(order, spec.b, spec.g, spec.reduction, _collect_mode(spec.mode))
    for root in roots:
        if budget.spent():
            return
        kern.run_root(root, budget.remaining)
        budget.consume(kern.expansions)
        yield (root, _kernel_counts(kern), kern.witnesses, kern.breached,
               kern.stop and not kern.breached)
        if kern.stop:
            return


def enumerate_order(
    spec: SearchSpec,
    order: int,
    ranges: list[ShardRange] | None = None,
    budget: _Budget | None = None,
    progress=None,
    runs=None,
) -> OrderOutcome:
    """Enumerate all patterns of one order within the given root ranges.

    With ranges=None the full first-position value span is searched.  The
    returned certificate records exactly the covered ranges; on a budget or
    wall-clock breach the unfinished root values are reported as pending and
    the (deterministic) counters describe only fully completed roots.  The
    call spends `budget`, the scan's, or else a fresh one from the spec.

    This loop alone decides which roots count.  `runs` iterates over the
    `_root_runs` records of the wanted roots in ascending order, run ahead
    elsewhere (a pool's shards); by default each root runs here when the
    loop reaches it, on a copy of the budget.  A root counts when its
    record is there, did not breach, and needs no more expansions than the
    budget has left; the first root that does not count starts the pending
    range.  A kernel run breaches exactly when it needs more expansions
    than its allowance, a record run ahead had at least the allowance left
    here, and a record is missing only when the budget is spent here too,
    so every run decides as the serial one does.

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
        if rng.lo > rng.hi or rng.lo < span_lo or rng.hi > span_hi or rng.lo % 2 == 0:
            raise ValueError(f"root range {rng.lo}..{rng.hi} not odd or outside span "
                             f"{span_lo}..{span_hi}")
        if last_hi is not None and rng.lo <= last_hi:
            raise ValueError("root ranges must be ascending and disjoint")
        last_hi = rng.hi
    if budget is None:
        budget = _Budget.of(spec)

    totals = [0] * len(COUNTERS)
    covered: list[tuple[int, int]] = []
    pending: list[ShardRange] = []
    raw_leaves: list[tuple[int, ...]] = []
    status = "complete"
    wanted = [d for rng in ranges for d in roots if rng.lo <= d <= rng.hi]
    if spec.g > order:
        # the Hamiltonian cycle itself is shorter than g: nothing to search
        covered, wanted = [(rng.lo, rng.hi) for rng in ranges], []
    if runs is None:
        runs = _root_runs(spec, order, wanted, replace(budget))
    done = 0  # the roots counted are wanted[:done]
    for root in wanted:
        ran, counts, leaves, breached, halted = next(runs, _NO_RUN)
        # counts[0] is the root's expansions, the first of COUNTERS
        if (ran != root or breached
                or (budget.remaining is not None and counts[0] > budget.remaining)):
            status = "budget-exceeded"
            pending = [ShardRange(max(rng.lo, root), rng.hi) for rng in ranges if rng.hi >= root]
            break
        totals = list(map(operator.add, totals, counts))
        budget.consume(counts[0])
        raw_leaves.extend(leaves)
        if progress is not None:
            progress(order, done + 1, len(wanted), totals[0])
        if halted:  # first-witness halt: this root is not fully covered
            status = "halted-witness"
            break
        done += 1
    if done:
        # every odd value in the span is a root, so rng.lo is its range's first root
        last = wanted[done - 1]
        covered = [(rng.lo, min(rng.hi, last)) for rng in ranges if rng.lo <= last]

    cert = ExhaustionCertificate(
        g=spec.g, order=order, b=spec.b, mode=spec.mode, reduction=spec.reduction,
        root_lo=span_lo, root_hi=span_hi, covered=_coalesce(covered), status=status,
        **dict(zip(COUNTERS, totals)),
    )
    witnesses = _witness_records(spec, order, raw_leaves)
    return OrderOutcome(order=order, status=outcome_status(witnesses, cert),
                        witnesses=witnesses, certificate=cert, pending=tuple(pending))


def outcome_status(witnesses, cert: ExhaustionCertificate) -> str:
    # prove runs keep no witness records but still count leaves
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
    """Sum counters of disjoint-range certificates for one search by one engine."""
    if not certs:
        raise ValueError("nothing to merge")
    base = certs[0]
    for c in certs:
        if (c.g, c.order, c.b, c.mode, c.reduction, c.root_lo, c.root_hi, c.engine) != (
                base.g, base.order, base.b, base.mode, base.reduction,
                base.root_lo, base.root_hi, base.engine):
            raise ValueError("certificates describe different searches or engines; "
                             "refusing to merge")
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
    elif "halted-witness" in statuses:
        # no run writes a resume file after a halt, so in a resume chain the
        # halted certificate is the last one, and the chain ends at the halt
        status = "halted-witness"
    elif "budget-exceeded" in statuses:
        status = "budget-exceeded"
    else:
        status = "complete"
    return ExhaustionCertificate(
        g=base.g, order=base.order, b=base.b, mode=base.mode, reduction=base.reduction,
        root_lo=base.root_lo, root_hi=base.root_hi, covered=covered, status=status,
        **{key: sum(getattr(c, key) for c in certs) for key in COUNTERS},
    )


def merge_order_outcomes(spec: SearchSpec, order: int, parts: list[list[tuple]]
                         ) -> list[tuple]:
    """The root records of disjoint shards of one order, in the order given;
    `parts` are what `_shard_worker` returned, and enumerate_order replays
    the result."""
    return [run for part in parts for run in part]


_scan_over = None  # in a pool worker: the event its scan sets when it ends


def _start_worker(scan_over):
    global _scan_over
    _scan_over = scan_over


def _shard_worker(payload) -> list[tuple]:
    """Run one shard's roots ahead of the scan, on the shard's copy of the budget;
    once the scan is over, run no further root."""
    spec, order, rng, budget = payload
    roots = (d for d in root_values(order, spec.reduction)
             if rng.lo <= d <= rng.hi and not _scan_over.is_set())
    return list(_root_runs(spec, order, roots, budget))


def _pool_ranges(spec: SearchSpec, order: int, shards: int) -> list[ShardRange]:
    """The shards an order sends to a pool: none unless its roots are searched
    and split into more than one range."""
    ranges = partition(spec, order, shards)
    return ranges if len(ranges) > 1 and spec.g <= order else []


def _shard_payloads(spec: SearchSpec, orders, shards: int, budget: _Budget) -> list[tuple]:
    """One `_shard_worker` task per pool shard of the orders, each with its own
    copy of `budget`."""
    # perf_counter is the system-wide monotonic clock (CLOCK_MONOTONIC on
    # Linux), so pool workers can compare against this process's deadline
    return [(spec, order, rng, replace(budget))
            for order in orders for rng in _pool_ranges(spec, order, shards)]


class _ScanPool:
    """The worker pool of one scan, forked when the scan sends its shards.

    `send` starts every shard of the scan through one chunked imap, and
    each pooled order reads the results of its own shards from `results`,
    in turn.  Leaving the `with` block, on every exit path, drops every
    shard sent and not read: each worker finishes the root it is running,
    runs no other, and exits.  The workers are not terminated, because
    Pool.terminate hangs when it kills a worker that holds the lock of the
    result queue.  A scan that sends no shards never forks.
    """

    def __init__(self, processes: int | None):
        self.processes = processes
        self._pool = None
        self._scan_over = None
        self.results = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._pool is not None:
            self._scan_over.set()
            self._pool.close()
            self._pool.join()

    def send(self, payloads: list[tuple]):
        """Start every payload now, in about 8 chunks per process; call once."""
        import multiprocessing  # only a pooled scan pays for the import

        self._scan_over = multiprocessing.Event()
        self._pool = multiprocessing.Pool(self.processes, _start_worker, (self._scan_over,))
        chunk = max(1, len(payloads) // (8 * self.processes))
        self.results = self._pool.imap(_shard_worker, payloads, chunk)


def enumerate_order_sharded(
    spec: SearchSpec,
    order: int,
    shards: int,
    processes: int | None = None,
    budget: _Budget | None = None,
    progress=None,
    pool: _ScanPool | None = None,
) -> OrderOutcome:
    """Enumeration of one order whose roots may run ahead on a process pool.

    In process, or once `budget` is spent, this is one enumerate_order call
    over the full span, whatever `shards` is.  Pooled, each shard runs its
    roots ahead on a copy of the budget, and enumerate_order replays their
    records in root order as each shard's result arrives, so the outcome
    is the serial one for every mode, budget and shard count, and progress
    fires per root.

    `pool` is the scan's pool when `min_order` calls this for each order:
    the order's shards were sent to it when the scan started, and this call
    reads the next ones of its results.  Without a pool, a pooled call
    starts its own and closes it on return.
    """
    if budget is None:
        budget = _Budget.of(spec)
    ranges = _pool_ranges(spec, order, shards)
    if not ranges or not processes or processes <= 1 or budget.spent():
        return enumerate_order(spec, order, budget=budget, progress=progress)
    with contextlib.ExitStack() as scope:
        if pool is None:
            pool = scope.enter_context(_ScanPool(processes))
            pool.send(_shard_payloads(spec, (order,), shards, budget))
        runs = itertools.chain.from_iterable(
            merge_order_outcomes(spec, order, [part])
            for part in itertools.islice(pool.results, len(ranges)))
        return enumerate_order(spec, order, budget=budget, progress=progress, runs=runs)


def min_order(spec: SearchSpec, shards: int = 1, processes: int | None = None,
              progress=None) -> SearchOutcome:
    """Scan the spec's orders ascending; stop at the first witness in first mode.

    The scan has one budget, node allowance and wall deadline together.
    Once an order breaches it, it is marked spent, so every later order is
    undecided and fully pending.  One worker pool serves every pooled order
    of the scan, and is closed when the scan returns or raises.  The shards
    of every pooled order go to it in one stream when the scan starts, each
    with a copy of the whole budget, so no order waits for the previous
    order's slowest shard; shards sent past a first-witness halt or a breach
    are dropped when the pool closes.  The scan spends its budget root by
    root, in root order, whether a root ran in process or on the pool, so
    its outcome is the serial one; progress callbacks fire after each root.
    """
    if list(spec.orders) != sorted(set(spec.orders)):
        raise ValueError("orders must be strictly ascending")
    budget = _Budget.of(spec)
    outcomes: list[OrderOutcome] = []
    minimal = None
    with _ScanPool(processes) as pool:
        if processes and processes > 1 and not budget.spent():
            payloads = _shard_payloads(spec, spec.orders, shards, budget)
            if payloads:
                pool.send(payloads)
        for order in spec.orders:
            oc = enumerate_order_sharded(spec, order, shards, processes or 1, budget,
                                         progress, pool)
            outcomes.append(oc)
            if oc.certificate.status == "budget-exceeded":
                # the breaching subtree did not fit the remaining allowance;
                # later orders would re-breach immediately, so leave them
                # pending, and read no more results from the pool
                budget.remaining = 0
            if oc.status == "witness" and minimal is None:
                minimal = order
                if spec.mode == "first-witness":
                    break
    return SearchOutcome(spec=spec, per_order=tuple(outcomes), minimal_order=minimal)
