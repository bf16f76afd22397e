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

The kernel's hot path is the candidate loop of _Kernel._try_values.  A
node walks only its open candidates, those whose partner class is
unassigned: their far ends, in ascending offset, come from a list built
once per set of assigned classes, and the reduction keeps one slice of
it.  The loop body is one call to the exact check,
chord_cycle_shorter_than, on the node's own table; the table gets a
candidate's pair only for a descent.  The node's conflicts, sym skips and
girth rejects follow from the position where its walk stopped, and are
written back on every return (end of node, first-witness halt, budget
breach), expansions also before each descent, so the kernel's counters
are exact whenever the caller reads them.  The exact check still runs
once for every candidate that is neither a conflict nor a symmetry skip,
also when the node's filter decides it: the tier-1 tests and the
benchmark's traced self-check both count those calls.  A root is the only
candidate of its node, so run_root decides it with one call against the
root filter, which like the open lists is built once per (order, b, g)
in a process, and then descends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import operator
import time
from dataclasses import dataclass, replace

from .girth import chord_cycle_shorter_than, girth_oracle, node_filter
from .pattern import (
    OffsetPattern,
    canonical_form,
    check_girth,
    check_order,
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
        check_girth(self.g)
        if not self.orders:
            raise ValueError("a search needs at least one order")
        object.__setattr__(self, "mode", normalize_mode(self.mode))
        object.__setattr__(self, "orders", tuple(check_order(int(n), self.b)
                                                 for n in self.orders))


@dataclass(frozen=True)
class ExhaustionCertificate:
    """Machine-checkable record of an enumeration run over root ranges.

    A root range is an inclusive (lo, hi) pair of odd root values; covered
    lists the ranges the counters describe, ascending and disjoint.  The
    root span is not stored: root_span derives it from order and reduction.

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
        return (self.status == "complete"
                and self.covered == (root_span(self.order, self.reduction),))


# the certificate's counters, in file order; they merge by summation
COUNTERS = ("expansions", "conflicts", "girth_rejects", "sym_skips", "nodes", "leaves")


def search_defect(g: int, b: int, order: int, mode: str) -> str | None:
    """Why (g, b, order, mode) names no search, or None."""
    try:
        SearchSpec(g, b, (order,), mode)
    except ValueError as exc:
        return f"no such search: {exc}"
    return None


def range_defects(ranges, order: int, reduction: bool) -> list[str]:
    """Why `ranges`, (lo, hi) pairs, are not odd root ranges of the order,
    ascending, disjoint and inside its root span; empty when they are."""
    span_lo, span_hi = root_span(order, reduction)
    defects = [f"root range {lo}..{hi} not odd or outside span {span_lo}..{span_hi}"
               for lo, hi in ranges
               if not (span_lo <= lo <= hi <= span_hi and lo % 2 == hi % 2 == 1)]
    defects += [f"root ranges {lo}..{hi} and {lo2}..{hi2} overlap or are out of order"
                for (lo, hi), (lo2, hi2) in itertools.pairwise(ranges) if lo2 <= hi]
    return defects


def certificate_defects(cert: ExhaustionCertificate) -> list[str]:
    """Internal consistency checks for a certificate."""
    search = search_defect(cert.g, cert.b, cert.order, cert.mode)
    defects = [search] if search else range_defects(cert.covered, cert.order, cert.reduction)
    if cert.nodes != cert.expansions - cert.conflicts - cert.girth_rejects - cert.sym_skips:
        defects.append("nodes != expansions - conflicts - girth_rejects - sym_skips")
    if cert.leaves > cert.nodes:
        defects.append("more leaves than visited nodes")
    if any(getattr(cert, key) < 0 for key in COUNTERS):
        defects.append("negative counter")
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
    witnesses: tuple[WitnessRecord, ...]
    certificate: ExhaustionCertificate
    pending: tuple[tuple[int, int], ...] = ()

    @property
    def status(self) -> str:
        """"witness", "exhausted" or "undecided"."""
        # prove runs keep no witness records but still count leaves
        if self.witnesses or self.certificate.leaves > 0:
            return "witness"
        return "exhausted" if self.certificate.covers_order() else "undecided"


@dataclass(frozen=True)
class SearchOutcome:
    spec: SearchSpec
    per_order: tuple[OrderOutcome, ...]

    @property
    def minimal_order(self) -> int | None:
        """The least order scanned with a witness, or None."""
        return next((oc.order for oc in self.per_order if oc.status == "witness"), None)


def candidate_values(order: int) -> list[int]:
    """Admissible chord offsets: odd residues in (0, order) minus {1, order-1}."""
    return list(range(3, order - 2, 2))


def root_span(order: int, reduction: bool) -> tuple[int, int]:
    """The least and greatest first-position candidate, (lo, hi); every odd
    value between them is one.  The reflection orbit halves them when
    reducing, keeping the values up to m = order / 2."""
    hi = order // 2 if reduction else order - 3
    return 3, hi if hi % 2 else hi - 1


def root_values(order: int, reduction: bool) -> list[int]:
    """First-position candidates, the odd values of root_span."""
    lo, hi = root_span(order, reduction)
    return list(range(lo, hi + 1, 2))


class _OpenLists(dict):
    """The open candidates of a node, by its set of assigned classes, built on first use.

    A key is a bit set of the assigned classes, and the node's frontier j
    its least unassigned class.  Its value is (qs, below): qs the far ends
    (j + d) mod n of the candidates d whose partner class (j + d) mod 2b is
    unassigned, in ascending d, and below[i] the number of those among the
    first i candidates, so an open candidate of index i sits at qs[below[i]].
    """

    def __init__(self, n: int, b2: int):
        super().__init__()
        self.n = n
        self.b2 = b2

    def __missing__(self, key: int):
        n, b2 = self.n, self.b2
        j = (~key & (key + 1)).bit_length() - 1
        qs, below = [], [0]
        for d in candidate_values(n):
            if not key >> (j + d) % b2 & 1:
                qs.append((j + d) % n)
            below.append(len(qs))
        self[key] = entry = (qs, below)
        return entry


@functools.lru_cache(maxsize=4)
def _order_tables(order: int, b: int, g: int) -> tuple[int, _OpenLists]:
    """The root filter and the open lists of one (order, b, g), shared by every
    kernel of it in this process; a pool worker builds them once, not per shard."""
    b2 = 2 * b
    # every root value is a candidate at the same node, the bare cycle at j=0
    return node_filter(order, b2, [-1] * b2, 0, g), _OpenLists(order, b2)


class _Kernel:
    """Depth-first enumeration below one root value; counters per run_root call."""

    __slots__ = (
        "n", "b2", "g", "full", "root_ends", "open_lists", "offsets", "reduction", "collect",
        "expansions", "conflicts", "girth_rejects", "sym_skips", "nodes", "leaves",
        "witnesses", "breached", "stop", "budget",
    )

    def __init__(self, order: int, b: int, g: int, reduction: bool, collect: str):
        self.n = order
        self.b2 = b2 = 2 * b
        self.g = g
        self.full = (1 << b2) - 1  # the key of a complete assignment
        self.root_ends, self.open_lists = _order_tables(order, b, g)
        self.offsets = [-1] * b2
        self.reduction = reduction
        self.collect = collect

    def run_root(self, root: int, budget: int | None):
        """Decide the root candidate, one predicate call against the root
        filter, and search below it if it is accepted.

        The root is the only candidate at the root node; it is never a
        conflict, and root_values already dropped the reflected ones, so
        it is never a symmetry skip either.  A budget, when given, is at
        least 1, as _root_runs only runs a root while some is left.
        """
        self.conflicts = self.girth_rejects = self.sym_skips = self.nodes = self.leaves = 0
        self.witnesses = []
        self.breached = self.stop = False
        self.budget = budget
        self.expansions = 1
        n = self.n
        if chord_cycle_shorter_than(n, self.b2, self.offsets, 0, self.g, self.root_ends, root):
            self.girth_rejects = 1
            return
        self.nodes = 1
        offs = self.offsets
        t = root % self.b2
        offs[0] = root
        offs[t] = n - root
        self._try_values(1 | 1 << t)
        offs[0] = offs[t] = -1

    def _try_values(self, key: int):
        """Search the node whose assigned classes are the bit set `key`.

        A complete assignment is a leaf.  Otherwise the node's frontier j is
        its least unassigned class, and it walks only its open candidates,
        the far ends qs of open_lists[key], in ascending offset: a candidate
        whose partner class is taken is a conflict, and is counted, never
        visited.  The reduction keeps one slice qs[a:ke] of them, and the
        budget ends the walk at the first candidate it does not reach,
        recomputed after each descent.  Each candidate walked is one call to
        the exact check, on the node's own table, with the node_filter bits
        as `ends`.  The table gets the candidate's pair only for a descent.

        The node's counts follow from positions: for the first `reach`
        candidates, of which below[reach] are open, the conflicts are the
        rest, the open ones outside the kept slice are sym skips, and those
        inside that were not accepted are girth rejects.  They are written
        once, on return, and expansions also before each descent, since the
        budget below reads it; so a breach or a halt leaves the kernel's
        counters exact.
        """
        offs = self.offsets
        if key == self.full:
            self.leaves += 1
            if self.collect != "none":
                self.witnesses.append(tuple(offs))
                if self.collect == "first":
                    self.stop = True
            return
        n = self.n
        b2 = self.b2
        g = self.g
        j = (~key & (key + 1)).bit_length() - 1
        qs, below = self.open_lists[key]
        ends = node_filter(n, b2, offs, j, g)
        predicate = chord_cycle_shorter_than  # looked up per node, so a wrapper sees it
        width = len(below) - 1  # the node's candidates; d of index i is 2i + 3
        a, ke = 0, len(qs)
        if self.reduction:
            # one position of each pair is even; keep the first offset minimal:
            # skip d unless its even-position value, d or n - d, is >= offs[0],
            # so keep d <= n - offs[0] at an odd j and d >= offs[0] at an even one
            first = offs[0]
            if j & 1:
                ke = below[(n - first - 1) >> 1]
            else:
                a = below[(first - 3) >> 1]
        base = self.expansions  # the kernel's expansions before this node's first
        budget = self.budget
        # the node's candidates the budget reaches, in ascending offset
        reach = width if budget is None else min(width, budget - base)
        e = min(ke, below[reach])
        accepted = 0
        p = a
        while True:
            for q in qs[p:e]:
                if not predicate(n, b2, offs, j, g, ends, q):
                    break
            else:
                break
            d = (q - j) % n
            i = (d - 3) >> 1  # d's index among the candidates
            p = below[i] + 1
            accepted += 1
            self.expansions = base + i + 1
            t = q % b2
            offs[j] = d
            offs[t] = n - d
            self._try_values(key | 1 << j | 1 << t)
            offs[j] = offs[t] = -1
            base = self.expansions - i - 1  # the descent's expansions included
            if self.stop:
                reach = i + 1
                break
            if budget is not None:
                reach = min(width, budget - base)
                e = min(ke, below[reach])
        opened = below[reach]
        kept = max(0, min(opened, ke) - a)
        self.expansions = base + reach
        self.conflicts += reach - opened
        self.sym_skips += opened - kept
        self.girth_rejects += kept - accepted
        self.nodes += accepted
        if reach < width and not self.stop:
            self.breached = self.stop = True


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
    ranges: list[tuple[int, int]] | None = None,
    budget: _Budget | None = None,
    progress=None,
    runs=None,
) -> OrderOutcome:
    """Enumerate all patterns of one of the spec's orders within root ranges.

    Ranges are (lo, hi) pairs that range_defects accepts, odd, ascending,
    disjoint and inside the root span; ranges=None is the whole span.  An
    order the spec does not name, or any other ranges, is a ValueError.  The
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
        raise ValueError(f"order {order} is not one of the spec's orders {spec.orders}")
    if ranges is None:
        ranges = [root_span(order, spec.reduction)]
    defects = range_defects(ranges, order, spec.reduction)
    if defects:
        raise ValueError("; ".join(defects))
    if budget is None:
        budget = _Budget.of(spec)

    totals = [0] * len(COUNTERS)
    covered: list[tuple[int, int]] = []
    pending: list[tuple[int, int]] = []
    raw_leaves: list[tuple[int, ...]] = []
    status = "complete"
    wanted = [d for lo, hi in ranges for d in range(lo, hi + 1, 2)]
    if spec.g > order:
        # the Hamiltonian cycle itself is shorter than g: nothing to search
        covered, wanted = list(ranges), []
    if runs is None:
        runs = _root_runs(spec, order, wanted, replace(budget))
    done = 0  # the roots counted are wanted[:done]
    for root in wanted:
        ran, counts, leaves, breached, halted = next(runs, _NO_RUN)
        # counts[0] is the root's expansions, the first of COUNTERS
        if (ran != root or breached
                or (budget.remaining is not None and counts[0] > budget.remaining)):
            status = "budget-exceeded"
            pending = [(max(lo, root), hi) for lo, hi in ranges if hi >= root]
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
        # every odd value in the span is a root, so lo is its range's first root
        last = wanted[done - 1]
        covered = [(lo, min(hi, last)) for lo, hi in ranges if lo <= last]

    cert = ExhaustionCertificate(
        g=spec.g, order=order, b=spec.b, mode=spec.mode, reduction=spec.reduction,
        covered=_coalesce(covered), status=status,
        **dict(zip(COUNTERS, totals)),
    )
    return OrderOutcome(order=order, witnesses=_witness_records(spec, order, raw_leaves),
                        certificate=cert, pending=tuple(pending))


def partition(spec: SearchSpec, order: int, shards: int) -> list[tuple[int, int]]:
    """Split the root span into near-equal contiguous (lo, hi) ranges, at
    most one per root.

    The union of the shard searches visits exactly the nodes of the
    single-shard search, so merged certificates are independent of the shard
    count.
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
        chunk = roots[at:at + size]
        out.append((chunk[0], chunk[-1]))
        at += size
    return out


def merge_certificates(certs: list[ExhaustionCertificate]) -> ExhaustionCertificate:
    """Sum counters of disjoint-range certificates for one search by one engine."""
    if not certs:
        raise ValueError("nothing to merge")
    base = certs[0]
    for c in certs:
        if (c.g, c.order, c.b, c.mode, c.reduction, c.engine) != (
                base.g, base.order, base.b, base.mode, base.reduction, base.engine):
            raise ValueError("certificates describe different searches or engines; "
                             "refusing to merge")
    ranges = sorted(r for c in certs for r in c.covered)
    defects = range_defects(ranges, base.order, base.reduction)
    if defects:
        raise ValueError(f"{defects[0]}; refusing to merge")
    covered = _coalesce(ranges)
    statuses = {c.status for c in certs}
    if covered == (root_span(base.order, base.reduction),):
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
        covered=covered, status=status,
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
    spec, order, (lo, hi), budget = payload
    roots = (d for d in range(lo, hi + 1, 2) if not _scan_over.is_set())
    return list(_root_runs(spec, order, roots, budget))


def _pool_ranges(spec: SearchSpec, order: int, shards: int) -> list[tuple[int, int]]:
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
            if oc.status == "witness" and spec.mode == "first-witness":
                break
    return SearchOutcome(spec=spec, per_order=tuple(outcomes))
