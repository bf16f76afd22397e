"""Command-line surface: search, verify, girth, canon, table, report, render.

Machine-readable results go to stdout, progress and diagnostics to stderr.
Exit status contract: 0 completed, 1 usage/verification/parse failure,
2 budget exceeded (with a resumable state on disk).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time

from . import render as render_mod
from .catalog import (
    BoundsInput,
    CatalogEntry,
    ParseError,
    ResumeState,
    bounds_table,
    evidence_refusal,
    format_bounds_table,
    format_non_existence,
    lower_bound_order,
    non_existence_report,
    parse_certificate_file,
    parse_claims_file,
    parse_resume_file,
    parse_witness_file,
    serialize_witness,
    verify_witness,
    write_certificate_file,
    write_resume_file,
    write_witness_file,
)
from .girth import girth_oracle
from .pattern import PatternError, canonical_form, expand, validate_pattern
from .search import (
    COUNTERS,
    ExhaustionCertificate,
    OrderOutcome,
    SearchSpec,
    outcome_status,
    enumerate_order,
    merge_certificates,
    min_order,
    normalize_mode,
    root_values,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(message)


def _eprint(*args):
    print(*args, file=sys.stderr)


@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog="hbg", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("search", help="enumerate patterns over a range of orders")
    s.add_argument("--girth", type=int, help="target girth (even, >= 4)")
    s.add_argument("--sym", type=int, help="symmetry factor b")
    s.add_argument("--min", type=int, dest="min_order", help="smallest order to scan")
    s.add_argument("--max", type=int, dest="max_order", help="largest order to scan")
    s.add_argument("--mode", default="first",
                   help="first|all|prove (default first)")
    s.add_argument("--shards", type=int, default=1,
                   help="shards per order; above 1, also the worker process count")
    s.add_argument("--node-budget", type=int, default=None,
                   help="abort after this many candidate expansions")
    s.add_argument("--wall-budget", type=float, default=None,
                   help="abort after this many seconds")
    s.add_argument("--reduce", action="store_true",
                   help="prune canonical-orbit duplicates (shift/reflection)")
    s.add_argument("--resume", default=None, help="resume file from an aborted run")
    s.add_argument("--out", default=None, help="output directory for witness/certificate files")
    s.add_argument("--progress", action="store_true",
                   help="periodic progress on stderr, per root")
    s.add_argument("--quiet", action="store_true")
    s.set_defaults(func=cmd_search)

    v = sub.add_parser("verify", help="independently verify witness files")
    v.add_argument("files", nargs="+")
    v.add_argument("--verbose", action="store_true", help="print every check")
    v.set_defaults(func=cmd_verify)

    gg = sub.add_parser("girth", help="measure the girth of a witness file")
    gg.add_argument("file")
    gg.add_argument("--cap", type=int, default=None, help="detection cap (default: order)")
    gg.set_defaults(func=cmd_girth)

    c = sub.add_parser("canon", help="rewrite a witness file in canonical form")
    c.add_argument("file")
    c.add_argument("--dry-run", action="store_true", help="print only, do not rewrite")
    c.set_defaults(func=cmd_canon)

    t = sub.add_parser("table", help="bound table from certificates and witnesses")
    t.add_argument("--girth", type=int, required=True)
    t.add_argument("--dir", required=True, help="directory of .cert/.hbg files")
    t.add_argument("--sym", default=None,
                   help="symmetry factors, e.g. '3-16' or '1,2,3' (default: those present)")
    t.add_argument("--claims", default=None,
                   help="unverified literature data: a lower-bound override and per-b "
                        "exhausted and witness orders")
    t.add_argument("--format", choices=("text", "kv"), default="text")
    t.set_defaults(func=cmd_table)

    r = sub.add_parser("report", help="non-existence report from certificates")
    r.add_argument("--girth", type=int, required=True)
    r.add_argument("--dir", required=True)
    r.add_argument("--sym", default=None, help="restrict to these symmetry factors")
    r.add_argument("--format", choices=("text", "kv"), default="text")
    r.set_defaults(func=cmd_report)

    d = sub.add_parser("render", help="draw a verified witness as SVG")
    d.add_argument("file")
    d.add_argument("--out", required=True)
    d.add_argument("--radius", type=float, default=180.0)
    d.add_argument("--vertex-radius", type=float, default=3.0)
    d.add_argument("--labels", action="store_true")
    d.set_defaults(func=cmd_render)
    return p


def _parse_sym_list(text: str) -> list[int]:
    out: list[int] = []
    try:
        for tok in text.split(","):
            tok = tok.strip()
            if "-" in tok:
                lo, hi = map(int, tok.split("-", 1))
                if hi < lo:
                    raise _UsageError(f"--sym: {tok!r} is an empty range")
                out.extend(range(lo, hi + 1))
            elif tok:
                out.append(int(tok))
    except ValueError:
        raise _UsageError(f"--sym: expected e.g. '3-16' or '1,2,3', got {text!r}") from None
    return sorted(set(out))


# --- search ----------------------------------------------------------------

def _witness_path(out_dir, spec, order, idx):
    return os.path.join(out_dir, f"g{spec.g}_n{order}_b{spec.b}_w{idx:03d}.hbg")


def _cert_path(out_dir, g, order, b):
    return os.path.join(out_dir, f"g{g}_n{order}_b{b}.cert")


def _resume_path(out_dir, g, order, b):
    return os.path.join(out_dir, f"g{g}_n{order}_b{b}.resume")


def _progress_printer(interval_s: float = 2.0):
    last = [0.0]

    def emit(order, done, total, expansions):
        now = time.perf_counter()
        if now - last[0] >= interval_s or done == total:
            last[0] = now
            _eprint(f"  order {order}: {done}/{total} roots, {expansions} expansions")

    return emit


def _emit_outcome(spec: SearchSpec, oc: OrderOutcome, out_dir: str | None, quiet: bool) -> None:
    for idx, w in enumerate(oc.witnesses):
        entry = CatalogEntry(g=spec.g, order=oc.order, b=spec.b,
                             offsets=w.pattern.offsets,
                             note=f"found by search, measured girth {w.measured_girth}")
        if out_dir:
            write_witness_file(_witness_path(out_dir, spec, oc.order, idx), entry)
        elif not quiet:
            sys.stdout.write(serialize_witness(entry))
    if out_dir:
        write_certificate_file(_cert_path(out_dir, spec.g, oc.order, spec.b), oc.certificate)
        if oc.pending:
            state = ResumeState(g=spec.g, order=oc.order, b=spec.b, mode=spec.mode,
                                reduction=spec.reduction, node_budget=spec.node_budget,
                                pending=oc.pending)
            write_resume_file(_resume_path(out_dir, spec.g, oc.order, spec.b), state)
    surplus = [w for w in oc.witnesses if w.measured_girth > spec.g]
    extra = f" girth-surplus {len(surplus)}" if surplus else ""
    print(f"order {oc.order} {oc.status} witnesses {len(oc.witnesses)} "
          f"nodes {oc.certificate.nodes} leaves {oc.certificate.leaves}{extra}")


def _require_finite_positive(name: str, value: float | None) -> None:
    if value is not None and not 0 < value < math.inf:
        raise _UsageError(f"{name} must be finite and above 0, got {value}")


def cmd_search(args) -> int:
    # counts and budgets are refused before any order runs, --resume or not
    for name, val in (("--sym", args.sym), ("--shards", args.shards),
                      ("--node-budget", args.node_budget)):
        if val is not None and val < 1:
            raise _UsageError(f"{name} must be at least 1, got {val}")
    _require_finite_positive("--wall-budget", args.wall_budget)
    if args.resume:
        if args.shards > 1:
            raise _UsageError(f"--shards {args.shards}: --resume runs its pending "
                              "ranges in one process; leave --shards out")
        return _run_resume(args)
    missing = [name for name, val in (("--girth", args.girth), ("--sym", args.sym),
                                      ("--min", args.min_order), ("--max", args.max_order))
               if val is None]
    if missing:
        raise _UsageError("search requires " + ", ".join(missing))
    b = args.sym
    orders = [n for n in range(args.min_order, args.max_order + 1)
              if n % 2 == 0 and (n // 2) % b == 0 and n >= 6]
    if not orders:
        raise _UsageError(
            f"no order in {args.min_order}..{args.max_order} has "
            f"m divisible by b={b}")
    try:
        spec = SearchSpec(g=args.girth, b=b, orders=tuple(orders),
                          mode=normalize_mode(args.mode),
                          node_budget=args.node_budget,
                          wall_budget_s=args.wall_budget,
                          reduction=args.reduce)
    except (ValueError, PatternError) as exc:
        raise _UsageError(str(exc)) from None
    lb = lower_bound_order(spec.g, spec.b)
    if orders[0] < lb and not args.quiet:
        try:
            _eprint(f"note: scanning below the known (3,{spec.g}) floor {lb}")
        except ValueError:  # a floor too long for int-to-str conversion
            pass
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    t0 = time.perf_counter()
    if not args.quiet:
        _eprint(f"search g={spec.g} b={spec.b} orders {orders[0]}..{orders[-1]} "
                f"({len(orders)} orders, mode {spec.mode}, shards {args.shards})")
    progress = _progress_printer() if args.progress else None
    outcome = min_order(spec, shards=args.shards,
                        processes=args.shards if args.shards > 1 else None,
                        progress=progress)
    breached = False
    for oc in outcome.per_order:
        _emit_outcome(spec, oc, args.out, args.quiet)
        if oc.certificate.status == "budget-exceeded":
            breached = True
    if outcome.minimal_order is not None:
        print(f"minimal {outcome.minimal_order}")
    else:
        print("minimal none")
    if not args.quiet:
        _eprint(f"done in {time.perf_counter() - t0:.2f}s")
    return EXIT_BUDGET if breached else EXIT_OK


def _run_resume(args) -> int:
    state = parse_resume_file(args.resume)
    budget = args.node_budget if args.node_budget is not None else state.node_budget
    out_dir = args.out or os.path.dirname(os.path.abspath(args.resume))
    cert_path = _cert_path(out_dir, state.g, state.order, state.b)
    try:
        spec = SearchSpec(g=state.g, b=state.b, orders=(state.order,), mode=state.mode,
                          node_budget=budget, wall_budget_s=args.wall_budget,
                          reduction=state.reduction)
        prior = parse_certificate_file(cert_path) if os.path.exists(cert_path) else None
        if prior is not None:
            # refuse a stale resume file or a certificate of another search
            # before enumerating: merge the prior with an empty run of the
            # pending ranges
            roots = root_values(state.order, state.reduction)
            merge_certificates([prior, ExhaustionCertificate(
                g=state.g, order=state.order, b=state.b, mode=state.mode,
                reduction=state.reduction, root_lo=roots[0], root_hi=roots[-1],
                covered=tuple((rng.lo, rng.hi) for rng in state.pending), status="complete",
                **dict.fromkeys(COUNTERS, 0))])
    except ValueError as exc:  # ParseError, PatternError and a refused merge
        _eprint(f"error: {exc}; {cert_path} left unchanged")
        return EXIT_ERROR
    os.makedirs(out_dir, exist_ok=True)
    if not args.quiet:
        _eprint(f"resuming g={spec.g} n={state.order} b={spec.b}: "
                f"{len(state.pending)} pending range(s)")
    progress = _progress_printer() if args.progress else None
    try:
        oc = enumerate_order(spec, state.order, ranges=list(state.pending),
                             progress=progress)
    except ValueError as exc:  # pending ranges outside the root span
        _eprint(f"error: {exc}; {cert_path} left unchanged")
        return EXIT_ERROR
    cert = oc.certificate if prior is None else merge_certificates([prior, oc.certificate])
    if oc.pending and not oc.certificate.covered:
        limit = (f"--node-budget {spec.node_budget}" if spec.node_budget is not None
                 else f"--wall-budget {spec.wall_budget_s}")
        _eprint(f"no progress: order {state.order} root {oc.pending[0].lo} "
                f"needs more than {limit}")
    oc = OrderOutcome(order=oc.order, status=outcome_status(oc.witnesses, cert),
                      witnesses=oc.witnesses, certificate=cert, pending=oc.pending)
    _emit_outcome(spec, oc, out_dir, args.quiet)
    resume_path = _resume_path(out_dir, spec.g, state.order, spec.b)
    if oc.pending:
        return EXIT_BUDGET
    if os.path.exists(resume_path):
        os.remove(resume_path)
    if args.resume != resume_path and os.path.exists(args.resume):
        os.remove(args.resume)
    return EXIT_OK


# --- verify / girth / canon -------------------------------------------------

def cmd_verify(args) -> int:
    all_ok = True
    many = len(args.files) > 1
    for path in args.files:
        prefix = f"{path}: " if many else ""
        try:
            entry = parse_witness_file(path)
        except (OSError, ParseError) as exc:
            print(f"{prefix}FAIL {exc}")
            all_ok = False
            continue
        report = verify_witness(entry)
        lines = report.lines() if args.verbose else report.lines()[-1:]
        for line in lines:
            print(prefix + line)
        all_ok = all_ok and report.passed
    return EXIT_OK if all_ok else EXIT_ERROR


def cmd_girth(args) -> int:
    if args.cap is not None and args.cap < 3:
        raise _UsageError(f"--cap must be at least 3, got {args.cap}")
    entry = parse_witness_file(args.file)
    try:
        pattern = validate_pattern(entry.order // 2, entry.b, entry.offsets)
    except PatternError as exc:
        _eprint(f"error: {exc}")
        return EXIT_ERROR
    cap = args.cap if args.cap is not None else entry.order
    result = girth_oracle(expand(pattern), cap=cap)
    if result.value is None:
        print(f"girth > {result.cap}")
    else:
        print(f"girth {result.value}")
    return EXIT_OK


def cmd_canon(args) -> int:
    entry = parse_witness_file(args.file)
    try:
        pattern = validate_pattern(entry.order // 2, entry.b, entry.offsets)
    except PatternError as exc:
        _eprint(f"error: {exc}")
        return EXIT_ERROR
    canon = canonical_form(pattern)
    print("offsets " + " ".join(str(d) for d in canon.offsets))
    if not args.dry_run and canon.offsets != entry.offsets:
        new_entry = CatalogEntry(g=entry.g, order=entry.order, b=entry.b,
                                 offsets=canon.offsets, note=entry.note)
        write_witness_file(args.file, new_entry)
        _eprint(f"rewrote {args.file}")
    return EXIT_OK


# --- table / report ----------------------------------------------------------

def _scan_directory(dir_path: str, g: int, witnesses: bool = True):
    """Collect exhaustion evidence and verified witnesses from a run directory.

    A malformed file raises ParseError, so the command fails with its
    file:line instead of printing a table that silently lacks its evidence;
    a well-formed certificate that catalog.evidence_refusal refuses, or a
    witness that fails verification, is skipped.
    With witnesses=False, .hbg files are not read at all.
    """
    inputs: dict[int, BoundsInput] = {}
    certs: list[ExhaustionCertificate] = []
    skipped: list[str] = []
    for name in sorted(os.listdir(dir_path)):
        path = os.path.join(dir_path, name)
        if name.endswith(".cert"):
            cert = parse_certificate_file(path)
            if cert.g != g:
                continue
            refusal = evidence_refusal(cert)
            if refusal:
                skipped.append(f"{path}: not non-existence evidence ({refusal})")
            else:
                inputs.setdefault(cert.b, BoundsInput()).exhausted.add(cert.order)
                certs.append(cert)
        elif witnesses and name.endswith(".hbg"):
            entry = parse_witness_file(path)
            report = verify_witness(entry)
            if report.passed and report.measured_girth >= g:
                inputs.setdefault(entry.b, BoundsInput()).uppers.append((entry.order, True, name))
            else:
                skipped.append(f"{path}: witness fails verification at girth {g}")
    return inputs, certs, skipped


def cmd_table(args) -> int:
    if not os.path.isdir(args.dir):
        _eprint(f"error: {args.dir} is not a directory")
        return EXIT_ERROR
    inputs, _, skipped = _scan_directory(args.dir, args.girth)
    for msg in skipped:
        _eprint(f"note: skipped {msg}")
    bound = None
    if args.claims:
        claims_g, bound, _ = parse_claims_file(args.claims, inputs)
        if claims_g != args.girth:
            _eprint(f"error: claims file is for g={claims_g}, table is for g={args.girth}")
            return EXIT_ERROR
    bs = _parse_sym_list(args.sym) if args.sym else sorted(inputs)
    if not bs:
        _eprint("error: no symmetry factors found; give --sym or add files")
        return EXIT_ERROR
    try:  # inconsistent evidence, or a bound too long for int-to-str conversion
        rows = bounds_table(args.girth, bs, bound, inputs)
        text = format_bounds_table(args.girth, rows, fmt=args.format)
    except ValueError as exc:
        _eprint(f"error: {exc}")
        return EXIT_ERROR
    sys.stdout.write(text)
    return EXIT_OK


def cmd_report(args) -> int:
    if not os.path.isdir(args.dir):
        _eprint(f"error: {args.dir} is not a directory")
        return EXIT_ERROR
    _, certs, skipped = _scan_directory(args.dir, args.girth, witnesses=False)
    for msg in skipped:
        _eprint(f"note: skipped {msg}")
    if args.sym:
        keep = set(_parse_sym_list(args.sym))
        certs = [c for c in certs if c.b in keep]
    try:
        report = non_existence_report(args.girth, certs)
    except ValueError as exc:
        _eprint(f"error: {exc}")
        return EXIT_ERROR
    sys.stdout.write(format_non_existence(args.girth, report, fmt=args.format))
    return EXIT_OK


def cmd_render(args) -> int:
    _require_finite_positive("--radius", args.radius)
    _require_finite_positive("--vertex-radius", args.vertex_radius)
    entry = parse_witness_file(args.file)
    style = render_mod.RenderStyle(radius=args.radius, vertex_radius=args.vertex_radius,
                                   labels=args.labels)
    try:
        svg = render_mod.render_svg(entry, style)
    except ValueError as exc:
        _eprint(f"error: {exc}")
        return EXIT_ERROR
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    _eprint(f"wrote {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _eprint(f"usage error: {exc}")
        return EXIT_ERROR
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        _eprint(f"usage error: {exc}")
        return EXIT_ERROR
    except (OSError, ParseError) as exc:  # unreadable or malformed input file
        _eprint(f"error: {exc}")
        return EXIT_ERROR


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
