"""Command-line front end.

Thin shells over the library: every subcommand validates flags, calls the
corresponding module, and emits at least one row as CSV (default) or JSON.
A row is a dict whose keys, in order, are the columns: the CSV header and
the JSON ``"columns"``. Floats are printed with 17 significant digits and LF
line endings so outputs are byte-stable for fixed inputs.

Exit codes: 0 success, 1 computation error (an allocation that fails
included), 2 usage error.

Imports are on demand: this module loads only the standard library and
:mod:`gatedesign.kinds`, and each ``cmd_*`` imports the modules it runs. So
``--help``, a usage error, ``lambda-set`` and ``clifford`` never load
numpy. The paths of ``--output`` and ``--trial-log`` are checked before any
work starts: a missing directory, a path that is a directory, one the
user may not write, or one regular file named by both exits 1 at once, and
any other failure to write exits 1 with one line.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction

from .kinds import GateSetKind, Method, methods_for_kind


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit(rows, args):
    """Write rows as CSV or JSON. The first row's keys, in order, are the
    columns; every row has them, and each command passes at least one row."""
    columns = list(rows[0])
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])
        text = buf.getvalue()
    else:
        text = json.dumps({"columns": columns, "rows": rows}, indent=2)
        text += "\n"
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_delta_grid(spec):
    try:
        if ":" in spec:
            start, stop, num = spec.split(":")
            start, stop, num = float(start), float(stop), int(num)
            if num == 1:
                return [start]
            step = (stop - start) / (num - 1)
            grid = [start + i * step for i in range(num)]
        else:
            grid = [float(v) for v in spec.split(",") if v]
    except ValueError:
        raise ValueError(
            f"bad delta grid {spec!r}: use start:stop:num or a comma list"
        ) from None
    if not grid:
        raise ValueError("delta grid needs at least one point")
    return grid


def _parse_methods(spec, kind):
    if spec == "all":
        methods = methods_for_kind(kind)
        if not methods:
            raise ValueError(f"no bound methods apply to kind {kind.value}")
        return methods
    methods = tuple(Method(name) for name in spec.split(","))
    for i, method in enumerate(methods):
        if method in methods[:i]:
            raise ValueError(f"method {method.value} is repeated in --methods {spec!r}")
    return methods


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_lambda_set(args):
    from . import repcore

    spec = repcore.block_spectrum(args.d, args.t)
    rows = [
        {"lam": " ".join(map(str, lam)), "norm1": sum(map(abs, lam)), "dim": dim, "m0": m0,
         "fs2": str(Fraction(fs, dim))}
        for lam, dim, m0, fs in zip(spec.labels, spec.dims, spec.m0, spec.fs)
    ]
    _emit(rows, args)
    return 0


def cmd_bounds_curve(args):
    from . import bounds

    kind = GateSetKind(args.kind)
    methods = _parse_methods(args.methods, kind)
    deltas = _parse_delta_grid(args.delta_grid)
    rows = []
    for delta in deltas:
        row = {"delta": delta}
        for m in methods:
            row[m.value] = bounds.total_bound(args.d, args.t, kind, args.size, delta, m).raw
        rows.append(row)
    _emit(rows, args)
    return 0


def _minsize_row(res):
    sym = res.method.kind is GateSetKind.SYMMETRIC
    return {
        "d": res.d,
        "t": res.t,
        "method": res.method.value,
        "kind": res.method.kind.value,
        "delta": res.delta,
        "prob": res.P,
        "S_min": res.S_min,
        "n_pairs": res.n_pairs if sym else "",
        "bound_at_S_min": res.raw_bound_at_S_min,
    }


def cmd_min_size(args):
    from . import solver

    method = Method(args.method)
    res = solver.min_size_search(args.d, args.t, args.delta, args.prob, method)
    _emit([_minsize_row(res)], args)
    return 0


def cmd_table(args):
    from . import solver

    if not args.table2:
        raise ValueError("pass --table2 to emit the minimal-size table")
    try:
        dims = None if args.dims is None else tuple(int(v) for v in args.dims.split(","))
    except ValueError:
        raise ValueError(f"bad --dims {args.dims!r}: use a comma list, e.g. 2,4") from None
    cells = solver.table2_cells(delta=args.delta, P=args.prob, dims=dims)
    _emit([_minsize_row(res) for res in cells], args)
    return 0


def cmd_clifford(args):
    from . import repcore, solver

    repcore._at_least(args.max_qubits, "--max-qubits", 1)
    rows = []
    for n in range(1, args.max_qubits + 1):
        card = solver.clifford_cardinality(n)
        s_printed = solver.clifford_random_set_size(n)
        rows.append(
            {
                "n": n,
                "clifford_cardinality": card,
                "s_min_printed": s_printed,
                "s_min_closed_form": solver.clifford_random_set_size_exact(n),
                "log10_ratio": math.log10(card) - math.log10(s_printed),
            }
        )
    # from n = 84, |C_n| has more digits than Python converts to a string by
    # default (4300): lift that limit for the write and put it back, as main
    # may run in a longer-lived process (Python < 3.10.7 has no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        _emit(rows, args)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


def cmd_mc_verify(args):
    from . import bounds, montecarlo

    kind = GateSetKind(args.kind)
    est = montecarlo.empirical_tail(
        args.d, args.t, kind, args.size, args.delta, trials=args.trials, seed=args.seed
    )
    if args.trial_log is not None:
        with open(args.trial_log, "w", newline="\n") as fh:
            fh.writelines(json.dumps(rec) + "\n" for rec in est.records)
    row = {
        "d": args.d,
        "t": args.t,
        "kind": kind.value,
        "size": args.size,
        "delta": args.delta,
        "trials": args.trials,
        "seed": args.seed,
        "tail_fraction": est.fraction,
        "tail_stderr": est.stderr,
    }
    verdicts = []
    for method in methods_for_kind(kind):
        prob = bounds.total_bound(args.d, args.t, kind, args.size, args.delta, method).probability
        ok = est.fraction <= prob + 3.0 * est.stderr
        row[method.value] = prob
        row[method.value + "-dominates"] = ok
        verdicts.append(ok)
    if verdicts:
        row["dominance"] = "PASS" if all(verdicts) else "FAIL"
    else:
        row["dominance"] = "N/A"
    _emit([row], args)
    if not verdicts:
        print(f"error: no tail bound applies to kind {kind.value}; nothing was checked",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="gatedesign",
        description="Bounds and Monte Carlo verification for random gate-set t-designs.",
    )
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", default=None, help="write to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    dt = argparse.ArgumentParser(add_help=False)
    dt.add_argument("--d", type=int, required=True)
    dt.add_argument("--t", type=int, required=True)

    p = sub.add_parser("lambda-set", parents=[dt],
                       help="irrep block labels with dimensions and FS data")
    p.set_defaults(fn=cmd_lambda_set)

    p = sub.add_parser("bounds-curve", help="bound values on a delta grid", parents=[dt])
    p.add_argument("--size", type=int, required=True, help="gate-set cardinality |S|")
    p.add_argument("--kind", choices=[k.value for k in GateSetKind], default="plain")
    p.add_argument("--methods", default="all", help="comma list of methods, or 'all'")
    p.add_argument("--delta-grid", default="0.05:0.95:19", help="start:stop:num or comma list")
    p.set_defaults(fn=cmd_bounds_curve)

    p = sub.add_parser("min-size", help="minimal gate count for a (delta, t, P) target", parents=[dt])
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--prob", type=float, default=0.99)
    p.add_argument("--method", choices=[m.value for m in Method], default="master-plain")
    p.set_defaults(fn=cmd_min_size)

    p = sub.add_parser("table", help="the full minimal-size table")
    p.add_argument("--table2", action="store_true", help="emit the published table grid")
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--prob", type=float, default=0.99)
    p.add_argument("--dims", default=None, help="comma subset of dimensions, e.g. 2,4")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("clifford", help="Clifford group size vs random-set size data")
    p.add_argument("--max-qubits", type=int, default=50)
    p.set_defaults(fn=cmd_clifford)

    p = sub.add_parser("mc-verify", help="empirical tail vs all applicable bounds")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--size", type=int, default=10, help="|S| (SU(2) seed count for lifted sets)")
    p.add_argument("--kind", choices=[k.value for k in GateSetKind], default="plain")
    p.add_argument("--delta", type=float, default=0.9)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trial-log", default=None, help="write per-trial JSON lines here")
    p.set_defaults(fn=cmd_mc_verify)

    return parser


def _check_target(flag, path):
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        problem = f"no directory {folder}"
    elif os.path.isdir(path):
        problem = "it is a directory"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        problem = "permission denied"
    else:
        return
    raise ValueError(f"cannot write {flag} {path}: {problem}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        log = getattr(args, "trial_log", None)
        for flag, path in (("--output", args.output), ("--trial-log", log)):
            if path is not None:
                _check_target(flag, path)
        # the table written last would replace the trial log; a device such
        # as /dev/null may take both
        if (args.output is not None and log is not None
                and os.path.realpath(args.output) == os.path.realpath(log)
                and (os.path.isfile(log) or not os.path.exists(log))):
            raise ValueError(f"--output and --trial-log name one file, {log}: "
                             f"the table would overwrite the trial log")
        return args.fn(args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        # BoundUnavailableError and PowerIterationError are RuntimeErrors; a
        # MemoryError may have no message, and then its type is the line
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
