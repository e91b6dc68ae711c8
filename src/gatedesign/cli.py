"""Command-line front end.

Thin shells over the library: every subcommand validates flags, calls the
corresponding module, and emits rows as CSV (default) or JSON. Floats are
printed with 17 significant digits and LF line endings so outputs are
byte-stable for fixed inputs.

Exit codes: 0 success, 1 computation error, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

from . import bounds, montecarlo, repcore, solver
from .bounds import BoundUnavailableError, GateSetKind, Method


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, Fraction):
        return str(value)
    return str(value)


def _json_default(value):
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(type(value))


def _emit(columns, rows, args):
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])
        text = buf.getvalue()
    else:
        text = json.dumps({"columns": columns, "rows": rows}, indent=2, default=_json_default)
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
        methods = bounds.methods_for_kind(kind)
        if not methods:
            raise ValueError(f"no bound methods apply to kind {kind.value}")
        return methods
    return tuple(Method(name) for name in spec.split(","))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_lambda_set(args):
    columns = ["lam", "norm1", "dim", "m0", "fs2"]
    rows = []
    for lam in repcore.enumerate_lambda_set(args.d, args.t):
        rows.append(
            {
                "lam": " ".join(str(v) for v in lam.entries),
                "norm1": lam.norm1,
                "dim": repcore.weyl_dimension(lam),
                "m0": repcore.zero_weight_multiplicity(lam),
                "fs2": repcore.fs_indicator(lam, 2),
            }
        )
    _emit(columns, rows, args)
    return 0


def cmd_bounds_curve(args):
    kind = GateSetKind(args.kind)
    methods = _parse_methods(args.methods, kind)
    deltas = _parse_delta_grid(args.delta_grid)
    columns = ["delta"] + [m.value for m in methods]
    rows = []
    for delta in deltas:
        row = {"delta": delta}
        for m in methods:
            row[m.value] = bounds.total_bound(args.d, args.t, kind, args.size, delta, m).raw
        rows.append(row)
    _emit(columns, rows, args)
    return 0


_MINSIZE_COLUMNS = ["d", "t", "method", "kind", "delta", "prob", "S_min", "n_pairs", "bound_at_S_min"]


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
    method = Method(args.method)
    res = solver.min_size_search(args.d, args.t, args.delta, args.prob, method)
    _emit(_MINSIZE_COLUMNS, [_minsize_row(res)], args)
    return 0


def cmd_table(args):
    if not args.table2:
        raise ValueError("pass --table2 to emit the minimal-size table")
    try:
        dims = tuple(int(v) for v in args.dims.split(",")) if args.dims else None
    except ValueError:
        raise ValueError(f"bad --dims {args.dims!r}: use a comma list, e.g. 2,4") from None
    rows = [
        _minsize_row(res)
        for _, _, _, res in solver.table2_cells(delta=args.delta, P=args.prob, dims=dims)
    ]
    _emit(_MINSIZE_COLUMNS, rows, args)
    return 0


def cmd_clifford(args):
    if args.max_qubits < 1:
        raise ValueError(f"need --max-qubits >= 1, got {args.max_qubits}")
    columns = ["n", "clifford_cardinality", "s_min_printed", "s_min_closed_form", "log10_ratio"]
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
    _emit(columns, rows, args)
    return 0


def cmd_mc_verify(args):
    kind = GateSetKind(args.kind)
    est = montecarlo.empirical_tail(
        args.d,
        args.t,
        kind,
        args.size,
        args.delta,
        trials=args.trials,
        seed=args.seed,
        jsonl_path=args.trial_log,
    )
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
    columns = list(row)
    verdicts = []
    for method in bounds.methods_for_kind(kind):
        prob = bounds.total_bound(args.d, args.t, kind, args.size, args.delta, method).probability
        ok = est.fraction <= prob + 3.0 * est.stderr
        row[method.value] = prob
        row[method.value + "-dominates"] = ok
        columns += [method.value, method.value + "-dominates"]
        verdicts.append(ok)
    if verdicts:
        row["dominance"] = "PASS" if all(verdicts) else "FAIL"
    else:
        row["dominance"] = "N/A"
    columns.append("dominance")
    _emit(columns, [row], args)
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

    p = sub.add_parser("lambda-set", help="irrep block labels with dimensions and FS data")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(fn=cmd_lambda_set)

    p = sub.add_parser("bounds-curve", help="bound values on a delta grid")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--size", type=int, required=True, help="gate-set cardinality |S|")
    p.add_argument("--kind", choices=[k.value for k in GateSetKind], default="plain")
    p.add_argument("--methods", default="all", help="comma list of methods, or 'all'")
    p.add_argument("--delta-grid", default="0.05:0.95:19", help="start:stop:num or comma list")
    p.set_defaults(fn=cmd_bounds_curve)

    p = sub.add_parser("min-size", help="minimal gate count for a (delta, t, P) target")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
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


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, BoundUnavailableError, RuntimeError, montecarlo.PowerIterationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
