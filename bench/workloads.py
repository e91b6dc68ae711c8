"""The three benchmark workloads: inputs, one cold pass, and output checks.

A pass runs every op of a workload in order inside one fresh interpreter, so
the library's lru caches start empty, as they do for a CLI user. An op is one
Table-2 cell (a `min_size_search` call) or one Monte Carlo trial
(`sample_gate_set` followed by `estimate_delta`). An op that raises one of
the library's run-time errors is timed, counted as failed and skipped; the
pass goes on. Outputs are checked after the timed job: table cells against
`reference.json`, trials against the dense oracle in `oracle.py`.
"""
import json
import math
import random
import time
from pathlib import Path

from gatedesign import bounds, montecarlo, solver
from gatedesign.bounds import GateSetKind, Method

import oracle

DELTA, PROB = 0.5, 0.99

#: Table-2 grid, fixed here so that a change to the library cannot change it
PLAIN_COLUMNS = {
    2: (2, 3, 4, 5, 20, 500, 5000),
    4: (2, 3, 4, 5, 20),
    8: (2, 3, 4, 5),
    16: (2, 3, 4, 5),
    32: (2, 3, 4, 5),
    64: (2, 3, 4, 5),
}
SYMMETRIC_COLUMNS = {2: (2, 3, 4, 5, 20), 4: (2, 3, 4, 5), 8: (2,)}


def _cells(columns, methods):
    """Cells in `solver.table2_cells` order: d, then t, then method."""
    return [(d, t, m) for d, ts in columns.items() for t in ts for m in methods]


PLAIN_CELLS = _cells(PLAIN_COLUMNS, (Method.BERNSTEIN_PLAIN, Method.MASTER_PLAIN))
SYMMETRIC_CELLS = _cells(
    SYMMETRIC_COLUMNS, (Method.BERNSTEIN_SYMMETRIC, Method.MASTER_SYMMETRIC)
)

#: the four criterion-7 configs (d, t, S, kind, base seed, trials); trial i
#: uses seed (base, i), i = 0..trials-1. The symmetric config stops before
#: trial 3, whose 19 403 power iterations take longer than a whole run.
MC_CONFIGS = (
    (2, 2, 10, GateSetKind.PLAIN, 1000, 8),
    (2, 2, 20, GateSetKind.SYMMETRIC, 1001, 3),
    (2, 3, 20, GateSetKind.PLAIN, 1002, 3),
    (3, 2, 20, GateSetKind.PLAIN, 1003, 2),
)
MC_DELTAS = (0.7, 0.9)

#: |delta_est - delta_dense| above this counts the trial as wrong
ORACLE_TOL = 1e-7
#: relative tolerance on bound values against the reference
BOUND_RTOL = 1e-6

#: ops that raise one of these are counted as failed, not fatal
OP_ERRORS = (montecarlo.PowerIterationError, bounds.BoundUnavailableError, RuntimeError)

WORKLOADS = ("table-plain", "table-symmetric", "mc-verify")

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def cell_key(d, t, method):
    return f"{d}/{t}/{method.value}"


def verdict_key(d, t, S, kind, delta, method):
    return f"{d}/{t}/{S}/{kind.value}/{delta}/{method.value}"


def mc_ops(seed):
    """Every trial of every config; the workload seed only shuffles their order."""
    ops = [(c, i) for c in range(len(MC_CONFIGS)) for i in range(MC_CONFIGS[c][5])]
    random.Random(seed).shuffle(ops)
    return ops


def moment_flops(config):
    """Flops of one MomentOperator apply: S * 2t * d^(2t+1) * 8."""
    d, t, S = config[:3]
    return S * 2 * t * d ** (2 * t + 1) * 8


def _timed(fn, *args):
    start = time.perf_counter()
    try:
        out, error = fn(*args), None
    except OP_ERRORS as exc:
        out, error = None, f"{type(exc).__name__}: {exc}"
    return out, error, time.perf_counter() - start


def _table_cell(d, t, method):
    res = solver.min_size_search(d, t, DELTA, PROB, method)
    return res.S_min, res.raw_bound_at_S_min


def _mc_trial(config, i):
    d, t, S, kind, base = config[:5]
    n = S // 2 if kind is GateSetKind.SYMMETRIC else S
    sample = montecarlo.sample_gate_set(d, n, kind, seed=(base, i))
    delta, info = montecarlo.estimate_delta(sample, t, return_info=True)
    return sample, delta, info["iterations"]


def _verdicts(deltas_by_config):
    """Tail fraction vs every applicable total bound, as `mc-verify` does."""
    rows = []
    for c, (d, t, S, kind, _, _) in enumerate(MC_CONFIGS):
        deltas = deltas_by_config[c]
        for delta in MC_DELTAS:
            frac = sum(v >= delta for v in deltas) / len(deltas) if deltas else math.nan
            stderr = math.sqrt(frac * (1.0 - frac) / len(deltas)) if deltas else math.nan
            for method in bounds.methods_for_kind(kind):
                res = bounds.total_bound(d, t, kind, S, delta, method)
                rows.append((verdict_key(d, t, S, kind, delta, method), res.raw,
                             frac <= res.probability + 3.0 * stderr))
    return rows


def run_pass(workload, seed, tracer=None):
    """One pass of ``workload``; returns the op records, checks and counters.

    With a tracer, each op's spans carry its index as op id.
    """
    if workload == "mc-verify":
        ops = mc_ops(seed)
        labels = [f"{MC_CONFIGS[c][4]}/{i}" for c, i in ops]
        calls = [(_mc_trial, MC_CONFIGS[c], i) for c, i in ops]
    else:
        cells = PLAIN_CELLS if workload == "table-plain" else SYMMETRIC_CELLS
        labels = [cell_key(*cell) for cell in cells]
        calls = [(_table_cell, *cell) for cell in cells]

    outputs, records = [], []
    start = time.perf_counter()
    for k, (fn, *args) in enumerate(calls):
        if tracer is not None:
            tracer.op = k
        out, error, seconds = _timed(fn, *args)
        outputs.append(out)
        records.append({"op": labels[k], "seconds": seconds, "error": error})
    if tracer is not None:
        tracer.op = -1
    verdicts = []
    if workload == "mc-verify":
        deltas = [[] for _ in MC_CONFIGS]
        for (c, _), out in zip(ops, outputs):
            if out is not None:
                deltas[c].append(out[1])
        verdicts = _verdicts(deltas)
    wall = time.perf_counter() - start

    wrong = []
    if workload == "mc-verify":
        wrong += _check_trials(ops, outputs, records)
        wrong += _check_verdicts(verdicts)
    else:
        wrong += _check_cells(labels, outputs)
    return {
        "workload": workload,
        "seed": seed,
        "wall_s": wall,
        "ops": records,
        "wrong": wrong,
        "verdicts": [{"key": k, "bound": b, "dominates": ok} for k, b, ok in verdicts],
    }


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def _check_cells(labels, outputs):
    ref = load_reference()["cells"]
    wrong = []
    for label, out in zip(labels, outputs):
        if out is None:
            continue
        s_min, bound = out
        want = ref.get(label)
        if (want is None or s_min != want["S_min"]
                or abs(bound - want["bound_at_S_min"]) > BOUND_RTOL * want["bound_at_S_min"]):
            wrong.append(f"{label}: S_min {s_min}, bound {bound!r}; reference {want}")
    return wrong


def _check_trials(ops, outputs, records):
    wrong = []
    for (c, i), out, rec in zip(ops, outputs, records):
        if out is None:
            continue
        sample, delta, iterations = out
        dense = oracle.delta_dense(sample.unitaries, MC_CONFIGS[c][1])
        rec["iterations"] = iterations
        rec["oracle_abs_err"] = abs(delta - dense)
        rec["moment_flops_per_apply"] = moment_flops(MC_CONFIGS[c])
        if not abs(delta - dense) <= ORACLE_TOL:
            wrong.append(f"trial {rec['op']}: delta {delta!r}, dense oracle {dense!r}")
    return wrong


def _check_verdicts(verdicts):
    ref = load_reference()["verdict_bounds"]
    wrong = []
    for key, bound, dominates in verdicts:
        want = ref.get(key)
        if want is None or abs(bound - want) > BOUND_RTOL * want:
            wrong.append(f"verdict bound {key}: {bound!r}; reference {want!r}")
        if not dominates:
            wrong.append(f"verdict {key}: the bound does not dominate the tail")
    return wrong
