"""Spans around the public functions of the gatedesign modules.

The tracer patches module and class attributes from outside the package, so
the library itself carries no tracing code. Each call through a wrapper
records one span (name, start, end, parent span, op id) in compact arrays;
spans stay in memory until the pass ends and are then summarised and saved.
"""
import functools
import time
from array import array

import numpy as np

from gatedesign import bounds, montecarlo, repcore, solver, specfun

#: (owner, attribute, span name). A function is wrapped where its caller
#: resolves it: bounds binds log_ive_array at import, and total_bound reaches
#: the per-method bounds through per_label_bound (the _PER_LABEL table holds
#: direct references, so wrapping those would miss calls).
TRACED = (
    (specfun, "log_ive_array", "specfun.log_ive_array"),
    (bounds, "log_ive_array", "specfun.log_ive_array"),
    (repcore, "enumerate_lambda_set", "repcore.enumerate_lambda_set"),
    (repcore, "weyl_dimension", "repcore.weyl_dimension"),
    (repcore, "gamma_coefficients", "repcore.gamma_coefficients"),
    (repcore, "fs_indicator", "repcore.fs_indicator"),
    (repcore, "zero_weight_multiplicity", "repcore.zero_weight_multiplicity"),
    (repcore, "sum_dimensions", "repcore.sum_dimensions"),
    (bounds, "total_bound", "bounds.total_bound"),
    (bounds, "per_label_bound", "bounds.per_label_bound"),
    (solver, "min_size_search", "solver.min_size_search"),
    (montecarlo, "sample_gate_set", "montecarlo.sample_gate_set"),
    (montecarlo, "estimate_delta", "montecarlo.estimate_delta"),
    (montecarlo.MomentOperator, "apply", "montecarlo.MomentOperator.apply"),
    (montecarlo.MomentOperator, "apply_adjoint", "montecarlo.MomentOperator.apply_adjoint"),
    (montecarlo.HaarProjector, "apply", "montecarlo.HaarProjector.apply"),
    (montecarlo.HaarProjector, "__init__", "montecarlo.HaarProjector.build"),
)

#: every span name, in report order
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TRACED))


def _count_labels(counters, args, kwargs, result):
    counters["repcore.labels_emitted"] = counters.get("repcore.labels_emitted", 0) + len(result)


def _count_master_symmetric(counters, args, kwargs, result):
    method = args[1] if len(args) > 1 else kwargs["method"]
    if method is bounds.Method.MASTER_SYMMETRIC:
        counters["bounds.master_symmetric_labels"] = (
            counters.get("bounds.master_symmetric_labels", 0) + 1
        )


_COUNTERS = {
    "repcore.enumerate_lambda_set": _count_labels,
    "bounds.per_label_bound": _count_master_symmetric,
}


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.name_of = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_of = array("q")
        #: op id stamped on new spans; the caller sets it before each op
        self.op = -1
        self.counters = {}
        self._stack = []
        self._patched = []

    def _wrap(self, owner, attr, name):
        original = owner.__dict__[attr]
        nid = self.names.index(name)
        count = _COUNTERS.get(name)
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_of.append(self.op)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(time.perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                self.end[sid] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def __enter__(self):
        try:
            for owner, attr, name in TRACED:
                self._wrap(owner, attr, name)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def arrays(self):
        """The spans as numpy arrays: name id, start, end, parent, op."""
        return (
            np.array(self.name_of, dtype=np.int64),
            np.array(self.start),
            np.array(self.end),
            np.array(self.parent, dtype=np.int64),
            np.array(self.op_of, dtype=np.int64),
        )

    def save(self, path):
        name, start, end, parent, op = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, start=start, end=end,
            parent=parent, op=op,
        )

    def summary(self):
        """Per span name: calls, self_s (span minus its child spans), total_s;
        plus the derived structure counts the benchmark reports."""
        name, start, end, parent, op = self.arrays()
        n = len(name)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        total_s = np.bincount(name, weights=dur, minlength=k)
        out = {}
        for i, nm in enumerate(self.names):
            out[nm] = {"calls": int(calls[i]), "self_s": float(self_s[i]),
                       "total_s": float(total_s[i])}
        parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)

        def under(child_name, parent_name_):
            return int(np.count_nonzero(
                (name == self.names.index(child_name))
                & (parent_name == self.names.index(parent_name_))
            ))

        structure = {
            "probes": under("bounds.total_bound", "solver.min_size_search"),
            "objective_evals": under("specfun.log_ive_array", "bounds.per_label_bound"),
        }
        applies = np.isin(name, [self.names.index("montecarlo.MomentOperator.apply"),
                                 self.names.index("montecarlo.MomentOperator.apply_adjoint")])
        ops, counts = np.unique(op[applies], return_counts=True)
        structure["applies_per_op"] = {int(o): int(c) for o, c in zip(ops, counts)}
        return out, structure, dict(self.counters)
