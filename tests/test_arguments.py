"""Argument checks at the public entries.

A count (d, t, S, n, trials, seed, ...) goes through ``repcore._at_least``,
a threshold (delta, P) through ``repcore._open_unit`` and any other real
argument (alpha, x) through ``repcore._real``, so every entry words a bad
argument the same way: a ``ValueError`` naming it. An integral float such as
2.0 acts as 2, and the result holds ints.
"""
import re

import numpy as np
import pytest

from gatedesign import bounds as bd
from gatedesign import montecarlo as mc
from gatedesign import repcore as rc
from gatedesign import solver, specfun
from gatedesign.kinds import GateSetKind, Method, methods_for_kind

_GATES = mc.sample_haar(2, np.random.default_rng(1), 3)


def _projector(d, t):
    p = mc.HaarProjector(d, t)
    return p.d, p.t, p.dim, p.gram.tolist()


def _moment(t):
    op = mc.MomentOperator(_GATES, t)
    return op.d, op.t, op.dim


def _tail(d=2, t=1, S=3, trials=2, seed=1):
    est = mc.empirical_tail(d, t, "plain", S, 0.5, trials=trials, seed=seed)
    return est.fraction, est.records


#: (entry, argument name, least value, the call with that argument set to v)
COUNTS = [
    ("total_bound", "d", 2, lambda v: bd.total_bound(v, 2, "plain", 10, 0.5, "master-plain")),
    ("total_bound", "t", 1, lambda v: bd.total_bound(2, v, "plain", 10, 0.5, "master-plain")),
    ("total_bound", "S", 1, lambda v: bd.total_bound(2, 2, "plain", v, 0.5, "master-plain")),
    ("BoundQuery", "S", 1, lambda v: bd.BoundQuery("plain", v, 0.5, (1, -1))),
    ("concentration_bound_t", "d", 2, lambda v: bd.concentration_bound_t(v, 2, 10, 0.3)),
    ("concentration_bound_t", "t", 1, lambda v: bd.concentration_bound_t(2, v, 10, 0.3)),
    ("concentration_bound_t", "S", 1, lambda v: bd.concentration_bound_t(2, 2, v, 0.3)),
    ("concentration_bound_lambda", "S", 1, lambda v: bd.concentration_bound_lambda((1, -1), v, 0.3)),
    ("concentration_bound_beamsplitter", "t", 1, lambda v: bd.concentration_bound_beamsplitter(v, 10, 0.3)),
    ("concentration_bound_beamsplitter", "S", 1, lambda v: bd.concentration_bound_beamsplitter(2, v, 0.3)),
    ("min_size_search", "d", 2, lambda v: solver.min_size_search(v, 2, 0.5, 0.99, "master-plain")),
    ("min_size_search", "t", 1, lambda v: solver.min_size_search(2, v, 0.5, 0.99, "master-plain")),
    ("min_size_closed_form", "d", 2, lambda v: solver.min_size_closed_form(v, 2, 0.5, 0.99)),
    ("min_size_closed_form", "t", 1, lambda v: solver.min_size_closed_form(2, v, 0.5, 0.99)),
    ("clifford_cardinality", "n", 1, solver.clifford_cardinality),
    ("clifford_random_set_size", "n", 1, solver.clifford_random_set_size),
    ("clifford_random_set_size_exact", "n", 1, solver.clifford_random_set_size_exact),
    ("enumerate_lambda_set", "d", 2, lambda v: rc.enumerate_lambda_set(v, 2)),
    ("enumerate_lambda_set", "t", 1, lambda v: rc.enumerate_lambda_set(2, v)),
    ("sample_gate_set", "d", 1, lambda v: mc.sample_gate_set(v, 2, "plain", 1).unitaries),
    ("sample_gate_set", "n", 1, lambda v: mc.sample_gate_set(2, v, "plain", 1).unitaries),
    ("HaarProjector", "d", 1, lambda v: _projector(v, 2)),
    ("HaarProjector", "t", 1, lambda v: _projector(2, v)),
    ("MomentOperator", "t", 1, _moment),
    ("empirical_tail", "d", 2, lambda v: _tail(d=v)),
    ("empirical_tail", "t", 1, lambda v: _tail(t=v)),
    ("empirical_tail", "S", 1, lambda v: _tail(S=v)),
    ("empirical_tail", "trials", 1, lambda v: _tail(trials=v)),
    ("empirical_tail", "seed", 0, lambda v: _tail(seed=v)),
    ("estimate_fs_indicator_mc", "j2", 0, lambda v: mc.estimate_fs_indicator_mc(v, 2, 10, 1)),
    ("estimate_fs_indicator_mc", "trials", 2, lambda v: mc.estimate_fs_indicator_mc(2, 2, v, 1)),
    ("log_bessel_i", "n", 0, lambda v: specfun.log_bessel_i(v, 1.0)),
]


@pytest.mark.parametrize("entry,what,least,call", COUNTS, ids=[f"{c[0]}-{c[1]}" for c in COUNTS])
def test_count_argument_is_checked_once(entry, what, least, call):
    with pytest.raises(ValueError, match=re.escape(f"{what} must be integral, got 2.5")):
        call(2.5)
    low = least - 1
    with pytest.raises(ValueError, match=re.escape(f"need {what} >= {least}, got {what}={low}")):
        call(low)
    # the repr tells 2.0 from 2 in a stored field, such as MinSizeResult.t
    assert repr(call(2.0)) == repr(call(2))


@pytest.mark.parametrize("what,call", [
    ("delta", lambda v: bd.total_bound(2, 2, "plain", 10, v, "master-plain")),
    ("delta", lambda v: solver.min_size_search(2, 2, v, 0.99, "master-plain")),
    ("P", lambda v: solver.min_size_search(2, 2, 0.5, v, "master-plain")),
    ("delta", lambda v: solver.min_size_closed_form(2, 2, v, 0.99)),
    ("P", lambda v: solver.min_size_closed_form(2, 2, 0.5, v)),
    ("delta", lambda v: mc.empirical_tail(2, 1, "plain", 3, v, trials=2, seed=1)),
], ids=["total_bound", "min_size_search-delta", "min_size_search-P",
        "min_size_closed_form-delta", "min_size_closed_form-P", "empirical_tail"])
def test_threshold_argument_is_checked_once(what, call):
    for v in (0.0, 1.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match=re.escape(f"{what} must be in (0, 1), got {v!r}")):
            call(v)


#: (case, the call with one argument set to v, a bad v, the message it must raise)
NOT_NUMBERS = [
    ("total_bound-delta", lambda v: bd.total_bound(2, 2, "plain", 10, v, "master-plain"),
     None, "delta must be a real number, got None"),
    ("concentration_bound_t-alpha", lambda v: bd.concentration_bound_t(2, 2, 10, v),
     None, "alpha must be a real number, got None"),
    ("min_size_search-P", lambda v: solver.min_size_search(2, 2, 0.5, v, "master-plain"),
     None, "P must be a real number, got None"),
    ("empirical_tail-delta", lambda v: mc.empirical_tail(2, 1, "plain", 3, v, trials=2, seed=1),
     None, "delta must be a real number, got None"),
    ("BoundQuery-delta", lambda v: bd.BoundQuery("plain", 10, v, (1, -1)),
     "0.5", "delta must be a real number, got '0.5'"),
    ("concentration_bound_beamsplitter-alpha", lambda v: bd.concentration_bound_beamsplitter(2, 10, v),
     "a", "alpha must be a real number, got 'a'"),
    ("log_bessel_i-x", lambda v: specfun.log_bessel_i(1, v),
     None, "x must be a real number, got None"),
    ("sample_gate_set-negative-seed", lambda v: mc.sample_gate_set(2, 2, "plain", v),
     -1, "need seed >= 0, got seed=-1"),
    ("sample_gate_set-float-seed", lambda v: mc.sample_gate_set(2, 2, "plain", v),
     1.5, "seed must be integral, got 1.5"),
    ("estimate_fs_indicator_mc-seed", lambda v: mc.estimate_fs_indicator_mc(2, 2, 10, v),
     None, "seed must be integral, got None"),
]


@pytest.mark.parametrize("call,bad,message", [c[1:] for c in NOT_NUMBERS],
                         ids=[c[0] for c in NOT_NUMBERS])
def test_bad_threshold_or_seed_raises_value_error_naming_it(call, bad, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(bad)


def test_real_arguments_of_any_real_type_give_the_same_bits():
    half = np.float64(0.5)
    assert bd.total_bound(2, 2, "plain", 10, half, "master-plain") == bd.total_bound(
        2, 2, "plain", 10, 0.5, "master-plain")
    assert bd.concentration_bound_t(2, 2, 10, half) == bd.concentration_bound_t(2, 2, 10, 0.5)
    assert specfun.log_bessel_i(1, half) == specfun.log_bessel_i(1, 0.5)
    q = bd.BoundQuery("plain", 57.0, half, (1, -1))
    assert (type(q.S), type(q.delta)) == (int, float)
    assert q == bd.BoundQuery("plain", 57, 0.5, (1, -1))
    # a seed reaches SeedSequence as the same ints, so the draws do not move
    want = mc.sample_gate_set(2, 2, "plain", 7).unitaries
    for seed in (np.int64(7), 7.0, (7,), [[7]]):
        assert np.array_equal(mc.sample_gate_set(2, 2, "plain", seed).unitaries, want)
    assert mc.estimate_fs_indicator_mc(2, 3, 10, np.int64(4)) == mc.estimate_fs_indicator_mc(2, 3, 10, 4)


def test_kind_and_method_may_be_given_as_their_values():
    assert methods_for_kind("plain") == methods_for_kind(GateSetKind.PLAIN)
    assert methods_for_kind("symmetric") == methods_for_kind(GateSetKind.SYMMETRIC)
    assert methods_for_kind("beamsplitter") == ()
    with pytest.raises(ValueError, match="junk"):
        methods_for_kind("junk")
    with pytest.raises(ValueError, match="junk"):
        mc.sample_gate_set(2, 1, "junk", 1)
    with pytest.raises(ValueError, match="junk"):
        solver.min_size_search(2, 2, 0.5, 0.99, "junk")
    a = bd.total_bound(2, 2, "plain", 10, 0.5, "master-plain")
    assert a == bd.total_bound(2, 2, GateSetKind.PLAIN, 10, 0.5, Method.MASTER_PLAIN)


@pytest.mark.parametrize("x", [-1.0, float("nan")])
def test_log_bessel_i_names_a_bad_argument(x):
    with pytest.raises(ValueError, match=re.escape(f"x must be nonnegative, got x={x}")):
        specfun.log_bessel_i(2, x)
