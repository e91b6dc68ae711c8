"""Minimal-size solver tests against published values and formula oracles."""
import math

import pytest

import oracles
from gatedesign import bounds as bd
from gatedesign import repcore as rc
from gatedesign import solver
from gatedesign.bounds import GateSetKind, Method


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "d,t,expect",
    [(2, 2, 57), (2, 500, 136), (64, 5, 336)],
)
def test_closed_form_published_cells(d, t, expect):
    res = solver.min_size_closed_form(d, t, 0.5, 0.99)
    assert res.S_min == expect
    assert res.raw_bound_at_S_min <= 0.01


def test_closed_form_rejects_bad_args():
    with pytest.raises(ValueError):
        solver.min_size_closed_form(2, 2, 1.0, 0.99)
    with pytest.raises(ValueError):
        solver.min_size_closed_form(2, 2, 0.5, 0.0)


# ---------------------------------------------------------------------------
# integer search
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,t", [(2, 2), (2, 5), (4, 2), (4, 3), (64, 2)])
def test_search_matches_closed_form_for_master_plain(d, t):
    a = solver.min_size_closed_form(d, t, 0.5, 0.99)
    b = solver.min_size_search(d, t, 0.5, 0.99, Method.MASTER_PLAIN)
    assert a.S_min == b.S_min


def test_search_takes_integral_t():
    want = solver.min_size_search(2, 2, 0.5, 0.99, Method.MASTER_PLAIN).S_min
    assert solver.min_size_search(2, 2.0, 0.5, 0.99, "master-plain").S_min == want
    with pytest.raises(ValueError, match="t must be integral, got 2.5"):
        solver.min_size_search(2, 2.5, 0.5, 0.99, "master-plain")


def test_search_bernstein_plain_d2_t2():
    res = solver.min_size_search(2, 2, 0.5, 0.99, Method.BERNSTEIN_PLAIN)
    assert res.S_min == 69


def test_search_bernstein_symmetric_d2_t2():
    res = solver.min_size_search(2, 2, 0.5, 0.99, Method.BERNSTEIN_SYMMETRIC)
    assert res.S_min % 2 == 0
    assert res.n_pairs == 47


def test_search_master_symmetric_d2_t2():
    res = solver.min_size_search(2, 2, 0.5, 0.99, Method.MASTER_SYMMETRIC)
    assert res.n_pairs == 36


def test_crossing_property():
    for method, step in [(Method.MASTER_PLAIN, 1), (Method.BERNSTEIN_SYMMETRIC, 2)]:
        res = solver.min_size_search(2, 3, 0.5, 0.99, method)
        at = bd.total_bound(2, 3, method.kind, res.S_min, 0.5, method).raw
        below = bd.total_bound(2, 3, method.kind, res.S_min - step, 0.5, method).raw
        assert at <= 0.01 < below


@pytest.mark.parametrize(
    "d,t,method",
    [(2, 2, Method.MASTER_PLAIN), (2, 3, Method.BERNSTEIN_PLAIN),
     (2, 2, Method.BERNSTEIN_SYMMETRIC), (2, 3, Method.MASTER_SYMMETRIC),
     (4, 2, Method.MASTER_SYMMETRIC), (64, 5, Method.BERNSTEIN_PLAIN)],
)
def test_search_probes_each_size_once(monkeypatch, d, t, method):
    probed = []
    real = bd.total_bound

    def counting(d_, t_, kind, S, delta, method_):
        probed.append(S)
        return real(d_, t_, kind, S, delta, method_)

    monkeypatch.setattr(bd, "total_bound", counting)
    res = solver.min_size_search(d, t, 0.5, 0.99, method)
    assert res.S_min in probed
    assert len(probed) == len(set(probed)), sorted(probed)


def test_master_symmetric_search_builds_each_label_once(monkeypatch):
    # the label-by-label totals read the label rows of the block spectrum,
    # built once per (d, t), not once per probe of the search
    probed, rows = [], []
    real_total, real_rows = bd.total_bound, rc._label_rows

    def counting_total(*args):
        probed.append(args[3])
        return real_total(*args)

    def counting_rows(d, t):
        rows.append((d, t))
        return real_rows(d, t)

    monkeypatch.setattr(bd, "total_bound", counting_total)
    monkeypatch.setattr(rc, "_label_rows", counting_rows)
    rc.block_spectrum.cache_clear()
    solver.min_size_search(2, 20, 0.5, 0.99, Method.MASTER_SYMMETRIC)
    assert len(probed) > 1
    assert rows == [(2, 20)]


def _stub_bound(log_bound):
    """A total_bound stand-in whose log bound is log_bound(S)."""
    def stub(d, t, kind, S, delta, method):
        return bd.BoundResult(method=method, log_bound=log_bound(S))
    return stub


def test_search_rejects_bound_not_decreasing(monkeypatch):
    # below the target everywhere, but growing with S
    monkeypatch.setattr(bd, "total_bound", _stub_bound(lambda S: -10.0 + 1e-3 * S))
    with pytest.raises(RuntimeError, match="bound not decreasing"):
        solver.min_size_search(2, 2, 0.5, 0.99, Method.MASTER_PLAIN)


def test_search_rejects_bound_that_never_crosses(monkeypatch):
    monkeypatch.setattr(bd, "total_bound", _stub_bound(lambda S: -1.0 / S))
    with pytest.raises(RuntimeError, match="does not reach the target probability"):
        solver.min_size_search(2, 2, 0.5, 0.99, Method.BERNSTEIN_SYMMETRIC)


def test_master_at_most_bernstein_sizes():
    for d, t in [(2, 2), (2, 5), (4, 2)]:
        mp = solver.min_size_search(d, t, 0.5, 0.99, Method.MASTER_PLAIN).S_min
        bp = solver.min_size_search(d, t, 0.5, 0.99, Method.BERNSTEIN_PLAIN).S_min
        assert mp <= bp
        ms = solver.min_size_search(d, t, 0.5, 0.99, Method.MASTER_SYMMETRIC).S_min
        bs = solver.min_size_search(d, t, 0.5, 0.99, Method.BERNSTEIN_SYMMETRIC).S_min
        assert ms <= bs


def test_pair_count_requires_symmetric_method():
    res = solver.min_size_closed_form(2, 2, 0.5, 0.99)
    with pytest.raises(ValueError):
        res.n_pairs


# ---------------------------------------------------------------------------
# scaling estimate (tests/oracles.py)
# ---------------------------------------------------------------------------

def test_scaling_dominates_closed_form():
    # underlying dominance: sum of d_lam <= d^(2t), so the pre-ceiling reals
    # are ordered, hence so are the ceilings
    rate = solver._log_binomial_rate(0.5)
    for d in (2, 4, 8, 16, 32, 64):
        for t in solver.TABLE2_COLUMNS[d]:
            sum_d = rc.sum_dimensions(d, t)
            assert sum_d <= d ** (2 * t)
            closed_real = 2 * (math.log(2 * sum_d) - math.log(0.01)) / rate
            scaling = oracles.min_size_scaling(d, t, 0.5, 0.99)
            assert scaling >= closed_real
            assert math.ceil(scaling) >= solver.min_size_closed_form(d, t, 0.5, 0.99).S_min


def test_binomial_rate_small_delta_limit():
    delta = 1e-3
    assert abs(solver._log_binomial_rate(delta) / delta**2 - 1.0) < 1e-5


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_scaling_matches_printed_qubit_formula(n):
    # 2*10^4 and 4.61 are the printed roundings of 2/rate(0.01) and -log(0.01)
    printed = solver.clifford_random_set_size(n)
    scaling = oracles.min_size_scaling(2**n, 2, 0.01, 0.99)
    assert abs(scaling - printed) / printed < 0.025


# ---------------------------------------------------------------------------
# Clifford comparison
# ---------------------------------------------------------------------------

def test_clifford_cardinalities():
    assert solver.clifford_cardinality(1) == 24
    assert solver.clifford_cardinality(2) == 11520
    assert solver.clifford_cardinality(3) == (1 << 15) * 3 * 15 * 63


def _log_ratio(n):
    """log(|C_n| / S_n), S_n from the printed-constant formula."""
    return math.log(solver.clifford_cardinality(n)) - math.log(solver.clifford_random_set_size(n))


def test_clifford_ratio_monotone_log_growth():
    logs = [_log_ratio(n) for n in range(2, 51)]
    diffs = [b - a for a, b in zip(logs, logs[1:])]
    assert all(d > 0 for d in diffs)
    # at-least-exponential growth: the log increments themselves increase
    assert all(d2 > d1 for d1, d2 in zip(diffs, diffs[1:]))


def test_clifford_exact_column_close_to_printed():
    for n in range(2, 8):
        printed = solver.clifford_random_set_size(n)
        exact = solver.clifford_random_set_size_exact(n)
        assert abs(printed - exact) / exact < 0.01


def test_clifford_sum_dimension_shortcut_matches_enumeration():
    for d in (4, 8, 16):
        assert rc.sum_dimensions(d, 2) == d**4 - 3 * d**2 + 1


# ---------------------------------------------------------------------------
# table grid plumbing
# ---------------------------------------------------------------------------

def test_table2_cells_filtering():
    cells = list(solver.table2_cells(dims=(16,)))
    # symmetric columns are dropped beyond the Weyl cap
    assert all(m.kind is GateSetKind.PLAIN for _, _, m, _ in cells)
    assert [t for _, t, m, _ in cells if m is Method.MASTER_PLAIN] == [2, 3, 4, 5]
