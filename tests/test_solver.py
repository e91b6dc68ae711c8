"""Minimal-size solver tests against published values and formula oracles."""
import csv
import math
from pathlib import Path

import mpmath
import pytest

import oracles
from gatedesign import bounds as bd
from gatedesign import repcore as rc
from gatedesign import solver
from gatedesign.bounds import Method
from gatedesign.kinds import _s_linear_exponent

#: `table --table2` rows, kept as reference
PINNED_TABLE2 = Path(__file__).resolve().parent / "table2_pinned.csv"


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

def mp_closed_form_size(delta, P=0.99, sum_d=8):
    """The unrounded closed-form size at the binary delta and P, in 60
    digits; sum_d = 8 is the dimension sum of d = 2, t = 2."""
    with mpmath.workdps(60):
        x, P = mpmath.mpf(delta), mpmath.mpf(P)
        rate = (1 + x) * mpmath.log1p(x) + (1 - x) * mpmath.log1p(-x)
        return 2 * (mpmath.log(2 * sum_d) - mpmath.log1p(-P)) / rate


def binomial_rate(delta):
    """log((1+d)^(1+d) (1-d)^(1-d)), the per-gate rate the closed form divides
    by: -2 times the master-plain exponent at S = 1."""
    return -2.0 * _s_linear_exponent(Method.MASTER_PLAIN, 1.0, delta, None)


@pytest.mark.parametrize("delta", [1e-16, 1e-10, 1e-6, 1e-3, 0.5, 0.9, 0.99, 0.999])
def test_binomial_rate_keeps_full_precision(delta):
    # the two terms of (1+d) log1p(d) + (1-d) log1p(-d) cancel as d -> 0,
    # and rounding d^2 in log1p(-d^2) loses digits as d -> 1
    with mpmath.workdps(60):
        x = mpmath.mpf(delta)
        want = (1 + x) * mpmath.log1p(x) + (1 - x) * mpmath.log1p(-x)
        assert abs(binomial_rate(delta) / want - 1) <= 3e-16


@pytest.mark.parametrize("delta", [1e-3, 1e-6])
def test_closed_form_is_the_exact_ceiling_at_small_delta(delta):
    want = int(mpmath.ceil(mp_closed_form_size(delta)))
    assert solver.min_size_closed_form(2, 2, delta, 0.99).S_min == want


@pytest.mark.parametrize("delta", [1e-10, 1e-15])
def test_closed_form_keeps_full_precision_at_tiny_delta(delta):
    got = solver.min_size_closed_form(2, 2, delta, 0.99).S_min
    assert abs(got / mp_closed_form_size(delta) - 1) <= 1e-15


@pytest.mark.parametrize("delta", [1e-300, 5e-324])
def test_closed_form_past_the_float_range_names_delta(delta):
    with pytest.raises(ValueError, match=f"delta={delta}"):
        solver.min_size_closed_form(2, 2, delta, 0.99)


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


@pytest.mark.parametrize("method", [Method.MASTER_SYMMETRIC, Method.MASTER_SYMMETRIC_SIMPLIFIED])
def test_master_symmetric_search_at_the_largest_delta_below_one(method):
    # both methods read the Bessel kernel at x0 = 2 delta / sqrt(1 - delta^2),
    # 1.34e8 here, where its recurrence runs ~1e5 steps
    delta = 1 - 2**-53
    res = solver.min_size_search(2, 2, delta, 0.99, method)
    assert res.S_min == 12 and 0.0 < res.raw_bound_at_S_min <= 0.01
    below = bd.total_bound(2, 2, "symmetric", 10, delta, method)
    assert math.isfinite(below.log_bound) and below.raw > 0.01


def test_crossing_property():
    for method, step in [(Method.MASTER_PLAIN, 1), (Method.BERNSTEIN_SYMMETRIC, 2)]:
        res = solver.min_size_search(2, 3, 0.5, 0.99, method)
        at = bd.total_bound(2, 3, method.kind, res.S_min, 0.5, method).raw
        below = bd.total_bound(2, 3, method.kind, res.S_min - step, 0.5, method).raw
        assert at <= 0.01 < below


def rate_bracket(d, t, method, delta=0.5, P=0.99):
    """(R / -b_min, R / -b_max), R = log(2 sum d_lam) - log(1 - P), from the
    steepest and the flattest rate of the (d, t, delta, method) total."""
    spec = rc.block_spectrum(d, t)
    b_min, b_max = bd._rate_range(spec, delta, method)
    R = math.log(2 * spec.sum_dim) - math.log1p(-P)
    return R / -b_min, R / -b_max


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
    # every rate of the plain methods is one number, so the bracket is the
    # closed form and only the crossing pair is probed; otherwise the
    # bisection plus that pair
    if method in (Method.BERNSTEIN_PLAIN, Method.MASTER_PLAIN):
        assert sorted(probed) == [res.S_min - 1, res.S_min]
    else:
        low, high = rate_bracket(d, t, method)
        step = 2 if method.kind is bd.GateSetKind.SYMMETRIC else 1
        lo = max(0, step * (math.floor(low / step) - 1))
        hi = step * (math.ceil(high / step) + 1)
        assert len(probed) <= math.ceil(math.log2((hi - lo) / step)) + 2


def test_rate_bracket_contains_pinned_sizes():
    # the total is above the target below R / -b_min and at most the target
    # from R / -b_max on, so S_min is the first lattice point past the
    # crossing in between
    with PINNED_TABLE2.open() as fh:
        cells = [(int(r["d"]), int(r["t"]), Method(r["method"]), int(r["S_min"]))
                 for r in csv.DictReader(fh) if int(r["d"]) >= 4]
    assert len(cells) == 84
    for d, t, method, pinned in cells:
        step = 2 if method.kind is bd.GateSetKind.SYMMETRIC else 1
        low, high = rate_bracket(d, t, method)
        assert low <= pinned < high + step, (d, t, method, low, pinned, high)


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


def test_simplified_search_evaluates_each_label_once(monkeypatch, gamma_row_builds):
    # the simplified bound reads h at x0 from the (label, delta) entry: one
    # gamma build and one Bessel row per sign and label, whatever the
    # number of probes, and no bisection
    bessels = []
    real_ive = bd.log_ive_array
    monkeypatch.setattr(bd, "log_ive_array", lambda n, x: bessels.extend(x) or real_ive(n, x))
    bd._sym_table.cache_clear()
    solver.min_size_search(4, 5, 0.5, 0.99, Method.MASTER_SYMMETRIC_SIMPLIFIED)
    labels = rc.block_spectrum(4, 5).labels
    assert sorted(gamma_row_builds) == sorted(labels)
    assert len(bessels) == 2 * len(labels)


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


@pytest.mark.parametrize("method", [Method.MASTER_PLAIN, Method.BERNSTEIN_PLAIN])
def test_search_past_the_float_resolution_says_so(method):
    # at delta = 3e-8 a step of S moves the exact total by about 4.5e-16,
    # below the rounding of a total of terms near R = 7.4, so the computed
    # totals cannot place the crossing; the closed form still answers
    with pytest.raises(ValueError, match=r"^S_min at delta=3e-08 lies past the float resolution "
                                         r"of the bound: a step of S near S=\d+ "):
        solver.min_size_search(2, 2, 3e-8, 0.99, method)
    assert solver.min_size_closed_form(2, 2, 3e-8, 0.99).S_min == 16395019796061932


@pytest.mark.parametrize("method", [Method.MASTER_SYMMETRIC, Method.MASTER_SYMMETRIC_SIMPLIFIED])
def test_master_symmetric_search_below_the_rounding_floor_says_so(method):
    # at (2, 2) the flattest h is about -0.79 delta^2 near its minimizer,
    # -7.9e-17 at delta = 1e-8: inside the 4 (d + 3) 2^-52 = 4.4e-15 that
    # rounding leaves in h, whose value there set S_min 220532645199676690
    # (S delta^2 = 22.05, not 18.58). At 1e-6 the rates lie far outside it
    floor = r"2\.22e-15 of its exponent$"
    with pytest.raises(ValueError, match=r"^S_min at delta=1e-08 lies past the float resolution "
                                         r"of the bound: the flattest per-gate rate -\S+ is "
                                         r"within the rounding floor " + floor):
        solver.min_size_search(2, 2, 1e-8, 0.99, method)
    if method is Method.MASTER_SYMMETRIC:
        # there S_min was 749464036800030400, 2500 times below the true size
        with pytest.raises(ValueError, match=r"^S_min at delta=1e-10 .* floor " + floor):
            solver.min_size_search(2, 2, 1e-10, 0.99, method)
    pinned = {Method.MASTER_SYMMETRIC: 18578075947530,
              Method.MASTER_SYMMETRIC_SIMPLIFIED: 20266535040848}[method]
    assert solver.min_size_search(2, 2, 1e-6, 0.99, method).S_min == pinned


def test_search_over_more_than_2_to_63_lattice_points():
    # the bracket of this search holds more lattice points than len() of a
    # range counts (2^63 - 1), so bisect over a range of them would raise
    # OverflowError; the bisection loop, written out, does not
    low, high = rate_bracket(2, 2, Method.BERNSTEIN_SYMMETRIC, delta=1e-10)
    assert (high - low) / 2 > 2**63
    res = solver.min_size_search(2, 2, 1e-10, 0.99, "bernstein-symmetric")
    assert res.S_min == 1857885513126825295874


def test_search_far_past_1e9_matches_closed_form():
    # the bound crosses near S = 1.5e13; the search and the closed form may
    # round the last step apart by one, and then both must be crossings
    want = solver.min_size_closed_form(2, 2, 1e-6, 0.99).S_min
    got = solver.min_size_search(2, 2, 1e-6, 0.99, Method.MASTER_PLAIN).S_min
    assert abs(got - want) <= 1
    for S in {got, want}:
        at, below = (bd.total_bound(2, 2, "plain", s, 1e-6, Method.MASTER_PLAIN).log_bound
                     for s in (S, S - 1))
        assert at <= math.log1p(-0.99) < below


def test_search_crosses_near_1e19_at_tiny_delta():
    # the crossing lies near S = 1.86e19, where a step of 2 moves the exact
    # total by about 1e-18, far below its rounding (float(S) itself steps by
    # 2048 there): the test asks for a crossing of the computed total, not
    # for a pinned size
    method = Method.BERNSTEIN_SYMMETRIC
    res = solver.min_size_search(2, 2, 1e-9, 0.99, method)
    assert res.S_min % 2 == 0 and res.S_min > 10**19
    at, below = (bd.total_bound(2, 2, "symmetric", s, 1e-9, method).log_bound
                 for s in (res.S_min, res.S_min - 2))
    assert at <= math.log1p(-0.99) < below


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
    rate = binomial_rate(0.5)
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
    assert abs(binomial_rate(delta) / delta**2 - 1.0) < 1e-5


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
    # only the simplified master-symmetric bound is dropped, at every d
    assert Method.MASTER_SYMMETRIC_SIMPLIFIED not in {r.method for r in cells}
    assert {r.d for r in cells} == {16}
    for method in (Method.BERNSTEIN_PLAIN, Method.BERNSTEIN_SYMMETRIC, Method.MASTER_PLAIN,
                   Method.MASTER_SYMMETRIC):
        assert [r.t for r in cells if r.method is method] == [2, 3, 4, 5]


def test_table2_cells_rejects_malformed_dims():
    # each entry must be integral, so a string's characters are not
    # dimensions; a non-iterable is named, not a bare TypeError
    with pytest.raises(ValueError, match="an entry of dims must be integral, got '2'"):
        next(solver.table2_cells(dims="24"))
    with pytest.raises(ValueError, match="dims must be an iterable of dimensions, got 2"):
        next(solver.table2_cells(dims=2))
    r = next(solver.table2_cells(dims=[2.0]))
    assert (r.d, r.t, r.method) == (2, 2, Method.BERNSTEIN_PLAIN)
    assert type(r.d) is int


@pytest.mark.parametrize("d", [16, 32, 64])
def test_bernstein_symmetric_large_d_by_plain_scan(d):
    # the pinned bernstein-symmetric S_min at d >= 16, by an
    # independent route: d_lam over all pairs, and d_lam delta_lam(2) = 1
    # exactly when the positive part alpha of the label equals its negated
    # negative part beta (4 | d, so every self-dual label is real), summed
    # at every even S
    with PINNED_TABLE2.open() as fh:
        pinned = [int(r["S_min"]) for r in csv.DictReader(fh)
                  if r["d"] == str(d) and r["method"] == "bernstein-symmetric"]
    delta, target = 0.5, math.log1p(-0.99)
    got = []
    for t in (2, 3, 4, 5):
        blocks = []
        for lam in rc.enumerate_lambda_set(d, t):
            alpha = [v for v in lam if v > 0]
            beta = [-v for v in reversed(lam) if v < 0]
            dl = oracles.weyl_dimension_all_pairs(lam)
            assert dl.denominator == 1
            blocks.append((math.log(2 * dl.numerator), int(alpha == beta) / dl.numerator))
        S = 2
        while True:
            logs = [l2d - 3.0 * S * delta**2 / (6.0 * (1.0 + fs2) + 4.0 * delta)
                    for l2d, fs2 in blocks]
            top = max(logs)
            if top + math.log(sum(math.exp(v - top) for v in logs)) <= target:
                break
            S += 2
        got.append(S)
    assert got == pinned
