"""Bound-formula tests.

Derived values come from in-file oracles: dense theta-grid scans for the
infima, a 50-digit mpmath evaluation of the symmetric bracket, and the
algebraic identities between printed forms.
"""
import math

import mpmath
import numpy as np
import pytest

from gatedesign import bounds as bd
from gatedesign import repcore as rc
from gatedesign import solver, specfun
from gatedesign.bounds import BoundQuery, GateSetKind, Method

mpmath.mp.dps = 50


def q_plain(lam, S, delta, d=None):
    lam = rc.HighestWeight(tuple(lam))
    return BoundQuery(d=d or lam.d, kind=GateSetKind.PLAIN, S=S, delta=delta, lam=lam)


def q_sym(lam, S, delta):
    lam = rc.HighestWeight(tuple(lam))
    return BoundQuery(d=lam.d, kind=GateSetKind.SYMMETRIC, S=S, delta=delta, lam=lam)


# ---------------------------------------------------------------------------
# query validation
# ---------------------------------------------------------------------------

def test_query_validation():
    lam = rc.HighestWeight((1, -1))
    with pytest.raises(TypeError):
        BoundQuery(d=2, kind=GateSetKind.PLAIN, S=10, delta=0.5)  # no target
    with pytest.raises(TypeError):
        BoundQuery(d=2, kind=GateSetKind.PLAIN, S=10, delta=0.5, lam=lam, t=2)
    with pytest.raises(ValueError):
        BoundQuery(d=2, kind=GateSetKind.PLAIN, S=10, delta=1.5, lam=lam)
    with pytest.raises(ValueError):
        BoundQuery(d=2, kind=GateSetKind.SYMMETRIC, S=11, delta=0.5, lam=lam)
    with pytest.raises(ValueError):
        BoundQuery(d=3, kind=GateSetKind.PLAIN, S=10, delta=0.5, lam=lam)


def test_method_kind_compatibility():
    with pytest.raises(ValueError):
        bd.total_bound(2, 2, GateSetKind.PLAIN, 10, 0.5, Method.MASTER_SYMMETRIC)
    with pytest.raises(ValueError):
        bd.master_bound_plain(q_sym((1, -1), 10, 0.5))


def test_methods_for_kind():
    assert bd.methods_for_kind(GateSetKind.PLAIN) == (
        Method.BERNSTEIN_PLAIN,
        Method.MASTER_PLAIN,
    )
    assert len(bd.methods_for_kind(GateSetKind.SYMMETRIC)) == 3
    assert bd.methods_for_kind(GateSetKind.BEAMSPLITTER_LIFTED) == ()


# ---------------------------------------------------------------------------
# Bernstein
# ---------------------------------------------------------------------------

def test_bernstein_plain_vacuous_at_small_delta():
    res = bd.bernstein_bound(q_plain((1, -1), 10, 1e-9))
    assert res.raw == pytest.approx(2 * 3, rel=1e-6)
    assert res.clipped and res.probability == 1.0


def test_bernstein_symmetric_uses_fs_constant():
    # lam=(1,-1): delta_lam(2)=1/3, denominator 6*(4/3) + 4*delta = 8 + 4*delta
    S, delta = 20, 0.5
    res = bd.bernstein_bound(q_sym((1, -1), S, delta))
    expected = math.log(6) - 3 * S * delta**2 / (8 + 4 * delta)
    assert res.log_bound == pytest.approx(expected, abs=1e-12)


def test_bernstein_plain_formula():
    S, delta = 40, 0.3
    res = bd.bernstein_bound(q_plain((2, 0, -1, -1), S, delta))
    expected = math.log(2 * 45) - 3 * S * delta**2 / (6 + 2 * delta)
    assert res.log_bound == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# master bound, plain
# ---------------------------------------------------------------------------

def test_master_plain_vacuous_at_small_delta():
    res = bd.master_bound_plain(q_plain((1, -1), 10, 1e-9))
    assert res.raw == pytest.approx(6.0, rel=1e-6)


def test_master_plain_two_forms_agree():
    for delta in (0.05, 0.3, 0.5, 0.7, 0.9, 0.99):
        for S in (1, 10, 57, 400):
            a = bd._log_master_plain_factor(S, delta)
            b = -0.5 * S * solver._log_binomial_rate(delta)
            assert a == pytest.approx(b, abs=1e-12 * max(1, abs(a)))


def test_master_plain_monotone_in_S_and_delta():
    lam = (1, -1)
    vals_S = [bd.master_bound_plain(q_plain(lam, S, 0.5)).log_bound for S in range(10, 200, 10)]
    assert all(a > b for a, b in zip(vals_S, vals_S[1:]))
    vals_d = [
        bd.master_bound_plain(q_plain(lam, 50, dd)).log_bound
        for dd in np.linspace(0.05, 0.95, 19)
    ]
    assert all(a > b for a, b in zip(vals_d, vals_d[1:]))


def test_master_plain_rejects_delta_out_of_range():
    with pytest.raises(ValueError):
        q_plain((1, -1), 10, 1.0)


# ---------------------------------------------------------------------------
# master bound, symmetric
# ---------------------------------------------------------------------------

def test_symmetric_infimum_below_simplified():
    for lam, S, delta in [
        ((1, -1), 30, 0.5),
        ((2, -2), 100, 0.3),
        ((1, 0, -1), 40, 0.6),
        ((1, 1, -1, -1), 60, 0.5),
    ]:
        full = bd.master_bound_symmetric(q_sym(lam, S, delta))
        simp = bd.master_bound_symmetric_simplified(q_sym(lam, S, delta))
        assert full.log_bound <= simp.log_bound + 1e-9


def test_symmetric_simplified_limit_at_small_delta():
    res = bd.master_bound_symmetric_simplified(q_sym((1, -1), 20, 1e-8))
    assert res.raw == pytest.approx(6.0, rel=1e-5)


def local_h(x, delta, m0d, gvec, branch):
    """log B(x) - delta x, the bracket summed term by term (NaN if it is <= 0).

    B(x) = m0d e^{+-x} + gamma_0 I_0(x) + 2 sum_k (+-1)^k gamma_k I_k(x); the
    theta objective is (S/2) h at x = 2 theta / S.
    """
    d = len(gvec) - 1
    ive = specfun.log_ive_array(d, x)
    c = (m0d if branch > 0 else m0d * math.exp(-2.0 * x)) + gvec[0] * math.exp(ive[0])
    for k in range(1, d + 1):
        c += 2.0 * branch**k * gvec[k] * math.exp(ive[k])
    return x + math.log(c) - delta * x if c > 0.0 else math.nan


def grid_branch_min(S, delta, m0d, gvec, branch):
    x0 = 2 * delta / math.sqrt(1 - delta**2)
    xs = x0 * np.exp(np.linspace(-8, 8, 6001))
    vals = [local_h(x, delta, m0d, gvec, branch) for x in xs]
    vals = [v for v in vals if not math.isnan(v)]
    return 0.5 * S * min(min(vals), 0.0)  # objective tends to 0 at theta -> 0+


def test_symmetric_minimizer_matches_grid_scan():
    # S=30, delta=0.5, lam=(1,-1): flat objective near the minimum
    lam = rc.HighestWeight((1, -1))
    S, delta = 30, 0.5
    dl, m0d, gvec = bd._sym_block_data(lam)
    got = bd.master_bound_symmetric(q_sym((1, -1), S, delta))
    grid = float(
        math.log(dl)
        + np.logaddexp(
            grid_branch_min(S, delta, m0d, gvec, 1), grid_branch_min(S, delta, m0d, gvec, -1)
        )
    )
    # the refined minimum may only undercut the grid by its resolution error
    assert got.log_bound <= grid + 1e-9
    assert got.log_bound >= grid - 1e-4


@pytest.mark.parametrize(
    "lam,S,delta",
    [((1, -1), 10, 0.5), ((2, -2), 100, 0.3), ((1, 0, -1), 50, 0.45)],
)
def test_symmetric_branch_minima_match_grid(lam, S, delta):
    lam = rc.HighestWeight(lam)
    dl, m0d, gvec = bd._sym_block_data(lam)
    for branch, (h, x) in zip((1, -1), bd._sym_min_exponents(lam, delta)):
        f = 0.5 * S * h
        grid = grid_branch_min(S, delta, m0d, gvec, branch)
        assert f <= grid + 1e-9
        assert f >= grid - 1e-4


def test_simplified_against_mpmath_oracle():
    # lam=(2,-2), S=100, delta=0.3: direct bracket summation in 50 digits
    S, delta = 100, mpmath.mpf("0.3")
    theta0 = S * delta / mpmath.sqrt(1 - delta**2)
    x0 = 2 * theta0 / S
    dl = 5
    m0d = mpmath.mpf(1) / 5
    g0 = mpmath.mpf(4) / 5
    g1 = mpmath.mpf(-1) / 5
    bp = m0d * mpmath.exp(x0) + g0 * mpmath.besseli(0, x0) + 2 * g1 * mpmath.besseli(1, x0)
    bm = m0d * mpmath.exp(-x0) + g0 * mpmath.besseli(0, x0) - 2 * g1 * mpmath.besseli(1, x0)
    oracle = dl * mpmath.exp(-theta0 * delta) * (bp ** (S / 2) + bm ** (S / 2))
    got = bd.master_bound_symmetric_simplified(q_sym((2, -2), 100, 0.3))
    assert got.log_bound == pytest.approx(float(mpmath.log(oracle)), abs=1e-10)


@pytest.mark.parametrize(
    "lam,delta",
    [((1, -1), 0.5), ((2, -2), 0.3), ((1, 0, -1), 0.45), ((1, 1, -1, -1), 0.7)],
)
def test_symmetric_minimizer_is_stationary_mpmath(lam, delta):
    # at an interior minimum x*, (log B)'(x*) = delta, B summed in 50 digits
    lam = rc.HighestWeight(lam)
    _, m0d, gvec = bd._sym_block_data(lam)
    m0d = mpmath.mpf(m0d)
    gam = [mpmath.mpf(float(g)) for g in gvec]
    for branch, (h, x) in zip((1, -1), bd._sym_min_exponents(lam, delta)):
        assert x > 0.0

        def log_b(y):
            terms = [2 * branch**k * gam[k] * mpmath.besseli(k, y) for k in range(1, lam.d + 1)]
            b = m0d * mpmath.exp(branch * y) + gam[0] * mpmath.besseli(0, y) + sum(terms)
            return mpmath.log(b)

        assert float(mpmath.diff(log_b, mpmath.mpf(x))) == pytest.approx(delta, abs=1e-8)
        assert h == pytest.approx(float(log_b(mpmath.mpf(x))) - delta * x, abs=1e-12)


@pytest.mark.parametrize("x", [0.3, 2.0, 39.0, 41.0, 300.0])
def test_symmetric_slope_matches_central_difference(x):
    # small and large Bessel arguments
    for lam in [(1, -1), (2, 0, -2), (1, 1, -1, -1)]:
        _, m0d, gvec = bd._sym_block_data(rc.HighestWeight(lam))
        for branch in (1, -1):
            _, slope = bd._sym_exponent(x, 0.4, branch, m0d, gvec)
            eps = 1e-5 * x
            up, _ = bd._sym_exponent(x + eps, 0.4, branch, m0d, gvec)
            down, _ = bd._sym_exponent(x - eps, 0.4, branch, m0d, gvec)
            assert slope == pytest.approx((up - down) / (2 * eps), abs=1e-7), (lam, branch)


def test_master_symmetric_branch_exponents_scale_as_half_S():
    # bound - log d_lam = log(u^k + v^k) at S = k S0, with u, v the two
    # branch terms at S0, when the minimizer does not depend on S; the
    # power sums then obey p3 = (3 p1 p2 - p1^3) / 2
    lam, S0, delta = (1, 0, -1), 20, 0.5
    dl = rc.weyl_dimension(rc.HighestWeight(lam))
    res = [bd.master_bound_symmetric(q_sym(lam, k * S0, delta)) for k in (1, 2, 3)]
    p1, p2, p3 = (math.exp(r.log_bound - math.log(dl)) for r in res)
    assert p3 == pytest.approx((3 * p1 * p2 - p1**3) / 2, rel=1e-10)
    thetas = [r.theta_star / (k * S0) for k, r in zip((1, 2, 3), res)]
    assert thetas[0] > 0 and thetas == pytest.approx([thetas[0]] * 3, rel=1e-15)


def test_master_symmetric_search_reuses_exponents_across_S(monkeypatch):
    # a size search probes many S at one delta: only the first probe may
    # evaluate Bessel functions
    kind, method = GateSetKind.SYMMETRIC, Method.MASTER_SYMMETRIC
    bd.total_bound(2, 20, kind, 40, 0.37, method)
    calls = []
    real = bd.log_ive_array

    def counting(nmax, x):
        calls.append(x)
        return real(nmax, x)

    monkeypatch.setattr(bd, "log_ive_array", counting)
    bd.total_bound(2, 20, kind, 200, 0.37, method)
    assert calls == []


def test_symmetric_bracket_nonpositive_everywhere_is_unavailable(monkeypatch):
    # data whose bracket B(x) = -e^{+-x} is negative at every x
    monkeypatch.setattr(bd, "_sym_block_data", lambda lam: (3, -1.0, np.zeros(3)))
    for fn in (bd.master_bound_symmetric, bd.master_bound_symmetric_simplified):
        with pytest.raises(bd.BoundUnavailableError):
            fn(q_sym((1, -1), 20, 0.4321))


def _delta_crossing(d, t, S, method, level):
    """delta at which the total bound falls to the given level (bisection)."""
    lo, hi = 1e-4, 1 - 1e-9
    target = math.log(level)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if bd.total_bound(d, t, GateSetKind.SYMMETRIC, S, mid, method).log_bound > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "d,t,S2,shift_cap",
    [
        # at d=2 the exact infimum genuinely beats the theta0 plug-in by a
        # few percent in delta; at d>=4 the objective is flat enough for 2%
        (2, 5, 100, 0.05),
        (2, 2, 10, 0.05),
        (2, 2, 1000, 0.05),
        (4, 5, 100, 0.02),
        (4, 2, 80, 0.02),
    ],
)
def test_simplified_curve_tracks_full_infimum(d, t, S2, shift_cap):
    """Figure-grid closeness of the simplified and full symmetric bounds.

    "Almost identical" is a statement about the curves: at any probability
    level the two crossings differ by a small relative shift in delta. (The
    ratio of raw values at fixed delta exponentiates the theta gap deep in
    the tail and is not the curve metric.)
    """
    for level in (0.3, 0.03):
        df = _delta_crossing(d, t, S2, Method.MASTER_SYMMETRIC, level)
        ds = _delta_crossing(d, t, S2, Method.MASTER_SYMMETRIC_SIMPLIFIED, level)
        assert ds >= df - 1e-6  # simplified is the weaker bound
        assert (ds - df) / df <= shift_cap


def test_simplified_matches_full_infimum_pointwise_d4():
    # where the objective is genuinely flat the raw values agree to 2%
    for delta in (0.35, 0.5, 0.65):
        full = bd.total_bound(4, 5, GateSetKind.SYMMETRIC, 100, delta, Method.MASTER_SYMMETRIC)
        simp = bd.total_bound(
            4, 5, GateSetKind.SYMMETRIC, 100, delta, Method.MASTER_SYMMETRIC_SIMPLIFIED
        )
        assert 0.0 <= simp.log_bound - full.log_bound <= math.log(1.02)


# ---------------------------------------------------------------------------
# totals
# ---------------------------------------------------------------------------

def test_total_master_plain_matches_factored_form():
    for d, t, S, delta in [(2, 2, 57, 0.5), (4, 2, 82, 0.5), (2, 5, 30, 0.3)]:
        a = bd.total_bound(d, t, GateSetKind.PLAIN, S, delta, Method.MASTER_PLAIN)
        b = bd.total_master_plain_factored(d, t, S, delta)
        assert a.log_bound == pytest.approx(b.log_bound, abs=1e-12 * max(1, abs(b.log_bound)))


def per_label_total(d, t, S, delta, method):
    """The union bound as a loop over labels, one per-label bound each."""
    return float(np.logaddexp.reduce([
        bd.per_label_bound(
            BoundQuery(d=d, kind=method.kind, S=S, delta=delta, lam=lam), method
        ).log_bound
        for lam in rc.enumerate_lambda_set(d, t)
    ]))


@pytest.mark.parametrize("d,t", [(2, 5), (2, 500), (4, 3), (8, 2), (64, 5)])
def test_total_bound_equals_per_label_loop(d, t):
    for method in Method:
        if method.kind is GateSetKind.SYMMETRIC and d > rc.MAX_WEYL_DIM:
            continue
        for S, delta in [(10, 0.3), (58, 0.5), (400, 0.9)]:
            got = bd.total_bound(d, t, method.kind, S, delta, method).log_bound
            assert got == per_label_total(d, t, S, delta, method), (method, S, delta)


def test_total_bound_validates_query():
    with pytest.raises(ValueError):
        bd.total_bound(2, 2, GateSetKind.PLAIN, 10, 1.0, Method.MASTER_PLAIN)
    with pytest.raises(ValueError):
        bd.total_bound(2, 2, GateSetKind.PLAIN, 0, 0.5, Method.BERNSTEIN_PLAIN)
    with pytest.raises(ValueError):
        bd.total_bound(2, 2, GateSetKind.SYMMETRIC, 11, 0.5, Method.BERNSTEIN_SYMMETRIC)


def test_sum_dimensions_values():
    assert rc.sum_dimensions(4, 2) == 209
    assert rc.sum_dimensions(2, 500) == 251000


def test_total_accepts_string_enums():
    a = bd.total_bound(2, 2, "plain", 57, 0.5, "master-plain")
    assert a.method is Method.MASTER_PLAIN


def test_bounds_positive_and_clip_flag():
    res = bd.total_bound(2, 2, GateSetKind.PLAIN, 2, 0.5, Method.MASTER_PLAIN)
    assert res.raw > 1 and res.clipped and res.probability == 1.0
    res = bd.total_bound(2, 2, GateSetKind.PLAIN, 200, 0.5, Method.MASTER_PLAIN)
    assert 0 < res.raw < 1 and not res.clipped


def test_master_tighter_than_bernstein_where_informative():
    for S in (40, 80, 160):
        m = bd.total_bound(2, 2, GateSetKind.PLAIN, S, 0.5, Method.MASTER_PLAIN)
        b = bd.total_bound(2, 2, GateSetKind.PLAIN, S, 0.5, Method.BERNSTEIN_PLAIN)
        assert m.log_bound < b.log_bound


# ---------------------------------------------------------------------------
# concentration bounds
# ---------------------------------------------------------------------------

def test_concentration_t_formula():
    val = bd.concentration_bound_t(2, 2, 100, 0.5)
    assert val == pytest.approx(math.exp(-100 * 2 * 0.25 / 128), rel=1e-12)


def test_concentration_t_limits_and_scaling():
    assert bd.concentration_bound_t(2, 2, 100, 1e-12) == pytest.approx(1.0)
    single = bd.concentration_bound_t(3, 4, 50, 0.3)
    double = bd.concentration_bound_t(3, 4, 100, 0.3)
    assert double == pytest.approx(single**2, rel=1e-9)
    with pytest.raises(ValueError):
        bd.concentration_bound_t(2, 2, 100, 0.0)


def test_concentration_lambda_formula():
    lam = rc.HighestWeight((2, 0, -2))
    val = bd.concentration_bound_lambda(3, lam, 80, 0.4)
    assert val == pytest.approx(math.exp(-3 * 80 * 0.16 / (2 * math.pi**2 * 16)), rel=1e-12)
    assert bd.concentration_bound_lambda(3, (2, 0, -2), 80, 1e-12) == pytest.approx(1.0)
    assert bd.concentration_bound_lambda(3, lam, 160, 0.4) == pytest.approx(val**2, rel=1e-9)


def test_concentration_beamsplitter():
    val = bd.concentration_bound_beamsplitter(2, 64, 0.25)
    assert val == pytest.approx(math.exp(-64 * 0.0625 / 64), rel=1e-12)
    assert bd.concentration_bound_beamsplitter(2, 64, 1e-12) == pytest.approx(1.0)
    assert bd.concentration_bound_beamsplitter(2, 128, 0.25) == pytest.approx(val**2, rel=1e-9)
    assert bd.equivalent_plain_size(4, 10) == 5.0
    with pytest.raises(ValueError):
        bd.equivalent_plain_size(2, 10)
