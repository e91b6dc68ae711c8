"""Bound-formula tests.

Derived values come from in-file oracles: dense theta-grid scans for the
infima, a 50-digit mpmath evaluation of the symmetric bracket, and the
algebraic identities between printed forms.
"""
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatedesign import bounds as bd
from gatedesign import repcore as rc
from gatedesign import solver, specfun
from gatedesign.bounds import BoundQuery, GateSetKind, Method

mpmath.mp.dps = 50


def q_plain(lam, S, delta):
    return BoundQuery(kind=GateSetKind.PLAIN, S=S, delta=delta, lam=tuple(lam))


def q_sym(lam, S, delta):
    return BoundQuery(kind=GateSetKind.SYMMETRIC, S=S, delta=delta, lam=tuple(lam))


# ---------------------------------------------------------------------------
# query validation
# ---------------------------------------------------------------------------

def test_query_validation():
    lam = (1, -1)
    with pytest.raises(TypeError):
        BoundQuery(kind=GateSetKind.PLAIN, S=10, delta=0.5)  # no target
    with pytest.raises(TypeError):
        BoundQuery(kind=GateSetKind.PLAIN, S=10, delta=0.5, lam=lam, t=2)
    with pytest.raises(ValueError):
        BoundQuery(kind=GateSetKind.PLAIN, S=10, delta=1.5, lam=lam)
    with pytest.raises(ValueError):
        BoundQuery(kind=GateSetKind.SYMMETRIC, S=11, delta=0.5, lam=lam)
    # the label is checked where the query is built
    for bad in ((1, 2), (1,), (1.5, -1.5), "junk"):
        with pytest.raises(ValueError):
            BoundQuery(kind=GateSetKind.SYMMETRIC, S=10, delta=0.5, lam=bad)


def test_query_takes_kind_value():
    # the value of a kind is that kind: its checks and its methods apply
    q = BoundQuery(kind="symmetric", S=40, delta=0.5, lam=(1, 0, -1))
    assert q.kind is GateSetKind.SYMMETRIC
    assert bd.per_label_bound(q, Method.MASTER_SYMMETRIC) == bd.per_label_bound(
        q_sym((1, 0, -1), 40, 0.5), Method.MASTER_SYMMETRIC
    )
    with pytest.raises(ValueError, match="symmetric sets have even cardinality, got 41"):
        BoundQuery(kind="symmetric", S=41, delta=0.5, lam=(1, 0, -1))
    with pytest.raises(ValueError, match="'junk' is not a valid GateSetKind"):
        BoundQuery(kind="junk", S=40, delta=0.5, lam=(1, 0, -1))


def test_method_kind_compatibility():
    with pytest.raises(ValueError):
        bd.total_bound(2, 2, GateSetKind.PLAIN, 10, 0.5, Method.MASTER_SYMMETRIC)
    with pytest.raises(ValueError):
        bd.per_label_bound(q_sym((1, -1), 10, 0.5), Method.MASTER_PLAIN)


@pytest.mark.parametrize("method", list(Method))
def test_per_label_bound_accepts_method_values(method):
    q = BoundQuery(kind=method.kind, S=20, delta=0.5, lam=(1, -1))
    assert bd.per_label_bound(q, method.value) == bd.per_label_bound(q, method)
    assert bd.per_label_bound(q, method.value).method is method


@pytest.mark.parametrize("method", list(Method))
def test_per_label_bound_takes_every_label_form(method):
    # the query stores the entries tuple, so a tuple, a list and an int
    # array are one label to every method
    forms = ((1, 0, -1), [1, 0, -1], np.array([1, 0, -1]))
    queries = [BoundQuery(kind=method.kind, S=20, delta=0.5, lam=lam) for lam in forms]
    assert all(q.lam == (1, 0, -1) and type(q.lam) is tuple for q in queries)
    logs = {bd.per_label_bound(q, method).log_bound for q in queries}
    assert len(logs) == 1 and math.isfinite(logs.pop())


@pytest.mark.parametrize("kind", list(GateSetKind))
@pytest.mark.parametrize("method", list(Method))
def test_per_label_bound_needs_method_of_query_kind(method, kind):
    q = BoundQuery(kind=kind, S=20, delta=0.5, lam=(1, -1))
    if method.kind is kind:
        assert bd.per_label_bound(q, method).method is method
    else:
        with pytest.raises(ValueError, match=f"method {method.value} does not apply to kind {kind.value}"):
            bd.per_label_bound(q, method)


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
    res = bd.per_label_bound(q_plain((1, -1), 10, 1e-9), Method.BERNSTEIN_PLAIN)
    assert res.raw == pytest.approx(2 * 3, rel=1e-6)
    assert res.clipped and res.probability == 1.0


def test_bernstein_symmetric_uses_fs_constant():
    # lam=(1,-1): delta_lam(2)=1/3, denominator 6*(4/3) + 4*delta = 8 + 4*delta
    S, delta = 20, 0.5
    res = bd.per_label_bound(q_sym((1, -1), S, delta), Method.BERNSTEIN_SYMMETRIC)
    expected = math.log(6) - 3 * S * delta**2 / (8 + 4 * delta)
    assert res.log_bound == pytest.approx(expected, abs=1e-12)


def test_bernstein_plain_formula():
    S, delta = 40, 0.3
    res = bd.per_label_bound(q_plain((2, 0, -1, -1), S, delta), Method.BERNSTEIN_PLAIN)
    expected = math.log(2 * 45) - 3 * S * delta**2 / (6 + 2 * delta)
    assert res.log_bound == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# master bound, plain
# ---------------------------------------------------------------------------

def test_master_plain_vacuous_at_small_delta():
    res = bd.per_label_bound(q_plain((1, -1), 10, 1e-9), Method.MASTER_PLAIN)
    assert res.raw == pytest.approx(6.0, rel=1e-6)


def test_master_plain_two_forms_agree():
    for delta in (0.05, 0.3, 0.5, 0.7, 0.9, 0.99):
        for S in (1, 10, 57, 400):
            a = bd._s_linear_exponent(Method.MASTER_PLAIN, S, delta, None)
            b = -0.5 * S * solver._log_binomial_rate(delta)
            assert a == pytest.approx(b, abs=1e-12 * max(1, abs(a)))


def test_master_plain_monotone_in_S_and_delta():
    lam = (1, -1)
    vals_S = [
        bd.per_label_bound(q_plain(lam, S, 0.5), Method.MASTER_PLAIN).log_bound
        for S in range(10, 200, 10)
    ]
    assert all(a > b for a, b in zip(vals_S, vals_S[1:]))
    vals_d = [
        bd.per_label_bound(q_plain(lam, 50, dd), Method.MASTER_PLAIN).log_bound
        for dd in np.linspace(0.05, 0.95, 19)
    ]
    assert all(a > b for a, b in zip(vals_d, vals_d[1:]))


def test_master_plain_rejects_delta_out_of_range():
    with pytest.raises(ValueError):
        q_plain((1, -1), 10, 1.0)


# ---------------------------------------------------------------------------
# master bound, symmetric
# ---------------------------------------------------------------------------

#: labels of Lambda~_t at d in {2, 3, 4}, t <= 4, as entry tuples
sym_labels = st.integers(2, 4).flatmap(
    lambda d: st.integers(1, 4).flatmap(
        lambda t: st.sampled_from(rc.enumerate_lambda_set(d, t))
    )
)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    lam=sym_labels,
    S=st.integers(1, 500).map(lambda k: 2 * k),
    delta=st.floats(0.05, 0.95),
)
@example(lam=(1, -1), S=30, delta=0.5)
@example(lam=(2, -2), S=100, delta=0.3)
@example(lam=(1, 0, -1), S=40, delta=0.6)
@example(lam=(1, 1, -1, -1), S=60, delta=0.5)
def test_symmetric_infimum_below_simplified(lam, S, delta):
    full = bd.per_label_bound(q_sym(lam, S, delta), Method.MASTER_SYMMETRIC)
    simp = bd.per_label_bound(q_sym(lam, S, delta), Method.MASTER_SYMMETRIC_SIMPLIFIED)
    assert full.log_bound <= simp.log_bound + 1e-9


def test_symmetric_simplified_limit_at_small_delta():
    res = bd.per_label_bound(q_sym((1, -1), 20, 1e-8), Method.MASTER_SYMMETRIC_SIMPLIFIED)
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
    lam = (1, -1)
    S, delta = 30, 0.5
    dl, m0d, (gvec, _) = bd._sym_block_data(lam)
    got = bd.per_label_bound(q_sym((1, -1), S, delta), Method.MASTER_SYMMETRIC)
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
    dl, m0d, (gvec, _) = bd._sym_block_data(lam)
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
    got = bd.per_label_bound(q_sym((2, -2), 100, 0.3), Method.MASTER_SYMMETRIC_SIMPLIFIED)
    assert got.log_bound == pytest.approx(float(mpmath.log(oracle)), abs=1e-10)


@pytest.mark.parametrize(
    "lam,delta",
    [((1, -1), 0.5), ((2, -2), 0.3), ((1, 0, -1), 0.45), ((1, 1, -1, -1), 0.7)],
)
def test_symmetric_minimizer_is_stationary_mpmath(lam, delta):
    # at an interior minimum x*, (log B)'(x*) = delta, B summed in 50 digits
    _, m0d, (gvec, _) = bd._sym_block_data(lam)
    m0d = mpmath.mpf(m0d)
    gam = [mpmath.mpf(float(g)) for g in gvec]
    for branch, (h, x) in zip((1, -1), bd._sym_min_exponents(lam, delta)):
        assert x > 0.0

        def log_b(y):
            terms = [2 * branch**k * gam[k] * mpmath.besseli(k, y) for k in range(1, len(lam) + 1)]
            b = m0d * mpmath.exp(branch * y) + gam[0] * mpmath.besseli(0, y) + sum(terms)
            return mpmath.log(b)

        assert float(mpmath.diff(log_b, mpmath.mpf(x))) == pytest.approx(delta, abs=1e-8)
        assert h == pytest.approx(float(log_b(mpmath.mpf(x))) - delta * x, abs=1e-12)


@pytest.mark.parametrize("x", [0.3, 2.0, 39.0, 41.0, 300.0])
def test_symmetric_slope_matches_central_difference(x):
    # small and large Bessel arguments
    for lam in [(1, -1), (2, 0, -2), (1, 1, -1, -1)]:
        _, m0d, signed = bd._sym_block_data(lam)
        for branch, w in zip((1, -1), signed):
            _, slope = bd._sym_exponent(x, 0.4, branch, m0d, w)
            eps = 1e-5 * x
            up, _ = bd._sym_exponent(x + eps, 0.4, branch, m0d, w)
            down, _ = bd._sym_exponent(x - eps, 0.4, branch, m0d, w)
            assert slope == pytest.approx((up - down) / (2 * eps), abs=1e-7), (lam, branch)


def test_master_symmetric_branch_exponents_scale_as_half_S():
    # bound - log d_lam = log(u^k + v^k) at S = k S0, with u, v the two
    # branch terms at S0, when the minimizer does not depend on S; the
    # power sums then obey p3 = (3 p1 p2 - p1^3) / 2
    lam, S0, delta = (1, 0, -1), 20, 0.5
    dl = rc.weyl_dimension(lam)
    res = [
        bd.per_label_bound(q_sym(lam, k * S0, delta), Method.MASTER_SYMMETRIC) for k in (1, 2, 3)
    ]
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
    monkeypatch.setattr(bd, "_sym_block_data", lambda lam: (3, -1.0, np.zeros((2, 3))))
    for method in (Method.MASTER_SYMMETRIC, Method.MASTER_SYMMETRIC_SIMPLIFIED):
        with pytest.raises(bd.BoundUnavailableError):
            bd.per_label_bound(q_sym((1, -1), 20, 0.4321), method)


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
    # Theorem 1: the per-label master-plain total collapses to
    # 2 e^{-delta S arctanh delta} (1-delta^2)^{-S/2} * sum d_lam
    for d, t, S, delta in [(2, 2, 57, 0.5), (4, 2, 82, 0.5), (2, 5, 30, 0.3)]:
        a = bd.total_bound(d, t, GateSetKind.PLAIN, S, delta, Method.MASTER_PLAIN)
        b = (math.log(2) + math.log(rc.sum_dimensions(d, t))
             - 0.5 * S * math.log1p(-delta * delta) - delta * S * math.atanh(delta))
        assert a.log_bound == pytest.approx(b, abs=1e-12 * max(1, abs(b)))


def per_label_total(d, t, S, delta, method):
    """The union bound as a loop over labels, one per-label bound each."""
    return float(np.logaddexp.reduce([
        bd.per_label_bound(
            BoundQuery(kind=method.kind, S=S, delta=delta, lam=lam), method
        ).log_bound
        for lam in rc.enumerate_lambda_set(d, t)
    ]))


@pytest.mark.parametrize("d,t", [(2, 5), (2, 500), (4, 3), (8, 2), (64, 5)])
def test_total_bound_equals_per_label_loop(d, t):
    for method in Method:
        # the master-symmetric gamma needs the Weyl sums; Bernstein runs at any d
        master_sym = method in (Method.MASTER_SYMMETRIC, Method.MASTER_SYMMETRIC_SIMPLIFIED)
        if master_sym and d > rc.MAX_WEYL_DIM:
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


def test_query_rejects_non_integral_gate_count():
    for kind, method in [("plain", "master-plain"), ("plain", "bernstein-plain"),
                         ("symmetric", "bernstein-symmetric")]:
        with pytest.raises(ValueError, match="S must be integral, got 57.5"):
            bd.total_bound(2, 2, kind, 57.5, 0.5, method)
    with pytest.raises(ValueError, match="57.5"):
        BoundQuery(kind=GateSetKind.PLAIN, S=57.5, delta=0.5, lam=(1, -1))
    # an infinite or NaN count is named too, not an OverflowError
    for S in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"S must be integral, got {S!r}"):
            bd.total_bound(2, 2, "plain", S, 0.5, "master-plain")
    # integral floats and numpy ints are gate counts
    want = bd.total_bound(2, 2, "plain", 57, 0.5, "master-plain").log_bound
    for S in (57.0, np.int64(57), np.int32(57)):
        assert bd.total_bound(2, 2, "plain", S, 0.5, "master-plain").log_bound == want


def test_total_bound_takes_integral_d_and_t():
    want = bd.total_bound(2, 2, "plain", 10, 0.5, "master-plain").log_bound
    assert bd.total_bound(2.0, 2.0, "plain", 10, 0.5, "master-plain").log_bound == want
    with pytest.raises(ValueError, match="t must be integral, got 2.5"):
        bd.total_bound(2, 2.5, "plain", 10, 0.5, "master-plain")
    with pytest.raises(ValueError, match="t must be integral, got 2.5"):
        bd.total_bound(2, 2.5, "symmetric", 10, 0.5, "master-symmetric")


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


def test_clip_flag_read_from_log_bound():
    # a result built from its log bound alone, as a stub builds one
    assert bd.BoundResult(Method.MASTER_PLAIN, 0.5).clipped
    assert not bd.BoundResult(Method.MASTER_PLAIN, -0.5).clipped


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
    with pytest.raises(ValueError, match="need t >= 1, got t=0"):
        bd.concentration_bound_t(2, 0, 10, 0.3)


def test_concentration_lambda_formula():
    lam = (2, 0, -2)
    val = bd.concentration_bound_lambda(lam, 80, 0.4)
    assert val == pytest.approx(math.exp(-3 * 80 * 0.16 / (2 * math.pi**2 * 16)), rel=1e-12)
    assert bd.concentration_bound_lambda((2, 0, -2), 80, 1e-12) == pytest.approx(1.0)
    assert bd.concentration_bound_lambda(lam, 160, 0.4) == pytest.approx(val**2, rel=1e-9)
    for zero in ((0, 0), (0, 0, 0)):
        with pytest.raises(ValueError, match=r"label \(0, 0(, 0)?\) has one-norm 0"):
            bd.concentration_bound_lambda(zero, 10, 0.3)


def test_concentration_beamsplitter():
    val = bd.concentration_bound_beamsplitter(2, 64, 0.25)
    assert val == pytest.approx(math.exp(-64 * 0.0625 / 64), rel=1e-12)
    assert bd.concentration_bound_beamsplitter(2, 64, 1e-12) == pytest.approx(1.0)
    assert bd.concentration_bound_beamsplitter(2, 128, 0.25) == pytest.approx(val**2, rel=1e-9)


@pytest.mark.parametrize("call,named", [
    (lambda: bd.concentration_bound_beamsplitter(0, 10, 0.3), "t=0"),
    (lambda: bd.concentration_bound_t(2, 2, -10, 0.3), "need S >= 1, got S=-10"),
    (lambda: bd.concentration_bound_t(2, 2, 10.5, 0.3), "got 10.5"),
    (lambda: bd.concentration_bound_t(2, 2, 10, math.nan), "got nan"),
    (lambda: bd.concentration_bound_t(0, 2, 10, 0.3), "d=0"),
], ids=["beamsplitter-t0", "negative-S", "fractional-S", "nan-alpha", "d0"])
def test_concentration_bounds_check_inputs(call, named):
    # each bad input is a ValueError naming it, never a bare arithmetic
    # error or a value above 1
    with pytest.raises(ValueError, match=re.escape(named)):
        call()
