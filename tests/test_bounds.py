"""Bound-formula tests.

Derived values come from in-file oracles: dense theta-grid scans for the
infima, a 50-digit mpmath evaluation of the symmetric bracket, and the
algebraic identities between printed forms.
"""
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatedesign import bounds as bd
from gatedesign import repcore as rc
from gatedesign import solver, specfun
from gatedesign.bounds import GateSetKind, Method

mpmath.mp.dps = 50


# ---------------------------------------------------------------------------
# argument validation
# ---------------------------------------------------------------------------

def test_query_validation():
    lam = (1, -1)
    with pytest.raises(TypeError):
        bd.per_label_bound(method=Method.MASTER_PLAIN, S=10, delta=0.5)  # no target
    with pytest.raises(TypeError):
        bd.per_label_bound(lam, Method.MASTER_PLAIN, 10, 0.5, t=2)
    with pytest.raises(ValueError):
        bd.per_label_bound(lam, Method.MASTER_PLAIN, 10, 1.5)
    with pytest.raises(ValueError):
        bd.per_label_bound(lam, Method.MASTER_SYMMETRIC, 11, 0.5)
    # the label is checked with the other arguments
    for bad in ((1, 2), (1,), (1.5, -1.5), "junk"):
        with pytest.raises(ValueError):
            bd.per_label_bound(bad, Method.MASTER_SYMMETRIC, 10, 0.5)


def test_query_takes_kind_value():
    # the value of a method is that method: the checks of its kind apply
    res = bd.per_label_bound((1, 0, -1), "master-symmetric", 40, 0.5)
    assert res.method is Method.MASTER_SYMMETRIC and res.method.kind is GateSetKind.SYMMETRIC
    assert res == bd.per_label_bound((1, 0, -1), Method.MASTER_SYMMETRIC, 40, 0.5)
    with pytest.raises(ValueError, match="symmetric sets have even cardinality, got 41"):
        bd.per_label_bound((1, 0, -1), "master-symmetric", 41, 0.5)
    with pytest.raises(ValueError, match="'junk' is not a valid Method"):
        bd.per_label_bound((1, 0, -1), "junk", 40, 0.5)


def test_method_kind_compatibility():
    with pytest.raises(ValueError):
        bd.total_bound(2, 2, GateSetKind.PLAIN, 10, 0.5, Method.MASTER_SYMMETRIC)
    for method in Method:
        for kind in GateSetKind:
            if method.kind is kind:
                assert bd.total_bound(2, 2, kind, 20, 0.5, method).method is method
                continue
            message = f"method {method.value} does not apply to kind {kind.value}"
            with pytest.raises(ValueError, match=message):
                bd.total_bound(2, 2, kind, 20, 0.5, method)
    # per block the method fixes the kind: an odd S sizes a plain set only
    assert bd.per_label_bound((1, -1), Method.MASTER_PLAIN, 11, 0.5).method is Method.MASTER_PLAIN
    with pytest.raises(ValueError, match="symmetric sets have even cardinality, got 11"):
        bd.per_label_bound((1, -1), Method.BERNSTEIN_SYMMETRIC, 11, 0.5)


@pytest.mark.parametrize("method", list(Method))
def test_per_label_bound_accepts_method_values(method):
    want = bd.per_label_bound((1, -1), method, 20, 0.5)
    assert bd.per_label_bound((1, -1), method.value, 20, 0.5) == want
    assert bd.per_label_bound((1, -1), method.value, 20, 0.5).method is method


@pytest.mark.parametrize("method", list(Method))
def test_per_label_bound_takes_every_label_form(method, monkeypatch):
    # the label reaches the per-block code as its entries tuple, so a tuple,
    # a list and an int array are one label to every method
    seen = []
    real_dim, real_entries = rc._weyl_dim, bd._sym_entries
    monkeypatch.setattr(rc, "_weyl_dim", lambda lam: seen.append(lam) or real_dim(lam))
    monkeypatch.setattr(bd, "_sym_entries",
                        lambda labels, *a: seen.extend(labels) or real_entries(labels, *a))
    forms = ((1, 0, -1), [1, 0, -1], np.array([1, 0, -1]))
    logs = {bd.per_label_bound(lam, method, 20, 0.5).log_bound for lam in forms}
    assert len(seen) >= len(forms)
    assert all(lam == (1, 0, -1) and type(lam) is tuple for lam in seen)
    assert len(logs) == 1 and math.isfinite(logs.pop())


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
    res = bd.per_label_bound((1, -1), Method.BERNSTEIN_PLAIN, 10, 1e-9)
    assert res.raw == pytest.approx(2 * 3, rel=1e-6)
    assert res.clipped and res.probability == 1.0


def test_bernstein_symmetric_uses_fs_constant():
    # lam=(1,-1): delta_lam(2)=1/3, denominator 6*(4/3) + 4*delta = 8 + 4*delta
    S, delta = 20, 0.5
    res = bd.per_label_bound((1, -1), Method.BERNSTEIN_SYMMETRIC, S, delta)
    expected = math.log(6) - 3 * S * delta**2 / (8 + 4 * delta)
    assert res.log_bound == pytest.approx(expected, abs=1e-12)


def test_bernstein_plain_formula():
    S, delta = 40, 0.3
    res = bd.per_label_bound((2, 0, -1, -1), Method.BERNSTEIN_PLAIN, S, delta)
    expected = math.log(2 * 45) - 3 * S * delta**2 / (6 + 2 * delta)
    assert res.log_bound == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# master bound, plain
# ---------------------------------------------------------------------------

def test_master_plain_vacuous_at_small_delta():
    res = bd.per_label_bound((1, -1), Method.MASTER_PLAIN, 10, 1e-9)
    assert res.raw == pytest.approx(6.0, rel=1e-6)


def test_master_plain_two_forms_agree():
    # the closed-form size reads the exponent at S = 1; the totals at S
    for delta in (0.05, 0.3, 0.5, 0.7, 0.9, 0.99):
        for S in (1, 10, 57, 400):
            a = bd._s_linear_exponent(Method.MASTER_PLAIN, S, delta, None)
            b = S * bd._s_linear_exponent(Method.MASTER_PLAIN, 1.0, delta, None)
            assert a == pytest.approx(b, abs=1e-12 * max(1, abs(a)))


def test_master_plain_monotone_in_S_and_delta():
    lam = (1, -1)
    vals_S = [
        bd.per_label_bound(lam, Method.MASTER_PLAIN, S, 0.5).log_bound
        for S in range(10, 200, 10)
    ]
    assert all(a > b for a, b in zip(vals_S, vals_S[1:]))
    vals_d = [
        bd.per_label_bound(lam, Method.MASTER_PLAIN, 50, dd).log_bound
        for dd in np.linspace(0.05, 0.95, 19)
    ]
    assert all(a > b for a, b in zip(vals_d, vals_d[1:]))


def test_master_plain_rejects_delta_out_of_range():
    with pytest.raises(ValueError, match=re.escape("delta must be in (0, 1), got 1.0")):
        bd.per_label_bound((1, -1), Method.MASTER_PLAIN, 10, 1.0)


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
    full = bd.per_label_bound(lam, Method.MASTER_SYMMETRIC, S, delta)
    simp = bd.per_label_bound(lam, Method.MASTER_SYMMETRIC_SIMPLIFIED, S, delta)
    assert full.log_bound <= simp.log_bound + 1e-9


def test_symmetric_simplified_limit_at_small_delta():
    res = bd.per_label_bound((1, -1), Method.MASTER_SYMMETRIC_SIMPLIFIED, 20, 1e-8)
    assert res.raw == pytest.approx(6.0, rel=1e-5)


def block_data(lam):
    """(m_lam(0)/d_lam, signed): the bracket data of one label as the symmetric
    master bound reads it, with signed the 2 x (d+1) branch weights, each
    divided from the exact ints of the gamma-row memo as the batch does."""
    dl, m0, row = rc._gamma_row(lam)
    return m0 / dl, np.array([[g / dl * s**k for k, g in enumerate(row)] for s in (1, -1)])


def test_batch_bracket_weights_are_the_exact_gammas_rounded(monkeypatch):
    # the batch divides the exact ints of the gamma-row memo by int true
    # division, which rounds correctly: the bits of float(Fraction) of
    # gamma_coefficients, on every label of the master-symmetric Table-2
    # spectra (the spectra of one d are nested, so the largest t is read; at
    # d = 2 every label of t = 500 and every 50th of t = 5000)
    seen = []
    real = bd._branch_exponents
    monkeypatch.setattr(bd, "_branch_exponents", lambda x, delta, m0d, signed:
                        seen.append((m0d, signed)) or real(x, delta, m0d, signed))
    groups = [rc.block_spectrum(d, t).labels for d, t in ((2, 500), (4, 20), (8, 5))]
    for labels in groups + [rc.block_spectrum(2, 5000).labels[::50]]:
        seen.clear()
        bd._fill_sym_cache(labels, 0.5, False)
        m0d, signed = seen[0]
        want_m0d, want_signed = [], []
        for lam in labels:
            gam = rc.gamma_coefficients(lam)
            want_m0d.append(float(Fraction(rc.zero_weight_multiplicity(lam), rc.weyl_dimension(lam))))
            want_signed.append([[float(gam[k]) * s**k for k in range(len(lam) + 1)] for s in (1, -1)])
        assert m0d.tobytes() == np.array(want_m0d).tobytes()
        assert signed.tobytes() == np.array(want_signed).tobytes()


def branch_exponents(x, delta, m0d, signed, branch):
    """(h(x), h'(x)) of one branch (0 for +, 1 for -) from a one-row batch."""
    h, slope = bd._branch_exponents(np.full((1, 2), x), delta, np.array([m0d]), signed[None])
    return h[0, branch], slope[0, branch]


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
    dl, (m0d, (gvec, _)) = rc.weyl_dimension(lam), block_data(lam)
    got = bd.per_label_bound((1, -1), Method.MASTER_SYMMETRIC, S, delta)
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
    m0d, (gvec, _) = block_data(lam)
    for branch, (h, x) in zip((1, -1), bd._sym_entries((lam,), delta, True)[0][1:]):
        f = 0.5 * S * h
        grid = grid_branch_min(S, delta, m0d, gvec, branch)
        assert f <= grid + 1e-9
        assert f >= grid - 1e-4


@pytest.mark.parametrize("lam", [(0, 0), (1, 1), (2, 2, 2)])
def test_symmetric_trivial_block_takes_the_theta_to_zero_limit(lam):
    # a block trivial on SU(d) has B+(x) = e^x, so h+ = (1 - delta) x rises
    # from 0: the + branch is the theta -> 0 limit, and the bound is d_lam = 1
    plus, minus = bd._sym_entries((lam,), 0.5, True)[0][1:]
    assert plus == (0.0, 0.0)
    assert minus[0] < 0.0
    res = bd.per_label_bound(lam, Method.MASTER_SYMMETRIC, 40, 0.5)
    assert res.log_bound == 0.0
    assert res.theta_star == 0.0


def test_full_entries_never_exceed_the_theta_to_zero_limit():
    # h is convex with h(0+) = 0, so its infimum is at most 0, and theta -> 0
    # bounds a block by 2 d_lam at any S; at delta = 1e-12 the bisected
    # minima of (4, 2) round up to 5e-17 above 0, and h(x0) of the
    # simplified entries to 7.8e-17: each is that limit, (0, 0). No block
    # bound then exceeds log(2 d_lam), and the size search names the flat
    # rate 0.0
    lam = (1, 0, 0, -1)
    for method in (Method.MASTER_SYMMETRIC, Method.MASTER_SYMMETRIC_SIMPLIFIED):
        full = method is Method.MASTER_SYMMETRIC
        entries = bd._sym_entries(rc.block_spectrum(4, 2).labels, 1e-12, full)
        assert all(h < 0.0 or (h, x) == (0.0, 0.0) for entry in entries for h, x in entry[1:])
        res = bd.per_label_bound(lam, method, 10**12, 1e-12)
        assert res.log_bound <= math.log(2 * rc.weyl_dimension(lam))
        with pytest.raises(ValueError, match="the flattest per-gate rate is 0.0$"):
            solver.min_size_search(4, 2, 1e-12, 0.99, method)


@pytest.mark.parametrize("method", [Method.MASTER_PLAIN, Method.MASTER_SYMMETRIC,
                                    Method.MASTER_SYMMETRIC_SIMPLIFIED,
                                    Method.BERNSTEIN_PLAIN, Method.BERNSTEIN_SYMMETRIC])
def test_flat_rate_message_has_no_signed_zero(method):
    # at delta = 1e-300 the Bernstein rates underflow to -0.0 and the master
    # rates round to 0.0: the size search names both 0.0. At the subnormal
    # 1e-320 the symmetric master bracket floor x0 * 1e-13 underflows to 0
    symmetric_master = method in (Method.MASTER_SYMMETRIC, Method.MASTER_SYMMETRIC_SIMPLIFIED)
    for delta in (1e-300, 1e-320) if symmetric_master else (1e-300,):
        with pytest.raises(ValueError, match="the flattest per-gate rate is 0.0$"):
            solver.min_size_search(2, 2, delta, 0.99, method)


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
    got = bd.per_label_bound((2, -2), Method.MASTER_SYMMETRIC_SIMPLIFIED, 100, 0.3)
    assert got.log_bound == pytest.approx(float(mpmath.log(oracle)), abs=1e-10)


@pytest.mark.parametrize(
    "lam,delta",
    [((1, -1), 0.5), ((2, -2), 0.3), ((1, 0, -1), 0.45), ((1, 1, -1, -1), 0.7)],
)
def test_symmetric_minimizer_is_stationary_mpmath(lam, delta):
    # at an interior minimum x*, (log B)'(x*) = delta, B summed in 50 digits
    m0d, (gvec, _) = block_data(lam)
    m0d = mpmath.mpf(m0d)
    gam = [mpmath.mpf(float(g)) for g in gvec]
    for branch, (h, x) in zip((1, -1), bd._sym_entries((lam,), delta, True)[0][1:]):
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
        m0d, signed = block_data(lam)
        for branch in range(2):
            _, slope = branch_exponents(x, 0.4, m0d, signed, branch)
            eps = 1e-5 * x
            up, _ = branch_exponents(x + eps, 0.4, m0d, signed, branch)
            down, _ = branch_exponents(x - eps, 0.4, m0d, signed, branch)
            assert slope == pytest.approx((up - down) / (2 * eps), abs=1e-7), (lam, branch)


def test_master_symmetric_branch_exponents_scale_as_half_S():
    # bound - log d_lam = log(u^k + v^k) at S = k S0, with u, v the two
    # branch terms at S0, when the minimizer does not depend on S; the
    # power sums then obey p3 = (3 p1 p2 - p1^3) / 2
    lam, S0, delta = (1, 0, -1), 20, 0.5
    dl = rc.weyl_dimension(lam)
    res = [
        bd.per_label_bound(lam, Method.MASTER_SYMMETRIC, k * S0, delta) for k in (1, 2, 3)
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
    # data whose bracket B(x) = -e^{+-x} is negative at every x: the gamma
    # row of (1, -1) with d_lam = 3, m_lam(0) = -3 and every gamma zero. The
    # size search, with no finite rate to bracket it, raises the total's error
    monkeypatch.setattr(rc, "_gamma_row", lambda lam: (3, -3, (0, 0, 0)))
    monkeypatch.setattr(bd, "_sym_cache", {})
    for method in (Method.MASTER_SYMMETRIC, Method.MASTER_SYMMETRIC_SIMPLIFIED):
        with pytest.raises(bd.BoundUnavailableError):
            bd.per_label_bound((1, -1), method, 20, 0.4321)
        with pytest.raises(bd.BoundUnavailableError, match=r"lam=\(1, -1\)"):
            solver.min_size_search(2, 2, 0.4321, 0.99, method)


def test_delta_sweep_builds_the_gamma_rows_once(gamma_row_builds):
    # the bracket weights are memoized per label, built once and read at
    # every delta and by every spectrum holding the label: Lambda~_3 lies in
    # Lambda~_4
    bd._sym_cache.clear()
    for t in (3, 4):
        for delta in (0.3, 0.5, 0.7):
            bd.total_bound(4, t, GateSetKind.SYMMETRIC, 100, delta, Method.MASTER_SYMMETRIC)
    assert sorted(gamma_row_builds) == sorted(rc.block_spectrum(4, 4).labels)


@pytest.mark.parametrize("method", [Method.MASTER_SYMMETRIC, Method.MASTER_SYMMETRIC_SIMPLIFIED])
def test_spectrum_is_filled_once_per_delta(method, monkeypatch):
    # a spectrum of any size is filled whole in one batch, so the total's
    # per-label reads, the next probe and a later per-label read all hit,
    # and the other master-symmetric method adds its entries beside them.
    # The table holds one delta: a new one empties it
    fills = []
    real = bd._fill_sym_cache
    monkeypatch.setattr(bd, "_fill_sym_cache",
                        lambda labels, *a: fills.append(len(labels)) or real(labels, *a))
    other, = {Method.MASTER_SYMMETRIC, Method.MASTER_SYMMETRIC_SIMPLIFIED} - {method}
    bd._sym_cache.clear()
    for S in (100, 200):
        bd.total_bound(2, 5000, GateSetKind.SYMMETRIC, S, 0.41, method)
    bd.total_bound(2, 20, GateSetKind.SYMMETRIC, 100, 0.41, other)
    bd.per_label_bound((7, -7), method, 100, 0.41)
    assert fills == [5000, 20]
    bd.total_bound(2, 20, GateSetKind.SYMMETRIC, 100, 0.42, method)
    bd.per_label_bound((7, -7), method, 100, 0.42)
    assert fills == [5000, 20, 20]
    bd.per_label_bound((7, -7), method, 100, 0.41)
    assert fills == [5000, 20, 20, 1]


@pytest.mark.parametrize("method", [Method.MASTER_SYMMETRIC, Method.MASTER_SYMMETRIC_SIMPLIFIED])
@pytest.mark.parametrize("d,t,step", [(4, 4, 1), (8, 3, 1), (2, 500, 20)])
def test_one_row_batch_equals_its_row_of_the_full_batch(d, t, step, method):
    # a label's entry does not depend on the labels batched with it: a
    # per-label miss gives the bits of the total's lockstep batch, and
    # neither batch writes the table
    labels, full = rc.block_spectrum(d, t).labels, method is Method.MASTER_SYMMETRIC
    bd._sym_cache.clear()
    batch = bd._fill_sym_cache(labels, 0.5, full)
    for lam, entry in list(zip(labels, batch))[::step]:
        assert bd._fill_sym_cache((lam,), 0.5, full) == [entry], lam
    assert bd._sym_cache == {}


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
        bd.per_label_bound(lam, method, S, delta).log_bound
        for lam in rc.enumerate_lambda_set(d, t)
    ]))


@pytest.mark.parametrize("d,t", [(2, 5), (2, 500), (4, 3), (8, 2), (64, 5)])
def test_total_bound_equals_per_label_loop(d, t):
    for method in Method:
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
        bd.per_label_bound((1, -1), Method.MASTER_PLAIN, 57.5, 0.5)
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
