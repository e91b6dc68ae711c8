"""Bessel kernel tests against extended-precision oracles."""
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedesign import specfun
from gatedesign.bounds import THETA_MAX_FACTOR

mpmath.mp.dps = 50


def series_oracle(n, x, terms=40):
    """Truncated ascending series in 50-digit arithmetic."""
    x = mpmath.mpf(x)
    total = mpmath.mpf(0)
    for k in range(terms):
        total += (x / 2) ** (n + 2 * k) / (mpmath.factorial(k) * mpmath.factorial(n + k))
    return float(mpmath.log(total))


def mp_log_bessel(n, x):
    return float(mpmath.log(mpmath.besseli(n, mpmath.mpf(x))))


def test_i0_at_zero():
    assert specfun.log_bessel_i(0, 0.0) == 0.0


@pytest.mark.parametrize("n", [1, 2, 7])
def test_higher_orders_vanish_at_zero(n):
    assert specfun.log_bessel_i(n, 0.0) == -math.inf


def test_i1_at_2_matches_series_oracle():
    assert specfun.log_bessel_i(1, 2.0) == pytest.approx(series_oracle(1, 2.0), abs=1e-13)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 16, 64, 128])
@pytest.mark.parametrize("x", [1e-8, 0.1, 1.0, 10.0, 39.5, 41.0, 100.0, 1e4, 1e6])
def test_twelve_digit_accuracy(n, x):
    got = specfun.log_bessel_i(n, x)
    want = mp_log_bessel(n, x)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (n, x, got, want)


#: the Bessel arguments the symmetric bisection probes: its floor x0 * 1e-13
#: (x0 = 2 delta / sqrt(1 - delta^2)), its ceiling 2 THETA_MAX_FACTOR, and
#: points on both sides of x = 40 and out to 1e6
_PROBED_X = sorted(
    [2.0 * dl / math.sqrt(1.0 - dl * dl) * 1e-13 for dl in (0.05, 0.5, 0.93)]
    + [1e-14, 0.3, 39.5, 40.5, 2.0 * THETA_MAX_FACTOR, 1e6]
)
#: orders 0..d+1 of the bracket for d in {2, 4, 8}, and the largest orders
_PROBED_N = list(range(10)) + [64, 129]


def mp_log_ive(n, x):
    x = mpmath.mpf(x)
    return float(mpmath.log(mpmath.besseli(n, x)) - x)


@pytest.mark.parametrize("x", _PROBED_X)
def test_array_matches_mpmath_on_probed_grid(x):
    arr = specfun.log_ive_array(max(_PROBED_N), x)
    for n in _PROBED_N:
        want = mp_log_ive(n, x)
        assert abs(arr[n] - want) <= 1e-14 * max(1.0, abs(want)), (n, x, arr[n], want)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(n=st.integers(0, 130), log10_x=st.floats(-14.0, 6.0))
def test_array_matches_mpmath_anywhere(n, log10_x):
    x = 10.0**log10_x
    got = specfun.log_ive_array(n, x)[n]
    want = mp_log_ive(n, x)
    assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (n, x, got, want)


@pytest.mark.parametrize("x", [1e-310, 1e-320, 5e-324])
def test_subnormal_arguments_match_mpmath(x):
    # rho_k = x/(2k) is subnormal (few digits) or 0 here; log rho must not lose
    # digits or fail
    arr = specfun.log_ive_array(9, x)
    for n in range(10):
        want = mp_log_bessel(n, x)
        got = specfun.log_bessel_i(n, x)
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (n, x, got, want)
        assert abs(arr[n] + x - want) <= 1e-14 * max(1.0, abs(want)), (n, x, arr[n], want)


def test_array_at_zero():
    assert specfun.log_ive_array(4, 0.0).tolist() == [0.0] + [-math.inf] * 4


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        specfun.log_bessel_i(-1, 1.0)
    with pytest.raises(ValueError):
        specfun.log_bessel_i(0, -1.0)


def test_array_consistent_with_scalar():
    x = 123.0
    arr = specfun.log_ive_array(6, x)
    for n in range(7):
        assert float(arr[n]) + x == pytest.approx(specfun.log_bessel_i(n, x), abs=1e-13)


def test_monotone_in_x_and_n():
    xs = [0.5, 1.0, 3.0, 10.0, 50.0, 200.0]
    for n in (0, 1, 3):
        vals = [specfun.log_bessel_i(n, x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
    for x in (0.5, 5.0, 80.0):
        vals = [specfun.log_bessel_i(n, x) for n in range(0, 6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("x", [1.0, 10.0, 100.0])
def test_normalization_identity(x):
    kmax = int(x) + 60
    total = sum(
        (2.0 if k else 1.0) * math.exp(specfun.log_bessel_i(k, x) - x)
        for k in range(kmax + 1)
    )
    assert abs(total - 1.0) < 1e-10


@pytest.mark.parametrize("n", range(1, 21))
@pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 100.0, 1000.0])
def test_ratio_bounds_contain_true_ratio(n, x):
    lower, upper = specfun.bessel_ratio_bounds(n, x)
    ratio = math.exp(specfun.log_bessel_i(n, x) - specfun.log_bessel_i(n - 1, x))
    assert lower < ratio < upper


def test_ratio_bounds_vanish_at_small_x():
    # both bounds collapse to x/2 as x -> 0+, consistent with I1/I0 -> 0
    lower, upper = specfun.bessel_ratio_bounds(1, 1e-12)
    assert 0 < lower <= upper < 1e-11


@pytest.mark.parametrize("n,x", [(1, 2.0), (3, 10.0)])
def test_ratio_strictly_inside(n, x):
    lower, upper = specfun.bessel_ratio_bounds(n, x)
    ratio = math.exp(specfun.log_bessel_i(n, x) - specfun.log_bessel_i(n - 1, x))
    assert lower < ratio < upper


def test_ratio_bounds_reject_bad_args():
    with pytest.raises(ValueError):
        specfun.bessel_ratio_bounds(0, 1.0)
    with pytest.raises(ValueError):
        specfun.bessel_ratio_bounds(1, 0.0)
