"""Log-domain modified Bessel functions of the first kind.

The symmetric master bound needs log I_n(x) for n up to ~2*64 and x up to
~1e6 without overflow. Small arguments use the ascending power series with a
streaming log-sum-exp (all terms positive); large arguments use Miller's
downward recurrence normalized through e^x = I_0 + 2*sum_k I_k, carried in a
rescaled representation with per-order log bookkeeping so the full order
range of one pass stays representable.

These are the package's hot kernels: they run inside the theta-minimization
of the symmetric master bound, once per bisection step.
"""
import math

import numpy as np

#: series/Miller crossover; the series needs ~x/2 + O(sqrt x) terms, the
#: recurrence ~x + O(sqrt x) steps, so the switch point is uncritical
_SERIES_CUTOFF = 40.0

_RENORM = 1e250
_LOG_RENORM = math.log(_RENORM)


def _log_ive_series(n, x):
    """log(e^-x I_n(x)) by the ascending series, x <= ~cutoff."""
    if x == 0.0:
        return 0.0 if n == 0 else -np.inf
    lh = math.log(0.5 * x)
    m = n * lh - math.lgamma(n + 1.0)
    mx = m
    acc = 1.0
    j = 0
    while True:
        j += 1
        m += 2.0 * lh - math.log(float(j)) - math.log(float(n + j))
        if m > mx:
            acc = acc * math.exp(mx - m) + 1.0
            mx = m
        else:
            acc += math.exp(m - mx)
            if m < mx - 60.0 and 2.0 * j > x:
                break
        if j > 600:
            break
    return mx + math.log(acc) - x


def log_ive_array(nmax, x):
    """log(e^-x I_k(x)) for k = 0..nmax at one argument x >= 0."""
    out = np.empty(nmax + 1)
    if x == 0.0:
        out[0] = 0.0
        for k in range(1, nmax + 1):
            out[k] = -np.inf
        return out
    if x <= _SERIES_CUTOFF:
        for k in range(nmax + 1):
            out[k] = _log_ive_series(k, x)
        return out
    top = max(nmax, int(x))
    start = top + 2 * int(math.sqrt(40.0 * top)) + 20
    fkp1 = 0.0
    fk = 1e-30
    scale = 0.0
    ssum = 0.0
    logf = np.empty(nmax + 1)
    for k in range(start, 0, -1):
        ssum += 2.0 * fk
        if k <= nmax:
            logf[k] = math.log(fk) + scale
        fkm1 = fkp1 + (2.0 * k / x) * fk
        fkp1 = fk
        fk = fkm1
        if fk > _RENORM:
            fk /= _RENORM
            fkp1 /= _RENORM
            ssum /= _RENORM
            scale += _LOG_RENORM
    ssum += fk
    logf[0] = math.log(fk) + scale
    lsum = math.log(ssum) + scale
    for k in range(nmax + 1):
        out[k] = logf[k] - lsum
    return out


def log_bessel_i(n, x):
    """log I_n(x) for integer n >= 0, x >= 0 (-inf for I_{n>=1}(0))."""
    n = int(n)
    x = float(x)
    if n < 0 or x < 0.0:
        raise ValueError(f"need n >= 0 and x >= 0, got n={n}, x={x}")
    if x == 0.0:
        return 0.0 if n == 0 else -math.inf
    if x <= _SERIES_CUTOFF:
        return float(_log_ive_series(n, x)) + x
    return float(log_ive_array(n, x)[n]) + x


def bessel_ratio_bounds(n, x):
    """Two-sided bounds on I_n(x)/I_{n-1}(x).

    x/(n - 1/2 + sqrt((n + 1/2)^2 + x^2)) < ratio
        < x/(n - 1 + sqrt((n + 1)^2 + x^2))
    """
    n = int(n)
    x = float(x)
    if n < 1 or x <= 0.0:
        raise ValueError(f"need n >= 1 and x > 0, got n={n}, x={x}")
    lower = x / (n - 0.5 + math.sqrt((n + 0.5) ** 2 + x * x))
    upper = x / (n - 1.0 + math.sqrt((n + 1.0) ** 2 + x * x))
    return lower, upper
