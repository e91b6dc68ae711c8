"""Log-domain modified Bessel functions of the first kind.

The symmetric master bound of a U(d) block needs log I_k(x) for the orders
k = 0..d+1 and x up to ~1.34e8 without overflow. Every x > 0 takes one path:
Miller's algorithm in continued-fraction form (W. Gautschi, SIAM Rev. 9
(1967) 24-82). The ratios rho_k = I_k/I_{k-1} obey
rho_k = x / (2k + x rho_{k+1}); the recurrence starts from rho = 0 at
k = nmax + floor(9 sqrt(x)) + 20, far enough out that I_k/I_0 ~
exp(-k^2/2x) is below rounding. The normalization
e^x = I_0 + 2 sum_{k>=1} I_k fixes I_0 through T_1 = sum_{k>=1} I_k/I_0,
carried as T_k = rho_k (1 + T_{k+1}). Every rho lies in (0, 1), so nothing
overflows and no rescaling is needed.

:func:`log_ive_array` is the package's hot kernel: it runs the recurrence
for a whole array of arguments at once, and the symmetric master bound
calls it once per lockstep bisection step of a batch of labels.
"""
import math
import sys

import numpy as np

from .repcore import _at_least, _real

_TINY = sys.float_info.min

#: largest x :func:`log_bessel_i` takes: the recurrence runs ~9 sqrt(x) steps,
#: 9e6 here, also its largest n. The library calls the kernel at x <= 2e4 in
#: the theta bisection and at x0 = 2 delta / sqrt(1 - delta^2), which reaches
#: 1.34e8, ~1e5 steps, at the largest delta below 1, 1 - 2^-53.
MAX_BESSEL_X = 1e12


def log_ive_array(nmax, x):
    """log(e^-x I_k(x)) for k = 0..nmax at one x >= 0, or one row per entry
    of a 1-D array x; a row holds rho = 0 above its own start, so no row
    depends on another. The loop keeps rho and its denominator per order,
    and the logs are taken once after it."""
    x = np.asarray(x, dtype=float) if np.ndim(x) else float(x)
    first = nmax + 20 + (9.0 * np.sqrt(x)).astype(int)
    lo, hi = int(np.min(first)), int(np.max(first))
    rhos, dens = np.ones((2, nmax + 1) + np.shape(x))
    rho = tail = 0.0 * x
    for k in range(hi, 0, -1):
        denom = 2.0 * k + x * rho
        rho = x / denom if k <= lo else np.where(k <= first, x / denom, 0.0)
        tail = rho * (1.0 + tail)
        if k <= nmax:
            rhos[k], dens[k] = rho, denom
    with np.errstate(divide="ignore"):
        # below the normal range rho has lost digits (at x ~ 5e-324 it is 0)
        lost = rhos < _TINY
        out = np.log(rhos, out=rhos)
        np.copyto(out, np.log(x) - np.log(dens, out=dens), where=lost)
    out[0] = -np.log1p(2.0 * tail)
    out = np.moveaxis(out, 0, -1)
    return np.cumsum(out, axis=-1, out=out)


def log_bessel_i(n, x):
    """log I_n(x) for integer 0 <= n <= 9 sqrt(MAX_BESSEL_X), 0 <= x <= MAX_BESSEL_X
    (-inf for I_{n>=1}(0))."""
    n, x = _at_least(n, "n", 0), _real(x, "x")
    steps = 9 * math.sqrt(MAX_BESSEL_X)
    if n > steps:
        raise ValueError(f"n must be at most 9 sqrt(MAX_BESSEL_X)={steps:g}, got n={n}")
    if not x >= 0.0:
        raise ValueError(f"x must be nonnegative, got x={x}")
    if x > MAX_BESSEL_X:
        raise ValueError(f"x must be at most MAX_BESSEL_X={MAX_BESSEL_X:g}, got x={x}")
    return float(log_ive_array(n, x)[n]) + x
