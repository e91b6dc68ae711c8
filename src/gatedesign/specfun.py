"""Log-domain modified Bessel functions of the first kind.

The symmetric master bound of a U(d) block needs log I_k(x) for the orders
k = 0..d+1 and x up to ~1e6 without overflow. Every x > 0 takes one path:
Miller's algorithm in continued-fraction form (W. Gautschi, SIAM Rev. 9
(1967) 24-82). The ratios rho_k = I_k/I_{k-1} obey
rho_k = x / (2k + x rho_{k+1}); the recurrence starts from rho = 0 at
k = nmax + floor(9 sqrt(x)) + 20, far enough out that I_k/I_0 ~
exp(-k^2/2x) is below rounding. The normalization
e^x = I_0 + 2 sum_{k>=1} I_k fixes I_0 through T_1 = sum_{k>=1} I_k/I_0,
carried as T_k = rho_k (1 + T_{k+1}). Every rho lies in (0, 1), so nothing
overflows and no rescaling is needed.

These are the package's hot kernels: they run inside the theta-minimization
of the symmetric master bound, once per bisection step.
"""
import math
import sys

import numpy as np

from .repcore import _at_least, _real

_TINY = sys.float_info.min


def log_ive_array(nmax, x):
    """log(e^-x I_k(x)) for k = 0..nmax at one argument x >= 0."""
    out = np.empty(nmax + 1)
    if x == 0.0:
        out[0] = 0.0
        out[1:] = -np.inf
        return out
    rho = 0.0
    tail = 0.0
    for k in range(nmax + int(9.0 * math.sqrt(x)) + 20, 0, -1):
        denom = 2.0 * k + x * rho
        rho = x / denom
        tail = rho * (1.0 + tail)
        if k <= nmax:
            # below the normal range rho has lost digits (at x ~ 5e-324 it is 0)
            out[k] = math.log(rho) if rho >= _TINY else math.log(x) - math.log(denom)
    out[0] = -math.log1p(2.0 * tail)
    return np.cumsum(out, out=out)


def log_bessel_i(n, x):
    """log I_n(x) for integer n >= 0, x >= 0 (-inf for I_{n>=1}(0))."""
    n, x = _at_least(n, "n", 0), _real(x, "x")
    if not x >= 0.0:
        raise ValueError(f"x must be nonnegative, got x={x}")
    return float(log_ive_array(n, x)[n]) + x
