"""Inverting the tail bounds: minimal gate-set sizes and applications.

Covers the closed-form minimal size from the factored plain master bound,
integer search against any of the five bound methods, the coarse scaling
estimate, the Clifford-group comparison, and depth amplification.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import bounds, repcore
from .bounds import GateSetKind, Method
from .repcore import MAX_WEYL_DIM


@dataclass(frozen=True)
class MinSizeResult:
    """Smallest gate count whose bound crosses below 1 - P."""

    S_min: int
    method: Method
    raw_bound_at_S_min: float
    d: int
    t: int
    delta: float
    P: float

    @property
    def n_pairs(self):
        """Pair count for symmetric sets (reported as '2 x n')."""
        if self.method.kind is not GateSetKind.SYMMETRIC:
            raise ValueError(f"{self.method.value} has no pair count")
        return self.S_min // 2


def _log_binomial_rate(delta):
    """log((1+d)^(1+d) (1-d)^(1-d)), the per-gate decay rate."""
    return (1.0 + delta) * math.log1p(delta) + (1.0 - delta) * math.log1p(-delta)


def _check_delta_p(delta, P):
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not 0.0 < P < 1.0:
        raise ValueError(f"P must be in (0, 1), got {P}")


def min_size_closed_form(d, t, delta, P):
    """Invert the factored plain master bound.

    S >= 2 (log(2 sum d_lam) - log(1 - P)) / log((1+d)^(1+d)(1-d)^(1-d)),
    with the dimension sum exact.
    """
    _check_delta_p(delta, P)
    return _closed_form_from_sum(d, t, delta, P, repcore.block_spectrum(d, t).sum_dim)


def _closed_form_from_sum(d, t, delta, P, sum_d):
    num = 2.0 * (math.log(2 * sum_d) - math.log1p(-P))
    s_real = num / _log_binomial_rate(delta)
    s_min = math.ceil(s_real)
    raw = math.exp(math.log(2 * sum_d) - 0.5 * s_min * _log_binomial_rate(delta))
    return MinSizeResult(
        S_min=s_min,
        method=Method.MASTER_PLAIN,
        raw_bound_at_S_min=raw,
        d=d,
        t=t,
        delta=delta,
        P=P,
    )


def min_size_search(d, t, delta, P, method, weyl_cap=MAX_WEYL_DIM):
    """Smallest S (even, for symmetric methods) with total bound <= 1 - P.

    Exponential bracketing followed by binary search on the step lattice;
    the bound values seen while bracketing are checked to decrease, and the
    result is checked to be a genuine crossing.
    """
    _check_delta_p(delta, P)
    if not isinstance(method, Method):
        method = Method(method)
    step = 2 if method.kind is GateSetKind.SYMMETRIC else 1
    target = math.log1p(-P)

    def log_bound(S):
        return bounds.total_bound(
            d, t, method.kind, S, delta, method, weyl_cap=weyl_cap
        ).log_bound

    # exponential bracket, seeded near the plain closed form to save probes
    hint = max(step, (min_size_closed_form(d, t, delta, P).S_min // (2 * step)) * step)
    probes = [(hint, log_bound(hint))]
    if probes[0][1] <= target:
        s = hint
        while s > step:
            s = max(step, (s // (2 * step)) * step)
            val = log_bound(s)
            probes.append((s, val))
            if val > target:
                break
    else:
        s = hint
        while True:
            s *= 2
            val = log_bound(s)
            probes.append((s, val))
            if val <= target:
                break
            if s > 10**9:
                raise RuntimeError("bound does not reach the target probability")
    probes.sort(key=lambda p: p[0])
    for (s1, v1), (s2, v2) in zip(probes, probes[1:]):
        if s1 != s2 and not v2 < v1 + 1e-12:
            raise RuntimeError(
                f"bound not decreasing across bracket: b({s1})={v1}, b({s2})={v2}"
            )
    lo = max((s for s, v in probes if v > target), default=0)
    hi = min(s for s, v in probes if v <= target)
    if lo > hi:
        raise RuntimeError("bracket inverted; bound is not monotone in S")
    while hi - lo > step:
        mid = lo + ((hi - lo) // (2 * step)) * step
        if log_bound(mid) <= target:
            hi = mid
        else:
            lo = mid
    # crossing property
    final = log_bound(hi)
    assert final <= target
    if hi > step:
        assert log_bound(hi - step) > target
    return MinSizeResult(
        S_min=hi,
        method=method,
        raw_bound_at_S_min=math.exp(final),
        d=d,
        t=t,
        delta=delta,
        P=P,
    )


def min_size_scaling(d, t, delta, P):
    """Coarse over-estimate using sum d_lam <= d^(2t).

    2 (2t log d + log 2 - log(1-P)) / log((1+d)^(1+d)(1-d)^(1-d)); always at
    least the closed-form value.
    """
    _check_delta_p(delta, P)
    num = 2.0 * (2.0 * t * math.log(d) + math.log(2.0) - math.log1p(-P))
    return num / _log_binomial_rate(delta)


# ---------------------------------------------------------------------------
# Clifford-group comparison (0.01-approximate 2-designs on n qubits)
# ---------------------------------------------------------------------------

def clifford_cardinality(n):
    """|C_n| = 2^(n^2 + 2n) prod_j (4^j - 1), exact."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out = 1 << (n * n + 2 * n)
    for j in range(1, n + 1):
        out *= 4**j - 1
    return out


def clifford_random_set_size(n):
    """Printed-constant gate count: ceil(2*10^4 (log(2^(4n+1) - 3*2^(2n+1) + 2) + 4.61))."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    arg = (1 << (4 * n + 1)) - 3 * (1 << (2 * n + 1)) + 2
    return math.ceil(2e4 * (math.log(arg) + 4.61))


def clifford_random_set_size_exact(n, delta=0.01, P=0.99):
    """Same quantity from the unrounded closed form, exact dimension sum."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    d = 2**n
    sum_d = d**4 - 3 * d**2 + 1 if d >= 4 else repcore.sum_dimensions(d, 2)
    return _closed_form_from_sum(d, 2, delta, P, sum_d).S_min


def clifford_ratio(n):
    """|C_n| / S_n as an exact rational, S_n from the printed-constant formula."""
    if not 1 <= n <= 50:
        raise ValueError(f"need 1 <= n <= 50, got {n}")
    return Fraction(clifford_cardinality(n), clifford_random_set_size(n))


# ---------------------------------------------------------------------------
# depth amplification
# ---------------------------------------------------------------------------

def depth_for_target(delta0, delta_target):
    """Smallest circuit depth l with delta0^l <= delta_target."""
    if not 0.0 < delta_target <= delta0 < 1.0:
        raise ValueError(
            f"need 0 < delta_target <= delta0 < 1, got {delta0}, {delta_target}"
        )
    ratio = math.log(delta_target) / math.log(delta0)
    return max(1, math.ceil(ratio - 1e-12))


# ---------------------------------------------------------------------------
# the published table grid
# ---------------------------------------------------------------------------

#: t columns per dimension in the minimal-size table
TABLE2_COLUMNS = {
    2: (2, 3, 4, 5, 20, 500, 5000),
    4: (2, 3, 4, 5, 20),
    8: (2, 3, 4, 5),
    16: (2, 3, 4, 5),
    32: (2, 3, 4, 5),
    64: (2, 3, 4, 5),
}

#: symmetric columns need the Weyl-group machinery, capped at d <= 8
TABLE2_SYMMETRIC_MAX_D = MAX_WEYL_DIM


def table2_cells(delta=0.5, P=0.99, dims=None, methods=None, weyl_cap=MAX_WEYL_DIM):
    """Generate the minimal-size table: (d, t, method, MinSizeResult)."""
    dims = tuple(dims) if dims is not None else tuple(TABLE2_COLUMNS)
    methods = tuple(methods) if methods is not None else tuple(Method)
    for d in dims:
        for t in TABLE2_COLUMNS[d]:
            for method in methods:
                if method is Method.MASTER_SYMMETRIC_SIMPLIFIED:
                    continue  # the table's symmetric column is the full bound
                if method.kind is GateSetKind.SYMMETRIC and d > TABLE2_SYMMETRIC_MAX_D:
                    continue
                yield d, t, method, min_size_search(d, t, delta, P, method, weyl_cap=weyl_cap)
