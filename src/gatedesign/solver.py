"""Inverting the tail bounds: minimal gate-set sizes and applications.

Covers the closed-form minimal size from the factored plain master bound,
integer search against any of the five bound methods, the Clifford-group
comparison, and the minimal-size table grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import repcore
from .kinds import GateSetKind, Method


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


def min_size_search(d, t, delta, P, method):
    """Smallest S (even, for symmetric methods) with total bound <= 1 - P.

    Each probed S costs one total bound, kept in a memo. The search gallops
    up from the plain closed form (lo = 0, hi doubling) until the bound
    crosses, then bisects on the step lattice. The memo is then checked:
    the bound decreases across every probed S, and the result is a genuine
    crossing.
    """
    from . import bounds

    _check_delta_p(delta, P)
    if not isinstance(method, Method):
        method = Method(method)
    step = 2 if method.kind is GateSetKind.SYMMETRIC else 1
    target = math.log1p(-P)
    seen = {}

    def crossed(S):
        if S not in seen:
            seen[S] = bounds.total_bound(d, t, method.kind, S, delta, method).log_bound
        return seen[S] <= target

    # gallop up from near the plain closed form, which saves probes
    lo, hi = 0, max(step, (min_size_closed_form(d, t, delta, P).S_min // (2 * step)) * step)
    while not crossed(hi):
        if hi > 10**9:
            raise RuntimeError("bound does not reach the target probability")
        lo, hi = hi, 2 * hi
    while hi - lo > step:
        mid = lo + ((hi - lo) // (2 * step)) * step
        if crossed(mid):
            hi = mid
        else:
            lo = mid
    probes = sorted(seen.items())
    for (s1, v1), (s2, v2) in zip(probes, probes[1:]):
        if not v2 < v1 + 1e-12:
            raise RuntimeError(f"bound not decreasing in S: b({s1})={v1}, b({s2})={v2}")
    # crossing property
    assert seen[hi] <= target
    if hi > step:
        assert seen[hi - step] > target
    return MinSizeResult(
        S_min=hi,
        method=method,
        raw_bound_at_S_min=math.exp(seen[hi]),
        d=d,
        t=t,
        delta=delta,
        P=P,
    )


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


def clifford_random_set_size_exact(n):
    """Same quantity from the unrounded closed form, exact dimension sum, at the
    targets the printed constants stand for: delta = 0.01 and P = 0.99."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    d = 2**n
    if d >= 4:
        sum_d = d**4 - 3 * d**2 + 1
    else:
        sum_d = sum(map(repcore._weyl_dim, repcore._label_rows(d, 2)))
    return _closed_form_from_sum(d, 2, 0.01, 0.99, sum_d).S_min


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


def table2_cells(delta=0.5, P=0.99, dims=None):
    """Generate the minimal-size table: (d, t, method, MinSizeResult).

    Symmetric columns stop at d = repcore.MAX_WEYL_DIM, where master-symmetric
    needs the Frobenius-Schur sums at 3 <= n <= d, each over the permutations
    of S_d that keep residue classes mod n. Bernstein-symmetric reads only
    the closed form delta_lambda(2), but waits to be pinned with it.
    """
    dims = tuple(dims) if dims is not None else tuple(TABLE2_COLUMNS)
    for d in dims:
        if d not in TABLE2_COLUMNS:
            raise ValueError(
                f"the table grid has no dimension {d}; "
                f"its dimensions are {', '.join(map(str, TABLE2_COLUMNS))}"
            )
    for d in dims:
        for t in TABLE2_COLUMNS[d]:
            for method in Method:
                if method is Method.MASTER_SYMMETRIC_SIMPLIFIED:
                    continue  # the table's symmetric column is the full bound
                if method.kind is GateSetKind.SYMMETRIC and d > repcore.MAX_WEYL_DIM:
                    continue
                yield d, t, method, min_size_search(d, t, delta, P, method)
