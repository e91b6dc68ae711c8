"""Inverting the tail bounds: minimal gate-set sizes and applications.

Covers the closed-form minimal size from the factored plain master bound,
integer search against any of the five bound methods, the Clifford-group
comparison, and the minimal-size table grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import repcore
from .kinds import GateSetKind, Method, _s_linear_exponent
from .repcore import _at_least, _open_unit


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


def _check_args(d, t, delta, P):
    """The checked (d, t, delta, P): ints >= 2 and >= 1, then floats in (0, 1)."""
    d, t = _at_least(d, "d", 2), _at_least(t, "t", 1)
    return d, t, _open_unit(delta, "delta"), _open_unit(P, "P")


def min_size_closed_form(d, t, delta, P):
    """Invert the factored plain master bound.

    S >= 2 (log(2 sum d_lam) - log(1 - P)) / log((1+d)^(1+d)(1-d)^(1-d)),
    with the dimension sum exact; the rate is -2 b, b the master-plain
    exponent at S = 1 (:func:`kinds._s_linear_exponent`).
    """
    d, t, delta, P = _check_args(d, t, delta, P)
    return _closed_form_from_sum(d, t, delta, P, repcore.block_spectrum(d, t).sum_dim)


def _closed_form_from_sum(d, t, delta, P, sum_d):
    b = _s_linear_exponent(Method.MASTER_PLAIN, 1.0, delta, None)
    s_real = (math.log(2 * sum_d) - math.log1p(-P)) / -b if b < 0.0 else math.inf
    if not math.isfinite(s_real):
        raise ValueError(f"the closed-form size at delta={delta} is beyond the float range")
    s_min = math.ceil(s_real)
    raw = math.exp(math.log(2 * sum_d) + s_min * b)
    return MinSizeResult(S_min=s_min, method=Method.MASTER_PLAIN, raw_bound_at_S_min=raw,
                         d=d, t=t, delta=delta, P=P)


def min_size_search(d, t, delta, P, method):
    """Smallest S (even, for symmetric methods) with total bound <= 1 - P.

    A total is the log-sum-exp of terms a + S b whose e^a sum to 2 sum d_lam,
    so it lies between L + S b_min and L + S b_max, L = log(2 sum d_lam),
    with b_min and b_max the steepest and the flattest rate
    (:func:`bounds._rate_range`; a rate that rounds to 0 raises, and so does
    a nonpositive bracket, with :class:`bounds.BoundUnavailableError`). S_min
    is thus between R / -b_min and R / -b_max, R = L - log(1 - P). The search
    bisects inside that bracket on the step lattice, one step wider each side
    for rounding; each probed S costs one memoized total bound. The result is
    checked to be a crossing: at most the target there, above it one step below.
    Past S near 2^52 a step can move the total by less than its rounding; a
    failed check there raises ``ValueError``, as S_min is then past the float
    resolution of the bound. So does a master-symmetric rate h/2 no steeper
    than the rounding floor of h (:func:`bounds._branch_exponents`), which
    then sets S_min by rounding alone.
    """
    from . import bounds

    d, t, delta, P = _check_args(d, t, delta, P)
    method = Method(method)
    step = 2 if method.kind is GateSetKind.SYMMETRIC else 1
    target = math.log1p(-P)
    seen = {}

    def crossed(S):
        if S not in seen:
            seen[S] = bounds.total_bound(d, t, method.kind, S, delta, method).log_bound
        return seen[S] <= target

    spec = repcore.block_spectrum(d, t)
    b_min, b_max = bounds._rate_range(spec, delta, method)
    R = math.log(2 * spec.sum_dim) - target
    if not (b_max < 0.0 and math.isfinite(R / b_max)):
        # + 0.0 turns an underflowed -0.0 into 0.0: one message for every method
        raise ValueError(f"no size bracket at delta={delta}: "
                         f"the flattest per-gate rate is {b_max + 0.0}")
    floor = 2 * (d + 3) * 2.0**-52  # a rate is h/2; h rounds by 4 (d + 3) 2^-52
    if method in (Method.MASTER_SYMMETRIC, Method.MASTER_SYMMETRIC_SIMPLIFIED) and -b_max <= floor:
        raise ValueError(f"S_min at delta={delta} lies past the float resolution of the bound: "
                         f"the flattest per-gate rate {b_max:.3g} is within the rounding floor "
                         f"{floor:.3g} of its exponent")
    lo = max(0, step * (math.floor(R / -b_min / step) - 1))
    hi = step * (math.ceil(R / -b_max / step) + 1)
    while hi - lo > step:
        mid = lo + ((hi - lo) // (2 * step)) * step
        if crossed(mid):
            hi = mid
        else:
            lo = mid
    # the total sums terms near R, so it is rounded by a few units in the last
    # place of R: a smaller step leaves the bracket's one-step margin unsound
    if (not crossed(hi) or hi > step and crossed(hi - step)) and step * -b_min <= 4.0 * math.ulp(R):
        raise ValueError(f"S_min at delta={delta} lies past the float resolution of the bound: "
                         f"a step of S near S={hi} moves the total by at most {step * -b_min:.3g}, "
                         f"below its rounding")
    if not crossed(hi):
        raise RuntimeError(f"bound does not reach the target probability by S={hi}")
    if hi > step and crossed(hi - step):
        raise RuntimeError(f"bound not decreasing in S: b({hi - step})={seen[hi - step]} "
                           f"already meets the target at the bracket's lower end")
    return MinSizeResult(S_min=hi, method=method, raw_bound_at_S_min=math.exp(seen[hi]),
                         d=d, t=t, delta=delta, P=P)


# ---------------------------------------------------------------------------
# Clifford-group comparison (0.01-approximate 2-designs on n qubits)
# ---------------------------------------------------------------------------

def clifford_cardinality(n):
    """|C_n| = 2^(n^2 + 2n) prod_j (4^j - 1), exact."""
    n = _at_least(n, "n", 1)
    out = 1 << (n * n + 2 * n)
    for j in range(1, n + 1):
        out *= 4**j - 1
    return out


def clifford_random_set_size(n):
    """Printed-constant gate count: ceil(2*10^4 (log(2^(4n+1) - 3*2^(2n+1) + 2) + 4.61))."""
    n = _at_least(n, "n", 1)
    arg = (1 << (4 * n + 1)) - 3 * (1 << (2 * n + 1)) + 2
    return math.ceil(2e4 * (math.log(arg) + 4.61))


def clifford_random_set_size_exact(n):
    """Same quantity from the unrounded closed form, exact dimension sum, at the
    targets the printed constants stand for: delta = 0.01 and P = 0.99."""
    n = _at_least(n, "n", 1)
    d = 2**n
    if d >= 4:
        sum_d = d**4 - 3 * d**2 + 1
    else:
        sum_d = repcore.sum_dimensions(d, 2)
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
    """Generate the minimal-size table: each cell's :class:`MinSizeResult`,
    which holds its d, t and method, for every method but the simplified
    master-symmetric one at every (d, t) of :data:`TABLE2_COLUMNS`, ordered by
    d, then t, then method."""
    try:
        dims = tuple(TABLE2_COLUMNS if dims is None else dims)
    except TypeError:
        raise ValueError(f"dims must be an iterable of dimensions, got {dims!r}") from None
    dims = tuple(repcore._integral(d, "an entry of dims") for d in dims)
    for i, d in enumerate(dims):
        if d not in TABLE2_COLUMNS:
            raise ValueError(
                f"the table grid has no dimension {d}; "
                f"its dimensions are {', '.join(map(str, TABLE2_COLUMNS))}"
            )
        if d in dims[:i]:
            raise ValueError(f"dimension {d} is repeated in {dims}")
    for d in dims:
        for t in TABLE2_COLUMNS[d]:
            for method in Method:
                if method is Method.MASTER_SYMMETRIC_SIMPLIFIED:
                    continue  # the table's symmetric column is the full bound
                yield min_size_search(d, t, delta, P, method)
