"""Upper bounds on P(delta(nu_S, t) >= delta) for random gate-sets.

Per-irrep-block bounds (Bernstein and master, for plain and symmetric
Haar-random sets), their union-bound totals over the block label set, and
the concentration-around-the-mean tail bounds. All bound values are carried
in the log domain; reported probabilities are clipped at 1 with a flag.

The totals read the cached block spectrum of Lambda~_t
(:func:`repcore.block_spectrum`): the plain and Bernstein-symmetric totals
are one log-sum-exp over its log(2 d_lam) array plus the method's exponent;
the two master-symmetric totals evaluate their theta objective label by
label.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import repcore
from ._accel import njit
from .repcore import MAX_WEYL_DIM, HighestWeight
from .specfun import log_ive_array

#: theta search cap, as a multiple of the gate count S
THETA_MAX_FACTOR = 1e4

#: relative tolerance of the golden-section refinement in theta
THETA_RTOL = 1e-10


class GateSetKind(enum.Enum):
    PLAIN = "plain"
    SYMMETRIC = "symmetric"
    BEAMSPLITTER_LIFTED = "beamsplitter"


class Method(enum.Enum):
    BERNSTEIN_PLAIN = "bernstein-plain"
    BERNSTEIN_SYMMETRIC = "bernstein-symmetric"
    MASTER_PLAIN = "master-plain"
    MASTER_SYMMETRIC = "master-symmetric"
    MASTER_SYMMETRIC_SIMPLIFIED = "master-symmetric-simplified"

    @property
    def kind(self):
        if self in (Method.BERNSTEIN_PLAIN, Method.MASTER_PLAIN):
            return GateSetKind.PLAIN
        return GateSetKind.SYMMETRIC


def methods_for_kind(kind):
    """Bound methods applicable to a gate-set kind (none for lifted sets)."""
    return tuple(m for m in Method if m.kind is kind)


class BoundUnavailableError(RuntimeError):
    """The bracket in F(theta) was numerically nonpositive wherever probed."""


@dataclass(frozen=True)
class BoundQuery:
    """One bound evaluation: block label (or t), set kind, size, threshold."""

    d: int
    kind: GateSetKind
    S: int
    delta: float
    lam: HighestWeight | None = None
    t: int | None = None

    def __post_init__(self):
        if (self.lam is None) == (self.t is None):
            raise ValueError("exactly one of lam / t must be given")
        if self.lam is not None and self.lam.d != self.d:
            raise ValueError("label length does not match d")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.S < 1:
            raise ValueError(f"S must be >= 1, got {self.S}")
        if self.kind is GateSetKind.SYMMETRIC and self.S % 2:
            raise ValueError(f"symmetric sets have even cardinality, got {self.S}")


@dataclass(frozen=True)
class BoundResult:
    method: Method
    log_bound: float
    theta_star: float | None = None
    clipped: bool = False

    @property
    def raw(self):
        """The bound as printed (may exceed 1)."""
        return math.exp(self.log_bound)

    @property
    def probability(self):
        return min(1.0, math.exp(self.log_bound))


def _finish(method, log_bound, theta_star=None):
    return BoundResult(
        method=method,
        log_bound=log_bound,
        theta_star=theta_star,
        clipped=log_bound > 0.0,
    )


# ---------------------------------------------------------------------------
# Bernstein bounds
# ---------------------------------------------------------------------------

def bernstein_bound(q: BoundQuery, weyl_cap=MAX_WEYL_DIM):
    """Matrix-Bernstein tail bound for one block.

    Plain: 2 d_lam exp(-3 S delta^2 / (6 + 2 delta)).
    Symmetric: 2 d_lam exp(-3 S delta^2 / (6 (1 + delta_lam(2)) + 4 delta)),
    with delta_lam(2) the Frobenius-Schur constant of the block.
    """
    if q.lam is None:
        raise ValueError("bernstein_bound is per-label; pass lam")
    dl = repcore.weyl_dimension(q.lam)
    if q.kind is GateSetKind.PLAIN:
        expo = _bernstein_plain_exponent(q.S, q.delta)
        return _finish(Method.BERNSTEIN_PLAIN, math.log(2 * dl) + expo)
    if q.kind is GateSetKind.SYMMETRIC:
        fs2 = float(repcore.fs_indicator(q.lam, 2, weyl_cap=weyl_cap))
        expo = _bernstein_symmetric_exponent(q.S, q.delta, fs2)
        return _finish(Method.BERNSTEIN_SYMMETRIC, math.log(2 * dl) + expo)
    raise ValueError(f"no Bernstein bound for kind {q.kind}")


def _bernstein_plain_exponent(S, delta):
    return -3.0 * S * delta**2 / (6.0 + 2.0 * delta)


def _bernstein_symmetric_exponent(S, delta, fs2):
    """Exponent for one fs2 value or, elementwise, for an array of them."""
    return -3.0 * S * delta**2 / (6.0 * (1.0 + fs2) + 4.0 * delta)


# ---------------------------------------------------------------------------
# master bound, plain sets
# ---------------------------------------------------------------------------

def master_bound_plain(q: BoundQuery):
    """2 d_lam (1 - delta^2)^{-S/2} exp(-delta S arctanh delta)."""
    if q.lam is None:
        raise ValueError("master_bound_plain is per-label; pass lam")
    if q.kind is not GateSetKind.PLAIN:
        raise ValueError("master_bound_plain needs a plain gate-set")
    dl = repcore.weyl_dimension(q.lam)
    log_bound = math.log(2 * dl) + _log_master_plain_factor(q.S, q.delta)
    return _finish(Method.MASTER_PLAIN, log_bound)


def _log_master_plain_factor(S, delta):
    return -0.5 * S * math.log1p(-delta * delta) - delta * S * math.atanh(delta)


def log_master_plain_binomial_form(S, delta):
    """The same exponent written as -(S/2) log((1+d)^(1+d) (1-d)^(1-d))."""
    return -0.5 * S * (
        (1.0 + delta) * math.log1p(delta) + (1.0 - delta) * math.log1p(-delta)
    )


# ---------------------------------------------------------------------------
# master bound, symmetric sets
# ---------------------------------------------------------------------------

@njit
def _sym_log_bracket(x, branch, m0d, gam):
    """log of the bracket in F at Bessel argument x >= 0.

    branch +1 evaluates F(theta), -1 evaluates F(-theta). Returns NaN when
    rounding makes the bracket nonpositive (mathematically it is >= 1).
    """
    d = gam.shape[0] - 1
    ive = log_ive_array(d, x)
    c = m0d if branch > 0 else m0d * math.exp(-2.0 * x)
    c += gam[0] * math.exp(ive[0])
    for k in range(1, d + 1):
        w = 2.0 * gam[k]
        if branch < 0 and k % 2 == 1:
            w = -w
        c += w * math.exp(ive[k])
    if c <= 0.0:
        return np.nan
    return x + math.log(c)


@njit
def _sym_objective(theta, S, delta, m0d, gam, branch):
    lb = _sym_log_bracket(2.0 * theta / S, branch, m0d, gam)
    return -theta * delta + 0.5 * S * lb


@njit
def _sym_branch_min(S, delta, m0d, gam, branch, theta_max, rtol):
    """Minimize -theta*delta + (S/2) log bracket over theta in (0, theta_max].

    Returns (min log value, minimizer, status): status 0 on success, 1 when
    the bracket was nonpositive everywhere probed. The objective tends to 0
    as theta -> 0+, so a minimum pinned at the lower boundary returns (0, 0).
    The search brackets the (convex) objective on a geometric ladder started
    at theta0/16 and refines by golden section.
    """
    theta0 = S * delta / math.sqrt(1.0 - delta * delta)
    step = 2.0
    lo = theta0 / 16.0
    # climb the ladder until the objective increases
    t_prev = lo
    f_prev = _sym_objective(t_prev, S, delta, m0d, gam, branch)
    seen_finite = not math.isnan(f_prev)
    t_best = t_prev
    f_best = f_prev if seen_finite else np.inf
    a = t_prev
    b = -1.0
    t = t_prev
    while t < theta_max:
        t = t * step
        f = _sym_objective(t, S, delta, m0d, gam, branch)
        if not math.isnan(f):
            seen_finite = True
            if f < f_best:
                f_best = f
                t_best = t
        if (math.isnan(f_prev) or f > f_prev) and not math.isnan(f):
            if t_best < t:
                b = t
                break
        f_prev = f
    if not seen_finite:
        return np.nan, np.nan, 1
    # descend below the start in case the minimum sits near theta -> 0
    t = lo
    f_prev = _sym_objective(t, S, delta, m0d, gam, branch)
    floor = theta0 * 1e-13
    while t > floor:
        t = t / step
        f = _sym_objective(t, S, delta, m0d, gam, branch)
        if not math.isnan(f):
            if f < f_best:
                f_best = f
                t_best = t
        if not math.isnan(f) and not math.isnan(f_prev) and f > f_prev:
            break
        f_prev = f
    if t <= floor and f_best >= 0.0:
        # objective is increasing from the boundary; the infimum is the
        # theta -> 0 limit, which is exactly 0
        return 0.0, 0.0, 0
    if b < 0.0:
        b = min(t_best * step, theta_max)
    a = max(t_best / step, floor)
    # golden section on [a, b] in log-theta
    la = math.log(a)
    lb = math.log(b)
    invphi = 0.6180339887498949
    c1 = lb - invphi * (lb - la)
    c2 = la + invphi * (lb - la)
    f1 = _sym_objective(math.exp(c1), S, delta, m0d, gam, branch)
    f2 = _sym_objective(math.exp(c2), S, delta, m0d, gam, branch)
    it = 0
    while lb - la > rtol and it < 200:
        nan1 = math.isnan(f1)
        nan2 = math.isnan(f2)
        if nan1 and nan2:
            break
        if nan2 or (not nan1 and f1 < f2):
            lb = c2
            c2 = c1
            f2 = f1
            c1 = lb - invphi * (lb - la)
            f1 = _sym_objective(math.exp(c1), S, delta, m0d, gam, branch)
        else:
            la = c1
            c1 = c2
            f1 = f2
            c2 = la + invphi * (lb - la)
            f2 = _sym_objective(math.exp(c2), S, delta, m0d, gam, branch)
        it += 1
    for cand in (c1, c2):
        fc = _sym_objective(math.exp(cand), S, delta, m0d, gam, branch)
        if not math.isnan(fc) and fc < f_best:
            f_best = fc
            t_best = math.exp(cand)
    # the theta0 evaluation guards the infimum property against any
    # bracketing mishap: inf <= value at theta0 must hold
    f0 = _sym_objective(theta0, S, delta, m0d, gam, branch)
    if not math.isnan(f0) and f0 < f_best:
        f_best = f0
        t_best = theta0
    return f_best, t_best, 0


@lru_cache(maxsize=None)
def _sym_block_data(lam, weyl_cap):
    """(d_lam, m_lam(0)/d_lam, float gamma_lam(0..d)) of one label.

    Cached per (label, weyl_cap): the data depend on the label alone, so
    every probe of a search and every t whose label set holds the label
    share one build. The gamma array is read-only.
    """
    dl = repcore.weyl_dimension(lam)
    m0 = repcore.zero_weight_multiplicity(lam)
    gam = repcore.gamma_coefficients(lam, weyl_cap=weyl_cap)
    gvec = np.array([float(gam[k]) for k in range(lam.d + 1)])
    gvec.flags.writeable = False
    return dl, m0 / dl, gvec


def master_bound_symmetric(q: BoundQuery, weyl_cap=MAX_WEYL_DIM):
    """d_lam [inf_theta e^{-theta delta} F(theta) + inf e^{-theta delta} F(-theta)].

    The two infima are taken independently; each search starts from
    theta0 = S delta / sqrt(1 - delta^2) (the simplified bound's point), so
    the result never exceeds the simplified bound.
    """
    if q.lam is None:
        raise ValueError("master_bound_symmetric is per-label; pass lam")
    if q.kind is not GateSetKind.SYMMETRIC:
        raise ValueError("master_bound_symmetric needs a symmetric gate-set")
    dl, m0d, gvec = _sym_block_data(q.lam, weyl_cap)
    theta_max = THETA_MAX_FACTOR * q.S
    fp, tp, sp = _sym_branch_min(float(q.S), q.delta, m0d, gvec, 1, theta_max, THETA_RTOL)
    fm, tm, sm = _sym_branch_min(float(q.S), q.delta, m0d, gvec, -1, theta_max, THETA_RTOL)
    if sp or sm:
        raise BoundUnavailableError(
            f"bracket nonpositive over the whole theta range for lam={q.lam.entries}"
        )
    log_bound = math.log(dl) + np.logaddexp(fp, fm)
    theta_star = tp if fp >= fm else tm
    return _finish(Method.MASTER_SYMMETRIC, float(log_bound), theta_star)


def master_bound_symmetric_simplified(q: BoundQuery, weyl_cap=MAX_WEYL_DIM):
    """The closed form at theta0 = S delta / sqrt(1 - delta^2)."""
    if q.lam is None:
        raise ValueError("master_bound_symmetric_simplified is per-label; pass lam")
    if q.kind is not GateSetKind.SYMMETRIC:
        raise ValueError("master_bound_symmetric_simplified needs a symmetric gate-set")
    dl, m0d, gvec = _sym_block_data(q.lam, weyl_cap)
    theta0 = q.S * q.delta / math.sqrt(1.0 - q.delta**2)
    fp = _sym_objective(theta0, float(q.S), q.delta, m0d, gvec, 1)
    fm = _sym_objective(theta0, float(q.S), q.delta, m0d, gvec, -1)
    if math.isnan(fp) or math.isnan(fm):
        raise BoundUnavailableError(
            f"bracket nonpositive at theta0 for lam={q.lam.entries}"
        )
    log_bound = math.log(dl) + np.logaddexp(fp, fm)
    return _finish(Method.MASTER_SYMMETRIC_SIMPLIFIED, float(log_bound), theta0)


# ---------------------------------------------------------------------------
# union-bound totals
# ---------------------------------------------------------------------------

_PER_LABEL = {
    Method.BERNSTEIN_PLAIN: bernstein_bound,
    Method.BERNSTEIN_SYMMETRIC: bernstein_bound,
    Method.MASTER_PLAIN: master_bound_plain,
    Method.MASTER_SYMMETRIC: master_bound_symmetric,
    Method.MASTER_SYMMETRIC_SIMPLIFIED: master_bound_symmetric_simplified,
}


def per_label_bound(q: BoundQuery, method, weyl_cap=MAX_WEYL_DIM):
    """Dispatch one block bound by method."""
    fn = _PER_LABEL[method]
    if fn is bernstein_bound or method.kind is GateSetKind.SYMMETRIC:
        return fn(q, weyl_cap=weyl_cap)
    return fn(q)


def total_bound(d, t, kind, S, delta, method, weyl_cap=MAX_WEYL_DIM):
    """Union bound over all block labels of the t-th moment operator."""
    if not isinstance(method, Method):
        method = Method(method)
    if not isinstance(kind, GateSetKind):
        kind = GateSetKind(kind)
    if method.kind is not kind:
        raise ValueError(f"method {method.value} does not apply to kind {kind.value}")
    BoundQuery(d=d, kind=kind, S=S, delta=delta, t=t)  # validates S and delta
    spec = repcore.block_spectrum(d, t)
    if method is Method.BERNSTEIN_PLAIN:
        logs = spec.log2dim + _bernstein_plain_exponent(S, delta)
    elif method is Method.MASTER_PLAIN:
        logs = spec.log2dim + _log_master_plain_factor(S, delta)
    elif method is Method.BERNSTEIN_SYMMETRIC:
        logs = spec.log2dim + _bernstein_symmetric_exponent(S, delta, spec.fs2(weyl_cap))
    else:
        # the master-symmetric bounds are evaluated label by label
        logs = np.array([
            per_label_bound(
                BoundQuery(d=d, kind=kind, S=S, delta=delta, lam=lam), method, weyl_cap=weyl_cap
            ).log_bound
            for lam in spec.labels
        ])
    return _finish(method, float(np.logaddexp.reduce(logs)))


def total_master_plain_factored(d, t, S, delta):
    """Theorem-1 closed form: the per-label master-plain total collapses to
    2 e^{-delta S arctanh delta} (1-delta^2)^{-S/2} * sum d_lam."""
    sum_d = repcore.sum_dimensions(d, t)
    log_bound = math.log(2) + math.log(sum_d) + _log_master_plain_factor(S, delta)
    return _finish(Method.MASTER_PLAIN, log_bound)


# ---------------------------------------------------------------------------
# concentration around the mean
# ---------------------------------------------------------------------------

def concentration_bound_t(d, t, S, alpha):
    """P(delta(nu_S,t) >= E delta + alpha) <= exp(-d S alpha^2 / (32 t^2))."""
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    return math.exp(-d * S * alpha**2 / (32.0 * t * t))


def concentration_bound_lambda(d, lam, S, alpha):
    """Per-block version: exponent -d S alpha^2 / (2 pi^2 ||lam||_1^2)."""
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    norm1 = HighestWeight(tuple(lam)).norm1 if not isinstance(lam, HighestWeight) else lam.norm1
    return math.exp(-d * S * alpha**2 / (2.0 * math.pi**2 * norm1**2))


def concentration_bound_beamsplitter(t, S, alpha):
    """Lifted-set version; S is the SU(2) seed-set size."""
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    return math.exp(-S * alpha**2 / (16.0 * t * t))


def equivalent_plain_size(d, S):
    """Plain SU(d) set size with the same concentration rate as a lifted
    SU(2) seed set of size S: 2S/d."""
    if d <= 2:
        raise ValueError(f"beamsplitter lifting needs d > 2, got d={d}")
    return 2.0 * S / d
