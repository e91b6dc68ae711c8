"""Upper bounds on P(delta(nu_S, t) >= delta) for random gate-sets.

Per-irrep-block bounds (Bernstein and master, for plain and symmetric
Haar-random sets), their union-bound totals over the block label set, and
the concentration-around-the-mean tail bounds. All bound values are carried
in the log domain; reported probabilities are clipped at 1 with a flag.

The totals read the cached block spectrum of Lambda~_t
(:func:`repcore.block_spectrum`): the plain and Bernstein-symmetric totals
are one log-sum-exp over its log(2 d_lam) array plus the method's exponent;
the two master-symmetric totals go label by label, through
:func:`per_label_bound`, over the spectrum's label rows. A label is its
checked entries tuple (:func:`repcore._label_entries`) everywhere here:
:class:`BoundQuery` reduces the one it is given, and the per-label caches
are keyed on it. With
x = 2 theta / S the symmetric objective is (S/2) h(x), h(x) = log B(x) -
delta x a convex log-MGF (Tropp, arXiv:1501.01571, Sec. 3) whose minimizer
does not depend on S: it is found once per (label, delta) by bisection on
the sign of the analytic h' and reused by every probe of a size search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import repcore
from .kinds import GateSetKind, Method, methods_for_kind  # noqa: F401  (re-exported)
from .specfun import log_ive_array

#: theta search cap, as a multiple of the gate count S
THETA_MAX_FACTOR = 1e4

#: width in log x (x = 2 theta / S) at which the bisection on h' stops
THETA_RTOL = 1e-10


class BoundUnavailableError(RuntimeError):
    """The bracket in F(theta) was numerically nonpositive wherever probed."""


def _check_query(kind, S, delta):
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    repcore._integral(S, "the gate count S")
    if S < 1:
        raise ValueError(f"S must be >= 1, got {S}")
    if kind is GateSetKind.SYMMETRIC and S % 2:
        raise ValueError(f"symmetric sets have even cardinality, got {S}")


def _check_method(method, kind):
    if method.kind is not kind:
        raise ValueError(f"method {method.value} does not apply to kind {kind.value}")


@dataclass(frozen=True)
class BoundQuery:
    """One per-block bound evaluation: set kind, size, threshold, block label.

    ``lam`` may be given as a :class:`repcore.HighestWeight` or any sequence
    of entries; it is stored as the checked entries tuple, so a bad label
    raises ``ValueError`` here, and d = len(lam).
    """

    kind: GateSetKind
    S: int
    delta: float
    lam: tuple

    def __post_init__(self):
        _check_query(self.kind, self.S, self.delta)
        object.__setattr__(self, "lam", repcore._label_entries(self.lam))


@dataclass(frozen=True)
class BoundResult:
    """A bound in the log domain; ``raw``, ``probability`` and ``clipped`` derive from it."""

    method: Method
    log_bound: float
    theta_star: float | None = None

    @property
    def raw(self):
        """The bound as printed (may exceed 1)."""
        return math.exp(self.log_bound)

    @property
    def probability(self):
        return min(1.0, math.exp(self.log_bound))

    @property
    def clipped(self):
        """True when the bound exceeds 1, so ``probability`` is clipped to 1."""
        return self.log_bound > 0.0


# ---------------------------------------------------------------------------
# Bernstein bounds
# ---------------------------------------------------------------------------

def bernstein_bound(q: BoundQuery):
    """Matrix-Bernstein tail bound for one block.

    Plain: 2 d_lam exp(-3 S delta^2 / (6 + 2 delta)).
    Symmetric: 2 d_lam exp(-3 S delta^2 / (6 (1 + delta_lam(2)) + 4 delta)),
    with delta_lam(2) the Frobenius-Schur constant of the block.
    """
    dl = repcore.weyl_dimension(q.lam)
    if q.kind is GateSetKind.PLAIN:
        expo = _bernstein_plain_exponent(q.S, q.delta)
        return BoundResult(Method.BERNSTEIN_PLAIN, math.log(2 * dl) + expo)
    if q.kind is GateSetKind.SYMMETRIC:
        fs2 = float(repcore.fs_indicator(q.lam, 2))
        expo = _bernstein_symmetric_exponent(q.S, q.delta, fs2)
        return BoundResult(Method.BERNSTEIN_SYMMETRIC, math.log(2 * dl) + expo)
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
    if q.kind is not GateSetKind.PLAIN:
        raise ValueError("master_bound_plain needs a plain gate-set")
    dl = repcore.weyl_dimension(q.lam)
    log_bound = math.log(2 * dl) + _log_master_plain_factor(q.S, q.delta)
    return BoundResult(Method.MASTER_PLAIN, log_bound)


def _log_master_plain_factor(S, delta):
    return -0.5 * S * math.log1p(-delta * delta) - delta * S * math.atanh(delta)


# ---------------------------------------------------------------------------
# master bound, symmetric sets
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _sym_block_data(lam):
    """(d_lam, m_lam(0)/d_lam, float gamma_lam(0..d)) of one label.

    Cached per entries tuple, so every probe of a search and every t whose
    label set holds the label share one build. The gamma array is read-only.
    """
    dl = repcore._weyl_dim(lam)
    m0 = repcore.zero_weight_multiplicity(lam)
    gam = repcore.gamma_coefficients(lam)
    gvec = np.array([float(gam[k]) for k in range(len(lam) + 1)])
    gvec.flags.writeable = False
    return dl, m0 / dl, gvec


def _sym_exponent(x, delta, sign, m0d, gvec):
    """(h(x), h'(x)) with h(x) = log B(x) - delta x at Bessel argument x > 0.

    B+(x) = m0d e^x + gamma_0 I_0(x) + 2 sum_{k>=1} gamma_k I_k(x) is the
    bracket of F(theta) at x = 2 theta / S (sign +1); B-(x), the bracket of
    F(-theta) (sign -1), has m0d e^-x and (-1)^k gamma_k. The slope uses
    I_0' = I_1 and I_k' = (I_{k-1} + I_{k+1}) / 2, so one Bessel array up to
    order d+1 gives both. Returns NaNs when rounding makes the bracket
    nonpositive (mathematically it is positive).
    """
    d = gvec.shape[0] - 1
    ive = np.exp(log_ive_array(d + 1, x))  # e^-x I_k(x), k = 0..d+1
    w = gvec.copy()
    if sign < 0:
        w[1::2] = -w[1::2]
    e = m0d if sign > 0 else m0d * math.exp(-2.0 * x)
    b = e + w[0] * ive[0] + 2.0 * (w[1:] @ ive[1:d + 1])
    db = sign * e + w[0] * ive[1] + w[1:] @ (ive[:d] + ive[2:])
    if b <= 0.0:
        return math.nan, math.nan
    return x + math.log(b) - delta * x, db / b - delta


# bounded, unlike _sym_block_data, because delta is in the key: a search at
# one delta needs one entry per label (5000 at d=2, t=5000), and a delta
# sweep would otherwise grow the cache by a label set per delta
@lru_cache(maxsize=1 << 16)
def _sym_min_exponents(lam, delta):
    """((h+*, x+*), (h-*, x-*)): the minima of h over x in (0, 2 THETA_MAX_FACTOR].

    With x = 2 theta / S, e^{-theta delta} F(+-theta)^{S/2} = e^{(S/2) h(x)},
    so the minimizer does not depend on S and one search per (label
    entries tuple, delta) serves every probe. h is convex (a log-MGF) and
    h(0+) = 0: a slope >= 0 at the floor x0 * 1e-13 gives the theta -> 0
    limit (0, 0); otherwise the sign of h' is bisected in log x down to
    width THETA_RTOL.
    NaN slopes move the upper end, so the kept lower end is always finite.
    The value at x0 = 2 delta / sqrt(1 - delta^2), the simplified bound's
    point, caps the result.
    """
    _, m0d, gvec = _sym_block_data(lam)
    x0 = 2.0 * delta / math.sqrt(1.0 - delta * delta)
    out = []
    for sign in (1, -1):
        lo, hi = math.log(x0 * 1e-13), math.log(2.0 * THETA_MAX_FACTOR)
        h_lo, slope = _sym_exponent(math.exp(lo), delta, sign, m0d, gvec)
        if slope >= 0.0:
            out.append((0.0, 0.0))
            continue
        while hi - lo > THETA_RTOL:
            mid = 0.5 * (lo + hi)
            h, slope = _sym_exponent(math.exp(mid), delta, sign, m0d, gvec)
            if slope < 0.0:
                lo, h_lo = mid, h
            else:
                hi = mid
        best = (h_lo, math.exp(lo))
        h0, _ = _sym_exponent(x0, delta, sign, m0d, gvec)
        if math.isnan(h_lo) or h0 < h_lo:
            best = (h0, x0)
        if math.isnan(best[0]):
            raise BoundUnavailableError(
                f"bracket nonpositive over the whole theta range for lam={lam}"
            )
        out.append(best)
    return tuple(out)


def master_bound_symmetric(q: BoundQuery):
    """d_lam [inf_theta e^{-theta delta} F(theta) + inf e^{-theta delta} F(-theta)].

    The two infima are taken independently, each as (S/2) min h over the
    S-free exponent of :func:`_sym_min_exponents`, at theta* = S x* / 2; the
    result never exceeds the simplified bound.
    """
    if q.kind is not GateSetKind.SYMMETRIC:
        raise ValueError("master_bound_symmetric needs a symmetric gate-set")
    dl = _sym_block_data(q.lam)[0]
    (hp, xp), (hm, xm) = _sym_min_exponents(q.lam, q.delta)
    fp, fm = 0.5 * q.S * hp, 0.5 * q.S * hm
    log_bound = math.log(dl) + np.logaddexp(fp, fm)
    theta_star = 0.5 * q.S * (xp if fp >= fm else xm)
    return BoundResult(Method.MASTER_SYMMETRIC, float(log_bound), theta_star)


def master_bound_symmetric_simplified(q: BoundQuery):
    """The closed form at theta0 = S delta / sqrt(1 - delta^2)."""
    if q.kind is not GateSetKind.SYMMETRIC:
        raise ValueError("master_bound_symmetric_simplified needs a symmetric gate-set")
    dl, m0d, gvec = _sym_block_data(q.lam)
    x0 = 2.0 * q.delta / math.sqrt(1.0 - q.delta**2)
    hp, _ = _sym_exponent(x0, q.delta, 1, m0d, gvec)
    hm, _ = _sym_exponent(x0, q.delta, -1, m0d, gvec)
    if math.isnan(hp) or math.isnan(hm):
        raise BoundUnavailableError(
            f"bracket nonpositive at theta0 for lam={q.lam}"
        )
    log_bound = math.log(dl) + np.logaddexp(0.5 * q.S * hp, 0.5 * q.S * hm)
    return BoundResult(Method.MASTER_SYMMETRIC_SIMPLIFIED, float(log_bound), 0.5 * q.S * x0)


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


def per_label_bound(q: BoundQuery, method):
    """Dispatch one block bound by method (a :class:`Method` or its value);
    the method must fit ``q.kind``."""
    method = Method(method)
    _check_method(method, q.kind)
    return _PER_LABEL[method](q)


def total_bound(d, t, kind, S, delta, method):
    """Union bound over all block labels of the t-th moment operator."""
    if not isinstance(method, Method):
        method = Method(method)
    if not isinstance(kind, GateSetKind):
        kind = GateSetKind(kind)
    _check_method(method, kind)
    _check_query(kind, S, delta)
    spec = repcore.block_spectrum(d, t)
    if method is Method.BERNSTEIN_PLAIN:
        logs = spec.log2dim + _bernstein_plain_exponent(S, delta)
    elif method is Method.MASTER_PLAIN:
        logs = spec.log2dim + _log_master_plain_factor(S, delta)
    elif method is Method.BERNSTEIN_SYMMETRIC:
        logs = spec.log2dim + _bernstein_symmetric_exponent(S, delta, spec.fs2)
    else:
        # the master-symmetric bounds are evaluated label by label
        logs = np.array([
            per_label_bound(BoundQuery(kind=kind, S=S, delta=delta, lam=lam), method).log_bound
            for lam in spec.labels.tolist()
        ])
    return BoundResult(method, float(np.logaddexp.reduce(logs)))


# ---------------------------------------------------------------------------
# concentration around the mean
# ---------------------------------------------------------------------------

def concentration_bound_t(d, t, S, alpha):
    """P(delta(nu_S,t) >= E delta + alpha) <= exp(-d S alpha^2 / (32 t^2))."""
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if t < 1:
        raise ValueError(f"need t >= 1, got t={t}")
    return math.exp(-d * S * alpha**2 / (32.0 * t * t))


def concentration_bound_lambda(lam, S, alpha):
    """Per-block version: exponent -d S alpha^2 / (2 pi^2 ||lam||_1^2), d = len(lam)."""
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    lam = repcore._label_entries(lam)
    norm1 = sum(map(abs, lam))
    if norm1 == 0:
        raise ValueError(f"label {lam} has one-norm 0; the per-block bound needs a nonzero label")
    return math.exp(-len(lam) * S * alpha**2 / (2.0 * math.pi**2 * norm1**2))


def concentration_bound_beamsplitter(t, S, alpha):
    """Lifted-set version; S is the SU(2) seed-set size."""
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    return math.exp(-S * alpha**2 / (16.0 * t * t))
