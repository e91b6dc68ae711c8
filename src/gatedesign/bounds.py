"""Upper bounds on P(delta(nu_S, t) >= delta) for random gate-sets.

Per-irrep-block bounds (Bernstein and master, for plain and symmetric
Haar-random sets), their union-bound totals over the block label set, and
the concentration-around-the-mean tail bounds. All bound values are carried
in the log domain; reported probabilities are clipped at 1 with a flag.

:func:`per_label_bound` is the one per-block entry point. The three
methods linear in S (Bernstein-plain, Bernstein-symmetric, master-plain)
are each one exponent, :func:`_s_linear_exponent`, added to log(2 d_lam);
:func:`total_bound` adds it to the log(2 d_lam) array of the cached block
spectrum (:func:`repcore.block_spectrum`) in one log-sum-exp, with no
per-label call. The master-symmetric totals go label by label, through
:func:`per_label_bound`, over the spectrum's label rows.

A label is its checked entries tuple (:func:`repcore._label_entries`)
everywhere here: :func:`per_label_bound` reduces the one it is given, and
the one per-label cache is keyed on it. With x = 2 theta / S the symmetric
objective is (S/2) h(x), h(x) = log B(x) - delta x a convex log-MGF (Tropp,
arXiv:1501.01571, Sec. 3) whose minimizer does not depend on S: it is found
once per (label, delta) by bisection on the sign of the analytic h', cached
with h at the simplified bound's point, and reused by every probe of a size
search under either symmetric master method.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import repcore
from .kinds import GateSetKind, Method, methods_for_kind  # noqa: F401  (re-exported)
from .solver import _log1m_sq
from .specfun import log_ive_array

#: theta search cap, as a multiple of the gate count S
THETA_MAX_FACTOR = 1e4

#: width in log x (x = 2 theta / S) at which the bisection on h' stops
THETA_RTOL = 1e-10


class BoundUnavailableError(RuntimeError):
    """The bracket in F(theta) was numerically nonpositive wherever probed."""


def _check_query(kind, S, delta):
    """The checked (S, delta): S an int, even for a symmetric kind, and
    delta a float in (0, 1)."""
    delta = repcore._open_unit(delta, "delta")
    S = repcore._at_least(S, "S", 1)
    repcore._real(S, "S")  # every exponent takes S as a float
    if kind is GateSetKind.SYMMETRIC and S % 2:
        raise ValueError(f"symmetric sets have even cardinality, got {S}")
    return S, delta


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
# the S-linear bounds: Bernstein and master-plain
# ---------------------------------------------------------------------------

def _s_linear_exponent(method, S, delta, fs2):
    """The exponent a bound linear in S adds to log(2 d_lam).

    Bernstein-plain: -3 S delta^2 / (6 + 2 delta).
    Bernstein-symmetric: -3 S delta^2 / (6 (1 + delta_lam(2)) + 4 delta),
    with fs2 = delta_lam(2) one value or, elementwise, an array of them.
    Master-plain: log of (1 - delta^2)^{-S/2} exp(-delta S arctanh delta).
    """
    if method is Method.BERNSTEIN_PLAIN:
        return -3.0 * S * delta**2 / (6.0 + 2.0 * delta)
    if method is Method.BERNSTEIN_SYMMETRIC:
        return -3.0 * S * delta**2 / (6.0 * (1.0 + fs2) + 4.0 * delta)
    return -0.5 * S * _log1m_sq(delta) - delta * S * math.atanh(delta)


# ---------------------------------------------------------------------------
# master bound, symmetric sets
# ---------------------------------------------------------------------------

def _sym_block_data(lam):
    """(m_lam(0)/d_lam, signed) of one label, with m_lam(0)/d_lam read as
    1 - gamma_lam(0) and signed the read-only 2 x (d+1) array of the branch
    weights: float gamma_lam(0..d) for +, the same with odd orders negated
    for -. Not cached: its one caller, :class:`_SymExponents`, builds it
    once per (label, delta).
    """
    gam = repcore.gamma_coefficients(lam)
    signed = np.array([[float(gam[k]) * sign**k for k in range(len(lam) + 1)] for sign in (1, -1)])
    signed.flags.writeable = False
    return float(1 - gam[0]), signed


def _sym_exponent(x, delta, sign, m0d, w):
    """(h(x), h'(x)) with h(x) = log B(x) - delta x at Bessel argument x > 0.

    B+(x) = m0d e^x + gamma_0 I_0(x) + 2 sum_{k>=1} gamma_k I_k(x) is the
    bracket of F(theta) at x = 2 theta / S (sign +1); B-(x), the bracket of
    F(-theta) (sign -1), has m0d e^-x and (-1)^k gamma_k: ``w`` is the row
    of :func:`_sym_block_data`'s signed weights for ``sign``. The slope uses
    I_0' = I_1 and I_k' = (I_{k-1} + I_{k+1}) / 2, so one Bessel array up to
    order d+1 gives both. Returns NaNs when rounding makes the bracket
    nonpositive (mathematically it is positive).
    """
    d = w.shape[0] - 1
    ive = np.exp(log_ive_array(d + 1, x))  # e^-x I_k(x), k = 0..d+1
    e = m0d if sign > 0 else m0d * math.exp(-2.0 * x)
    b = e + w[0] * ive[0] + 2.0 * (w[1:] @ ive[1:d + 1])
    db = sign * e + w[0] * ive[1] + w[1:] @ (ive[:d] + ive[2:])
    if b <= 0.0:
        return math.nan, math.nan
    return x + math.log(b) - delta * x, db / b - delta


class _SymExponents:
    """The S-free exponents of one (label, delta), cached by ``_sym_exponents``.

    With x = 2 theta / S, e^{-theta delta} F(+-theta)^{S/2} = e^{(S/2) h(x)},
    so neither exponent depends on S and one entry per (label entries
    tuple, delta) serves every probe, with ``log_dim`` = log d_lam.
    ``at_x0`` is (h+(x0), h-(x0)) at x0 = 2 delta / sqrt(1 - delta^2), the
    simplified bound's point (NaN where the bracket is nonpositive there);
    it is built with the entry, and the minima on first read, so the
    simplified bound never bisects.
    """

    def __init__(self, lam, delta):
        self.lam, self.delta = lam, delta
        self.log_dim = math.log(repcore._weyl_dim(lam))
        self.m0d, self.signed = _sym_block_data(lam)
        self.x0 = 2.0 * delta / math.sqrt(1.0 - delta * delta)
        self.at_x0 = tuple(
            _sym_exponent(self.x0, delta, s, self.m0d, w)[0] for s, w in zip((1, -1), self.signed)
        )

    @cached_property
    def minima(self):
        """((h+*, x+*), (h-*, x-*)): the minima of h over x in (0, 2 THETA_MAX_FACTOR].

        h is convex (a log-MGF) and h(0+) = 0: a slope >= 0 at the floor
        x0 * 1e-13 gives the theta -> 0 limit (0, 0); otherwise the sign of
        h' is bisected in log x down to width THETA_RTOL.
        NaN slopes move the upper end, so the kept lower end is always
        finite. The value at x0 caps the bisected minimum.
        """
        delta, m0d, x0 = self.delta, self.m0d, self.x0
        out = []
        for sign, w, h0 in zip((1, -1), self.signed, self.at_x0):
            lo, hi = math.log(x0 * 1e-13), math.log(2.0 * THETA_MAX_FACTOR)
            h_lo, slope = _sym_exponent(math.exp(lo), delta, sign, m0d, w)
            if slope >= 0.0:
                out.append((0.0, 0.0))
                continue
            while hi - lo > THETA_RTOL:
                mid = 0.5 * (lo + hi)
                h, slope = _sym_exponent(math.exp(mid), delta, sign, m0d, w)
                if slope < 0.0:
                    lo, h_lo = mid, h
                else:
                    hi = mid
            best = (h_lo, math.exp(lo))
            if math.isnan(h_lo) or h0 < h_lo:
                best = (h0, x0)
            if math.isnan(best[0]):
                raise BoundUnavailableError(
                    f"bracket nonpositive over the whole theta range for lam={self.lam}"
                )
            out.append(best)
        return tuple(out)


# bounded because delta is in the key: a search at one delta needs one entry
# per label (5000 at d=2, t=5000), and a delta sweep would otherwise grow the
# cache by a label set per delta
_sym_exponents = lru_cache(maxsize=1 << 16)(_SymExponents)


def _master_symmetric(lam, method, S, delta):
    """d_lam [e^{-theta delta} F(theta) + e^{-theta' delta} F(-theta')].

    Master-symmetric takes the two infima independently, each as (S/2) min h
    over the S-free exponent of ``_sym_exponents``, at theta* = S x* / 2,
    so it never exceeds the simplified bound, the closed form at
    theta = theta' = theta0 = S delta / sqrt(1 - delta^2), which reads h at
    x0 = 2 theta0 / S from the same cache entry.
    """
    ex = _sym_exponents(lam, delta)
    if method is Method.MASTER_SYMMETRIC:
        (hp, xp), (hm, xm) = ex.minima
    else:
        hp, hm = ex.at_x0
        xp = xm = ex.x0
        if math.isnan(hp) or math.isnan(hm):
            raise BoundUnavailableError(f"bracket nonpositive at theta0 for lam={lam}")
    fp, fm = 0.5 * S * hp, 0.5 * S * hm
    log_bound = ex.log_dim + np.logaddexp(fp, fm)
    theta_star = 0.5 * S * (xp if fp >= fm else xm)
    return BoundResult(method, float(log_bound), theta_star)


# ---------------------------------------------------------------------------
# the per-block entry point and the union-bound totals
# ---------------------------------------------------------------------------

def per_label_bound(lam, method, S, delta):
    """One block bound by method (a :class:`Method` or its value) for a set
    of the method's kind with S gates at threshold delta. ``lam`` is any
    sequence of integral entries, d = len(lam); a bad argument raises
    ``ValueError``."""
    method = Method(method)
    S, delta = _check_query(method.kind, S, delta)
    lam = repcore._label_entries(lam)
    if method in (Method.MASTER_SYMMETRIC, Method.MASTER_SYMMETRIC_SIMPLIFIED):
        return _master_symmetric(lam, method, S, delta)
    dl = repcore._weyl_dim(lam)
    expo = _s_linear_exponent(method, S, delta, repcore._frobenius_schur(lam) / dl)
    return BoundResult(method, math.log(2 * dl) + expo)


def total_bound(d, t, kind, S, delta, method):
    """Union bound over all block labels of the t-th moment operator."""
    method, kind = Method(method), GateSetKind(kind)
    if method.kind is not kind:
        raise ValueError(f"method {method.value} does not apply to kind {kind.value}")
    S, delta = _check_query(kind, S, delta)
    spec = repcore.block_spectrum(d, t)
    if method in (Method.MASTER_SYMMETRIC, Method.MASTER_SYMMETRIC_SIMPLIFIED):
        logs = np.array([per_label_bound(lam, method, S, delta).log_bound for lam in spec.labels])
    else:
        logs = spec.log2dim + _s_linear_exponent(method, S, delta, spec.fs2)
    return BoundResult(method, float(np.logaddexp.reduce(logs)))


# ---------------------------------------------------------------------------
# concentration around the mean
# ---------------------------------------------------------------------------

def _check_concentration(S, alpha, t=1):
    repcore._real(repcore._at_least(S, "S", 1), "S")
    if not repcore._real(alpha, "alpha") > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    repcore._at_least(t, "t", 1)


def concentration_bound_t(d, t, S, alpha):
    """P(delta(nu_S,t) >= E delta + alpha) <= exp(-d S alpha^2 / (32 t^2))."""
    _check_concentration(S, alpha, t)
    repcore._at_least(d, "d", 2)
    return math.exp(-d * S * alpha**2 / (32.0 * t * t))


def concentration_bound_lambda(lam, S, alpha):
    """Per-block version: exponent -d S alpha^2 / (2 pi^2 ||lam||_1^2), d = len(lam)."""
    _check_concentration(S, alpha)
    lam = repcore._label_entries(lam)
    norm1 = sum(map(abs, lam))
    if norm1 == 0:
        raise ValueError(f"label {lam} has one-norm 0; the per-block bound needs a nonzero label")
    return math.exp(-len(lam) * S * alpha**2 / (2.0 * math.pi**2 * norm1**2))


def concentration_bound_beamsplitter(t, S, alpha):
    """Lifted-set version; S is the SU(2) seed-set size."""
    _check_concentration(S, alpha, t)
    return math.exp(-S * alpha**2 / (16.0 * t * t))
