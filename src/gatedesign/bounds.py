"""Upper bounds on P(delta(nu_S, t) >= delta) for random gate-sets.

Per-irrep-block bounds (Bernstein and master, for plain and symmetric
Haar-random sets), their union-bound totals over the block label set, and
the concentration-around-the-mean tail bounds. All bound values are carried
in the log domain; reported probabilities are clipped at 1 with a flag.

:func:`per_label_bound` is the one per-block entry point. The three
methods linear in S (Bernstein-plain, Bernstein-symmetric, master-plain)
are each one exponent, :func:`kinds._s_linear_exponent` (shared with the
closed-form size of :mod:`solver`), added to log(2 d_lam);
:func:`total_bound` adds it to the log(2 d_lam) array of the cached block
spectrum (:func:`repcore.block_spectrum`) in one log-sum-exp, with no
per-label call. The master-symmetric totals fill the table's missing labels
in one batch, then go label by label, through :func:`per_label_bound`.

A label is its checked entries tuple (:func:`repcore._label_entries`)
everywhere here: :func:`per_label_bound` reduces the one it is given, and
the one per-label table is keyed on it. With x = 2 theta / S the symmetric
objective is (S/2) h(x), h(x) = log B(x) - delta x a convex log-MGF (Tropp,
arXiv:1501.01571, Sec. 3) whose minimizer does not depend on S: one batch
bisects on the sign of the analytic h' for all its labels in lockstep, and
each label's entry serves every probe of a size search at its delta. Every
read goes through :func:`_sym_entries`, which fills a request's missing labels
in one batch into the memo of its delta (:func:`_sym_table`) and raises for a
nonpositive bracket; a row has the same bits in any batch, alone or in a total.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import repcore
from .kinds import GateSetKind, Method, methods_for_kind  # noqa: F401  (re-exported)
from .kinds import _draws, _s_linear_exponent
from .specfun import log_ive_array

#: theta search cap, as a multiple of the gate count S
THETA_MAX_FACTOR = 1e4

#: width in log x (x = 2 theta / S) at which the bisection on h' stops
THETA_RTOL = 1e-10


class BoundUnavailableError(RuntimeError):
    """The bracket in F(theta) was numerically nonpositive wherever probed."""


def _nonzero_label(lam):
    """The checked entries of a nonzero label: the zero label's block, the
    trivial one, has norm 1 for every set, so no per-block bound holds for it."""
    lam = repcore._label_entries(lam)
    if not any(lam):
        raise ValueError(f"label {lam} has one-norm 0; the per-block bound needs a nonzero label")
    return lam


def _check_query(kind, S, delta):
    """The checked (S, delta): S an int, even for a symmetric kind, and
    delta a float in (0, 1)."""
    delta = repcore._open_unit(delta, "delta")
    S = repcore._at_least(S, "S", 1)
    repcore._real(S, "S")  # every exponent takes S as a float
    _draws(kind, S)
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
# master bound, symmetric sets
# ---------------------------------------------------------------------------

def _branch_exponents(x, delta, m0d, signed):
    """(h(x), h'(x)) with h(x) = log B(x) - delta x on an (n, 2) array of
    x > 0, one row per label and one column per sign, from one Bessel call.

    B+(x) = m0d e^x + gamma_0 I_0(x) + 2 sum_{k>=1} gamma_k I_k(x) is the
    bracket of F(theta) at x = 2 theta / S; B-(x), that of F(-theta), has
    m0d e^-x and (-1)^k gamma_k. ``m0d`` holds the n m_lam(0)/d_lam and
    ``signed`` the (n, 2, d+1) gamma rows; h' uses I_k' = (I_{k-1} + I_{k+1})/2.
    All elementwise, so no row depends on another; NaN where rounding makes
    the bracket nonpositive (mathematically it is positive).

    Rounding: b = e^-x B(x) sums d + 2 terms, each a weight of size at most 1
    times a scaled kernel e^-x I_k(x) <= 1, and each takes 4 roundings (the
    weight's, the exp of the kernel's log, a product and a sum); the log and
    the two sums of h take 3 more. Where b is near 1, as it is at the
    minimizer for a small delta, h thus carries up to 4 (d + 2) + 3 <
    4 (d + 3) units of 2^-52 of absolute error: the rounding floor of h.
    """
    d = signed.shape[-1] - 1
    ive = np.exp(log_ive_array(d + 1, x.ravel())).reshape(x.shape + (d + 2,))
    e = m0d[:, None] * np.exp([0.0, -2.0] * x)
    b = e + signed[..., 0] * ive[..., 0]
    db = e * [1.0, -1.0] + signed[..., 0] * ive[..., 1]
    for k in range(1, d + 1):
        b += 2.0 * signed[..., k] * ive[..., k]
        db += signed[..., k] * (ive[..., k - 1] + ive[..., k + 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = b > 0.0
        return np.where(ok, x + np.log(b) - delta * x, np.nan), np.where(ok, db / b - delta, np.nan)


@functools.lru_cache(maxsize=1)
def _sym_table(delta):
    """The entries of one delta, (label entries tuple, full) -> (log d_lam, (h+, x+),
    (h-, x-)); another delta drops them, so a delta sweep holds one label set."""
    return {}


def _sym_batch(labels, delta, full):
    """The entries of ``labels`` at delta from one batch, with the bracket
    weights of :func:`repcore._gamma_row`, exact ints divided by d_lam in int
    true division, which rounds correctly: each weight has the bits of
    float(Fraction). With x = 2 theta / S,
    e^{-theta delta} F(+-theta)^{S/2} = e^{(S/2) h(x)}, so an entry serves
    every S. It holds (h, x) per sign: h at x0 = 2 delta / sqrt(1 - delta^2),
    the simplified bound's point, or, when ``full``, the minimum over x in
    (0, 2 THETA_MAX_FACTOR]. Both read the Bessel kernel at x0, up to 1.34e8
    at delta = 1 - 2^-53, the largest delta below 1, where its recurrence
    runs ~1e5 steps. h is convex (a log-MGF) and h(0+) = 0: a slope
    >= 0 at the floor x0 * 1e-13 (never below the least subnormal, whose log
    is finite) gives the theta -> 0 limit (0, 0);
    otherwise the sign of h' is bisected in log x, every row from one first
    bracket and halved with the others, until the brackets are THETA_RTOL
    wide. NaN slopes move the upper end, so the kept lower end is finite,
    and h(x0) caps the bisected minimum. One rule then serves both kinds of
    entry: an h that rounds above the theta -> 0 limit is that limit, (0, 0),
    since theta -> 0 bounds the block by 2 d_lam for any S. So a simplified
    entry is h(x0) unless that lies above 0.
    """
    rows = list(map(repcore._gamma_row, labels))
    gam = np.array([[g / dl for g in row] for dl, _, row in rows])
    signed = gam[:, None, :] * np.array([[1.0], [-1.0]]) ** np.arange(gam.shape[1])
    m0d = np.array([m0 / dl for dl, m0, _ in rows])
    x0 = 2.0 * delta / math.sqrt(1.0 - delta * delta)
    h, _ = _branch_exponents(np.full((len(labels), 2), x0), delta, m0d, signed)
    x, flat = np.full(h.shape, x0), np.zeros(h.shape, dtype=bool)
    if full:
        lo = np.full(h.shape, math.log(max(x0 * 1e-13, math.ulp(0.0))))
        hi = np.full(h.shape, math.log(2.0 * THETA_MAX_FACTOR))
        h_lo, slope = _branch_exponents(np.exp(lo), delta, m0d, signed)
        flat = slope >= 0.0
        while (hi - lo > THETA_RTOL).any():
            mid = 0.5 * (lo + hi)
            h_mid, slope = _branch_exponents(np.exp(mid), delta, m0d, signed)
            down = slope < 0.0
            lo, h_lo = np.where(down, mid, lo), np.where(down, h_mid, h_lo)
            hi = np.where(down, hi, mid)
        cap = np.isnan(h_lo) | (h < h_lo)
        h, x = np.where(cap, h, h_lo), np.where(cap, x, np.exp(lo))
    flat |= h > 0.0
    h, x = np.where(flat, 0.0, h), np.where(flat, 0.0, x)
    return [(math.log(dl), (hp, xp), (hm, xm))
            for (dl, _, _), (hp, hm), (xp, xm) in zip(rows, h.tolist(), x.tolist())]


def _sym_entries(labels, delta, full):
    """The entries of ``labels`` at delta, the missing ones filled in one
    batch into the table of that delta; the first label whose entry is NaN,
    its bracket nonpositive, raises :class:`BoundUnavailableError`."""
    table = _sym_table(delta)
    todo = [lam for lam in labels if (lam, full) not in table]
    if todo:
        table.update(zip([(lam, full) for lam in todo], _sym_batch(todo, delta, full)))
    entries = [table[lam, full] for lam in labels]
    for lam, (_, (hp, _), (hm, _)) in zip(labels, entries):
        if math.isnan(hp) or math.isnan(hm):
            where = "over the whole theta range" if full else "at theta0"
            raise BoundUnavailableError(f"bracket nonpositive {where} for lam={lam}")
    return entries


def _master_symmetric(lam, method, S, delta):
    """d_lam [e^{-theta delta} F(theta) + e^{-theta' delta} F(-theta')].

    Master-symmetric takes the two infima independently, each (S/2) min h at
    theta* = S x* / 2 from the label's entry, so it never exceeds the
    simplified bound, the closed form at theta = theta' = theta0 =
    S delta / sqrt(1 - delta^2), whose entry holds h at x0 = 2 theta0 / S.
    """
    full = method is Method.MASTER_SYMMETRIC
    log_dim, (hp, xp), (hm, xm) = _sym_entries((lam,), delta, full)[0]
    fp, fm = 0.5 * S * hp, 0.5 * S * hm
    theta_star = 0.5 * S * (xp if fp >= fm else xm)
    return BoundResult(method, float(log_dim + np.logaddexp(fp, fm)), theta_star)


# ---------------------------------------------------------------------------
# the per-block entry point and the union-bound totals
# ---------------------------------------------------------------------------

def per_label_bound(lam, method, S, delta):
    """One block bound by method (a :class:`Method` or its value) for a set
    of the method's kind with S gates at threshold delta. ``lam`` is any
    sequence of integral entries, d = len(lam); a bad argument raises
    ``ValueError``, and so does a label that is no block: the zero label or
    one whose entries do not sum to 0."""
    method = Method(method)
    S, delta = _check_query(method.kind, S, delta)
    lam = _nonzero_label(lam)
    if sum(lam):
        raise ValueError(f"label {lam} has entry sum {sum(lam)}; a block of the moment "
                         f"operator has entry sum 0")
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
        _sym_entries(spec.labels, delta, method is Method.MASTER_SYMMETRIC)
        logs = np.array([per_label_bound(lam, method, S, delta).log_bound for lam in spec.labels])
    else:
        logs = spec.log2dim + _s_linear_exponent(method, S, delta, spec.fs2)
    return BoundResult(method, float(np.logaddexp.reduce(logs)))


def _rate_range(spec, delta, method):
    """The steepest and the flattest rate b of the terms a + S b of a total
    over ``spec``: the S-linear exponent at S = 1, or h+-/2 per label and sign."""
    if method in (Method.MASTER_SYMMETRIC, Method.MASTER_SYMMETRIC_SIMPLIFIED):
        entries = _sym_entries(spec.labels, delta, method is Method.MASTER_SYMMETRIC)
        b = 0.5 * np.array([(hp, hm) for _, (hp, _), (hm, _) in entries])
    else:
        b = _s_linear_exponent(method, 1.0, delta, spec.fs2)
    return float(np.min(b)), float(np.max(b))


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
    lam = _nonzero_label(lam)
    norm1 = sum(map(abs, lam))
    return math.exp(-len(lam) * S * alpha**2 / (2.0 * math.pi**2 * norm1**2))


def concentration_bound_beamsplitter(t, S, alpha):
    """Lifted-set version; S is the SU(2) seed-set size."""
    _check_concentration(S, alpha, t)
    return math.exp(-S * alpha**2 / (16.0 * t * t))
