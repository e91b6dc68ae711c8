"""Desk-scale empirical verification of the tail bounds.

Samples random gate-sets, applies the t-th moment operator matrix-free on
the d^(2t)-dimensional tensor space, projects onto the Haar (commutant)
block, and estimates delta(nu_S, t) = ||T_{nu_S,t} - T_{mu,t}|| by Lanczos
with residual stop, each estimate with its residual bound. Also checks the
Frobenius-Schur indicators by a Monte Carlo over SU(2) characters, each
evaluated from the trace of the sampled element.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bounds import GateSetKind

#: refuse to build tensor spaces larger than this
DIM_CAP = 2**16

#: Lanczos steps after which :func:`estimate_delta` gives up; it stops by
#: itself after d^(2t) steps, when the Krylov space is exhausted
MAX_LANCZOS_STEPS = 10000

#: permutation count cap for the Haar projector (t <= 6)
FACTORIAL_CAP = 720


class PowerIterationError(RuntimeError):
    """The Lanczos with residual stop in :func:`estimate_delta` ran out of steps."""


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_haar(d, rng, n, special=False):
    """n Haar-random unitaries from U(d), as an (n, d, d) array.

    Ginibre + QR with the phases of R's diagonal fixed. With ``special`` the
    global phase is divided out by the principal d-th root of the
    determinant, giving Haar on SU(d). The n draws take the stream in the
    order of n successive single draws (real then imaginary part of each),
    so unitary k is bitwise the one the k-th single draw would give.
    """
    g = rng.standard_normal((n, 2, d, d))
    z = (g[:, 0] + 1j * g[:, 1]) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    q = q * (diag / np.abs(diag))[:, None, :]
    if special:
        q = q * np.exp(-1j * np.angle(np.linalg.det(q)) / d)[:, None, None]
    return q


def beamsplitter_embeddings(b, d):
    """All d(d-1) two-mode embeddings of each 2x2 matrix in b: (n, d(d-1), d, d)."""
    i, j = np.nonzero(~np.eye(d, dtype=bool))
    pair = np.arange(len(i))
    out = np.zeros((len(b), len(i), d, d), dtype=complex)
    out[:, :, range(d), range(d)] = 1.0
    out[:, pair, i, i] = b[:, None, 0, 0]
    out[:, pair, i, j] = b[:, None, 0, 1]
    out[:, pair, j, i] = b[:, None, 1, 0]
    out[:, pair, j, j] = b[:, None, 1, 1]
    return out


@dataclass
class GateSetSample:
    """A sampled gate list with its kind and the seed that produced it."""

    unitaries: np.ndarray
    kind: GateSetKind
    seed: object

    @property
    def size(self):
        return len(self.unitaries)

    @property
    def d(self):
        return self.unitaries.shape[1]

    def validate(self):
        """Check unitarity (and exact inverse pairs) to Frobenius norm 1e-10."""
        tol = 1e-10
        eye = np.eye(self.d)
        u = self.unitaries
        if np.any(np.linalg.norm(u.conj().transpose(0, 2, 1) @ u - eye, axis=(1, 2)) > tol):
            raise ValueError("sample contains a non-unitary matrix")
        if self.kind is GateSetKind.SYMMETRIC:
            n = self.size // 2
            if np.any(np.linalg.norm(u[n : 2 * n] @ u[:n] - eye, axis=(1, 2)) > tol):
                raise ValueError("symmetric sample lacks exact inverse pairs")
        return self


def sample_gate_set(d, n, kind, seed):
    """Sample a gate-set of the given kind.

    ``n`` counts independent Haar draws: plain sets have n gates, symmetric
    sets 2n (gates plus exact inverses), lifted sets n SU(2) seeds embedded
    into all d(d-1) mode pairs. Gates are Haar on U(d); the lifted seeds
    are Haar on SU(2).
    """
    if not isinstance(kind, GateSetKind):
        kind = GateSetKind(kind)
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 Haar draws of dimension d >= 1, got n={n}, d={d}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if kind is GateSetKind.BEAMSPLITTER_LIFTED:
        if d <= 2:
            raise ValueError(f"beamsplitter lifting needs d > 2, got d={d}")
        b = sample_haar(2, rng, n, special=True)
        gates = beamsplitter_embeddings(b, d).reshape(-1, d, d)
    else:
        gates = sample_haar(d, rng, n)
        if kind is GateSetKind.SYMMETRIC:
            gates = np.concatenate([gates, gates.conj().transpose(0, 2, 1)])
    return GateSetSample(gates, kind, seed)


# ---------------------------------------------------------------------------
# moment operators, matrix-free
# ---------------------------------------------------------------------------

def _check_dim(d, t):
    dim = d ** (2 * t)
    if dim > DIM_CAP:
        raise ValueError(f"d^(2t) = {dim} exceeds the cap DIM_CAP={DIM_CAP}")
    if math.factorial(t) > FACTORIAL_CAP:
        raise ValueError(f"t! = {math.factorial(t)} exceeds the cap {FACTORIAL_CAP}")
    return dim


class MomentOperator:
    """(1/S) sum_U U^{x t} (x) conj(U)^{x t}, applied by a rotating contraction.

    A vector is a tensor with 2t factors of dimension d. One matrix product
    w.reshape(d, -1).T @ m contracts the leading factor with a gate and
    appends the result as the last factor: m = U^T for the first t factors
    and m = conj(U)^T = U^dagger for the last t, so after 2t products the
    factors are back in order. Each gate costs 2t products of d * d^(2t)
    multiply-adds; the d^(2t) x d^(2t) matrix is never materialized.
    """

    def __init__(self, gates, t):
        self.gates = np.asarray(gates)
        self.t = int(t)
        self.d = self.gates.shape[1]
        self.dim = _check_dim(self.d, self.t)

    def _apply_gates(self, v, gates):
        d, t = self.d, self.t
        acc = np.zeros(self.dim, dtype=complex)
        for ut, uh in zip(gates.transpose(0, 2, 1), gates.conj().transpose(0, 2, 1)):
            w = v
            for m in (ut,) * t + (uh,) * t:
                w = w.reshape(d, -1).T @ m
            acc += w.reshape(-1)
        return acc / len(gates)

    def apply(self, v):
        return self._apply_gates(v, self.gates)

    def apply_adjoint(self, v):
        return self._apply_gates(v, self.gates.conj().transpose(0, 2, 1))


class HaarProjector:
    """Orthogonal projector onto span{vec(P_sigma)}: the Haar moment block.

    Gram matrix G[s,t] = d^(#cycles(s^-1 t)), the number of multi-indices
    that s^-1 t fixes, pseudo-inverted with a relative eigenvalue threshold
    of 1e-10 to cover the rank-deficient t > d case.
    """

    def __init__(self, d, t):
        self.d = int(d)
        self.t = int(t)
        self.dim = _check_dim(d, t)
        perms = list(itertools.permutations(range(t)))
        dt = d**t
        flat = np.arange(dt).reshape((d,) * t)
        # vec(P_sigma) is 1 at i * d^t + j, i being j with its t factors permuted
        inverses = [sorted(range(t), key=sigma.__getitem__) for sigma in perms]
        cols = np.arange(dt)
        self._positions = np.asarray([flat.transpose(p).reshape(-1) * dt + cols for p in inverses])
        # <vec P_a, vec P_b> counts the columns j where both place their 1 in
        # the same row: the multi-indices fixed by sigma_a^-1 sigma_b
        rows = self._positions // dt
        self.gram = np.array([(rows == r).sum(axis=1) for r in rows], dtype=float)
        evals, evecs = np.linalg.eigh(self.gram)
        keep = evals > 1e-10 * evals.max()
        self.rank = int(np.count_nonzero(keep))
        self._pinv = (evecs[:, keep] / evals[keep]) @ evecs[:, keep].T

    def apply(self, v):
        coeffs = v[self._positions].sum(axis=1)
        weights = self._pinv @ coeffs
        out = np.zeros(self.dim, dtype=complex)
        np.add.at(out, self._positions, weights[:, None])
        return out


# ---------------------------------------------------------------------------
# operator-norm estimation
# ---------------------------------------------------------------------------

def estimate_delta(sample, t, return_info=False):
    """delta(nu_S, t): spectral norm of T_{nu_S,t} - T_{mu,t}.

    Lanczos with residual stop: one Lanczos run with full
    reorthogonalization, from a start vector seeded by the sample's seed, on
    A = T^dagger T - Pi. A equals (T - Pi)^dagger (T - Pi) because T and
    T^dagger fix the Haar block (T Pi = Pi T = T^dagger Pi = Pi), so
    delta^2 = ||A||. The run stops when the top Ritz pair (theta, y) has
    residual ||A y - theta y|| = beta_k |s_k| <= 1e-8 * max(theta, 1e-8), or
    when the Krylov space is exhausted, which takes at most d^(2t) steps.
    In exact arithmetic some eigenvalue of A then lies within beta_k |s_k|
    of theta (Parlett, *The Symmetric Eigenvalue Problem*, Thm 4.5.1).

    Rounding model: with unit roundoff u = eps/2, a chain of m roundings
    moves the result of an operator of norm <= 1 by at most m u, to first
    order. T v and T^dagger w each chain 2t mode contractions of length d
    and a sum over the S gates (2td + S roundings), Pi v combines t!
    coefficients, and each of the k Lanczos steps adds one rounding to the
    basis and the Ritz values (full reorthogonalization keeps the basis
    orthonormal to about k u). So rounding moves theta by at most
    m u (||T^dagger T|| + ||Pi||) <= m eps, m = 2(2td + S) + t! + k. The
    reported residual adds this floor to beta_k |s_k|; the stop rule uses
    beta_k |s_k| alone, so exact designs (A = 0) still stop at once.

    ``return_info`` adds {"iterations": k, "residual": that bound on
    |delta^2 - ||A|| |}. Raises PowerIterationError when MAX_LANCZOS_STEPS
    steps do neither.
    """
    top = MomentOperator(sample.unitaries, t)
    proj = _projector(sample.d, t)
    rng = np.random.default_rng(
        np.random.SeedSequence(_flatten_seed(sample.seed) + [0x9E3779B9])
    )
    v = rng.standard_normal(top.dim) + 1j * rng.standard_normal(top.dim)
    basis = [v / np.linalg.norm(v)]
    alphas, betas = [], []
    for k in range(1, MAX_LANCZOS_STEPS + 1):
        v = basis[-1]
        w = top.apply_adjoint(top.apply(v)) - proj.apply(v)
        alphas.append(float(np.vdot(v, w).real))
        # two Gram-Schmidt passes keep the basis orthonormal to rounding
        for _ in range(2):
            for q in basis:
                w -= np.vdot(q, w) * q
        beta = float(np.linalg.norm(w))
        ritz, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        theta = float(ritz[-1])
        residual = beta * abs(float(vecs[-1, -1]))
        if residual <= 1e-8 * max(theta, 1e-8) or k == top.dim:
            break
        betas.append(beta)
        basis.append(w / beta)
    else:
        raise PowerIterationError(
            f"Lanczos did not converge after {MAX_LANCZOS_STEPS} steps "
            f"(top Ritz value {theta:.6g}, residual {residual:.3g})"
        )
    delta = math.sqrt(max(theta, 0.0))
    if return_info:
        chain = 2 * (2 * t * top.d + len(top.gates)) + math.factorial(t) + k
        return delta, {"iterations": k, "residual": residual + chain * np.finfo(float).eps}
    return delta


@lru_cache(maxsize=None)
def _projector(d, t):
    return HaarProjector(d, t)


def _flatten_seed(seed):
    if isinstance(seed, (tuple, list)):
        out = []
        for s in seed:
            out.extend(_flatten_seed(s))
        return out
    return [int(seed)]


# ---------------------------------------------------------------------------
# tail estimation
# ---------------------------------------------------------------------------

@dataclass
class TailEstimate:
    fraction: float
    stderr: float
    deltas: list = field(default_factory=list)
    records: list = field(default_factory=list)


def empirical_tail(d, t, kind, S, delta, trials, seed, jsonl_path=None):
    """Fraction of seeded trials with delta(nu_S, t) >= delta.

    ``S`` is the gate-set cardinality for plain/symmetric kinds and the
    SU(2) seed count for lifted sets. Each trial draws from an independent
    child stream of ``seed``; per-trial records (delta, Lanczos steps and
    the residual bound on delta^2) go to ``jsonl_path`` when given. The
    inputs are checked before the first trial runs.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got d={d}")
    if t < 1:
        raise ValueError(f"need t >= 1, got t={t}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"need 0 < delta < 1, got delta={delta}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    if not isinstance(kind, GateSetKind):
        kind = GateSetKind(kind)
    if kind is GateSetKind.SYMMETRIC:
        if S % 2:
            raise ValueError(f"symmetric sets have even cardinality, got {S}")
        n = S // 2
    else:
        n = S

    def run_trial(i):
        sample = sample_gate_set(d, n, kind, seed=(seed, i))
        val, info = estimate_delta(sample, t, return_info=True)
        return {
            "trial": i,
            "seed": [seed, i],
            "delta": val,
            "iterations": info["iterations"],
            "residual": info["residual"],
        }

    records = [run_trial(i) for i in range(trials)]
    deltas = [r["delta"] for r in records]
    hits = sum(1 for v in deltas if v >= delta)
    frac = hits / trials
    stderr = math.sqrt(frac * (1.0 - frac) / trials)
    if jsonl_path is not None:
        with open(jsonl_path, "w", newline="\n") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
    return TailEstimate(fraction=frac, stderr=stderr, deltas=deltas, records=records)


# ---------------------------------------------------------------------------
# the SU(2) character Monte Carlo
# ---------------------------------------------------------------------------

def estimate_fs_indicator_mc(j2, n, trials, seed):
    """Haar average of chi_j2(U^n) / (j2+1) over SU(2), with its stderr.

    U in SU(2) has eigenvalues e^(+-i phi) with cos phi = Re tr U / 2, so U^n
    has e^(+-i n phi) and the spin-j2/2 character is chi_j2(U^n) =
    U_j2(cos n phi), the Chebyshev polynomial of the second kind. It is
    evaluated by U_(k+1) = 2x U_k - U_(k-1) from U_(-1) = 0, U_0 = 1.
    """
    if trials < 2:
        raise ValueError(f"need trials >= 2, got {trials}")
    if j2 < 0:
        raise ValueError(f"need j2 >= 0, got {j2}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, j2, n & 0xFFFF)))
    u = sample_haar(2, rng, trials, special=True)
    cos_phi = np.clip(np.trace(u, axis1=1, axis2=2).real / 2.0, -1.0, 1.0)
    x = np.cos(n * np.arccos(cos_phi))
    prev, chi = np.zeros(trials), np.ones(trials)
    for _ in range(j2):
        prev, chi = chi, 2.0 * x * chi - prev
    vals = chi / (j2 + 1)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(trials))
    return mean, stderr
