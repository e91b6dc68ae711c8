"""Desk-scale empirical verification of the tail bounds.

Samples random gate-sets, applies the t-th moment operator matrix-free on
the d^(2t)-dimensional tensor space, projects onto the Haar (commutant)
block, and estimates delta(nu_S, t) = ||T_{nu_S,t} - T_{mu,t}|| by power
iteration. Also carries the SU(2) irrep constructions used to Monte-Carlo
check the Frobenius-Schur indicators.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import GateSetKind

#: refuse to build tensor spaces larger than this
DIM_CAP = 2**16

#: permutation count cap for the Haar projector (t <= 6)
FACTORIAL_CAP = 720


class PowerIterationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_haar(d, rng, special=False):
    """One Haar-random unitary from U(d) (Ginibre + QR, phases fixed).

    With ``special`` the global phase is divided out by the principal d-th
    root of the determinant, giving Haar on SU(d).
    """
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    if special:
        q = q * np.exp(-1j * np.angle(np.linalg.det(q)) / d)
    return q


def beamsplitter_embeddings(b, d):
    """All d(d-1) two-mode embeddings of a 2x2 matrix into dimension d."""
    out = []
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            g = np.eye(d, dtype=complex)
            g[i, i] = b[0, 0]
            g[i, j] = b[0, 1]
            g[j, i] = b[1, 0]
            g[j, j] = b[1, 1]
            out.append(g)
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

    def validate(self, tol=1e-10):
        eye = np.eye(self.d)
        for u in self.unitaries:
            if np.linalg.norm(u.conj().T @ u - eye) > tol:
                raise ValueError("sample contains a non-unitary matrix")
        if self.kind is GateSetKind.SYMMETRIC:
            n = self.size // 2
            for k in range(n):
                if np.linalg.norm(self.unitaries[n + k] @ self.unitaries[k] - eye) > tol:
                    raise ValueError("symmetric sample lacks exact inverse pairs")
        return self


def sample_gate_set(d, n, kind, seed, special=False):
    """Sample a gate-set of the given kind.

    ``n`` counts independent Haar draws: plain sets have n gates, symmetric
    sets 2n (gates plus exact inverses), lifted sets n SU(2) seeds embedded
    into all d(d-1) mode pairs.
    """
    if not isinstance(kind, GateSetKind):
        kind = GateSetKind(kind)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if kind is GateSetKind.PLAIN:
        gates = [sample_haar(d, rng, special) for _ in range(n)]
    elif kind is GateSetKind.SYMMETRIC:
        gates = [sample_haar(d, rng, special) for _ in range(n)]
        gates = gates + [u.conj().T for u in gates]
    elif kind is GateSetKind.BEAMSPLITTER_LIFTED:
        if d <= 2:
            raise ValueError(f"beamsplitter lifting needs d > 2, got d={d}")
        gates = []
        for _ in range(n):
            b = sample_haar(2, rng, special=True)
            gates.extend(beamsplitter_embeddings(b, d))
    else:  # pragma: no cover
        raise ValueError(kind)
    return GateSetSample(np.asarray(gates), kind, seed)


# ---------------------------------------------------------------------------
# moment operators, matrix-free
# ---------------------------------------------------------------------------

def _check_dim(d, t, dim_cap):
    dim = d ** (2 * t)
    if dim > dim_cap:
        raise ValueError(f"d^(2t) = {dim} exceeds the cap {dim_cap}")
    if math.factorial(t) > FACTORIAL_CAP:
        raise ValueError(f"t! = {math.factorial(t)} exceeds the cap {FACTORIAL_CAP}")
    return dim


class MomentOperator:
    """(1/S) sum_U U^{x t} (x) conj(U)^{x t}, applied by mode contractions.

    Each gate costs 2t sequential tensordots of cost O(d * d^(2t)); the
    d^(2t) x d^(2t) matrix is never materialized.
    """

    def __init__(self, gates, t, dim_cap=DIM_CAP):
        self.gates = np.asarray(gates)
        self.t = int(t)
        self.d = self.gates.shape[1]
        self.dim = _check_dim(self.d, self.t, dim_cap)
        self._shape = (self.d,) * (2 * self.t)

    def _apply_gates(self, v, gates):
        t = self.t
        acc = np.zeros(self._shape, dtype=complex)
        for u in gates:
            w = v.reshape(self._shape)
            uc = u.conj()
            for mode in range(2 * t):
                m = u if mode < t else uc
                w = np.moveaxis(np.tensordot(m, w, axes=([1], [mode])), 0, mode)
            acc += w
        return (acc / len(gates)).reshape(-1)

    def apply(self, v):
        return self._apply_gates(v, self.gates)

    def apply_adjoint(self, v):
        return self._apply_gates(v, [u.conj().T for u in self.gates])


class HaarProjector:
    """Orthogonal projector onto span{vec(P_sigma)}: the Haar moment block.

    Gram matrix G[s,t] = d^(#cycles(s^-1 t)), pseudo-inverted with an
    eigenvalue threshold to cover the rank-deficient t > d case.
    """

    def __init__(self, d, t, dim_cap=DIM_CAP, eig_threshold=1e-10):
        self.d = int(d)
        self.t = int(t)
        self.dim = _check_dim(d, t, dim_cap)
        perms = list(itertools.permutations(range(t)))
        dt = d**t
        flat = np.arange(dt).reshape((d,) * t)
        positions = []
        for sigma in perms:
            inv = [0] * t
            for k, s in enumerate(sigma):
                inv[s] = k
            i_of_j = flat.transpose(tuple(inv)).reshape(-1)
            positions.append(i_of_j * dt + np.arange(dt))
        self._positions = np.asarray(positions)
        gram = np.empty((len(perms), len(perms)))
        for a, sa in enumerate(perms):
            for b, sb in enumerate(perms):
                comp = tuple(sb[sa.index(k)] for k in range(t))
                gram[a, b] = float(d) ** _cycle_count(comp)
        self.gram = gram
        evals, evecs = np.linalg.eigh(gram)
        keep = evals > eig_threshold * evals.max()
        self.rank = int(np.count_nonzero(keep))
        self._pinv = (evecs[:, keep] / evals[keep]) @ evecs[:, keep].T

    def apply(self, v):
        coeffs = v[self._positions].sum(axis=1)
        weights = self._pinv @ coeffs
        out = np.zeros(self.dim, dtype=complex)
        for w, pos in zip(weights, self._positions):
            out[pos] += w
        return out


def _cycle_count(perm):
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
    return cycles


# ---------------------------------------------------------------------------
# operator-norm estimation
# ---------------------------------------------------------------------------

def estimate_delta(
    sample,
    t,
    tol=1e-8,
    restarts=3,
    max_iter=10000,
    dim_cap=DIM_CAP,
    return_info=False,
):
    """delta(nu_S, t): spectral norm of T_{nu_S,t} - T_{mu,t}.

    Power iteration on (T - Pi)^dagger (T - Pi) with randomized restarts;
    raises PowerIterationError when the Rayleigh quotient fails to settle.
    """
    top = MomentOperator(sample.unitaries, t, dim_cap=dim_cap)
    proj = _projector_cache(sample.d, t, dim_cap)

    def a_fwd(v):
        return top.apply(v) - proj.apply(v)

    def a_adj(v):
        return top.apply_adjoint(v) - proj.apply(v)

    rng = np.random.default_rng(
        np.random.SeedSequence(_flatten_seed(sample.seed) + [0x9E3779B9])
    )
    # stagnation of the Rayleigh quotient overstates accuracy near slow
    # convergence; demand a hundredth of the target before stopping
    settle = 0.01 * tol
    best = 0.0
    total_iters = 0
    for _ in range(restarts):
        v = rng.standard_normal(top.dim) + 1j * rng.standard_normal(top.dim)
        v /= np.linalg.norm(v)
        lam_old = np.inf
        converged = False
        for it in range(1, max_iter + 1):
            w = a_adj(a_fwd(v))
            lam = float(np.real(np.vdot(v, w)))
            nw = np.linalg.norm(w)
            if nw == 0.0:
                lam = 0.0
                converged = True
                total_iters += it
                break
            v = w / nw
            change = abs(lam - lam_old)
            # the tol^2 floor lets an exact design (delta = 0) settle, with
            # an error in delta of about sqrt(settle) * tol
            if change <= settle * max(abs(lam), tol * tol):
                converged = True
                total_iters += it
                break
            lam_old = lam
        if not converged:
            raise PowerIterationError(
                f"power iteration did not settle after {max_iter} iterations "
                f"(last eigenvalue estimate {lam:.6g}, change {change:.3g})"
            )
        best = max(best, lam)
    delta = math.sqrt(max(best, 0.0))
    if return_info:
        return delta, {"iterations": total_iters, "restarts": restarts}
    return delta


_PROJECTORS = {}


def _projector_cache(d, t, dim_cap):
    key = (d, t)
    if key not in _PROJECTORS:
        _PROJECTORS[key] = HaarProjector(d, t, dim_cap=dim_cap)
    return _PROJECTORS[key]


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


def empirical_tail(d, t, kind, S, delta, trials, seed, jsonl_path=None, dim_cap=DIM_CAP):
    """Fraction of seeded trials with delta(nu_S, t) >= delta.

    ``S`` is the gate-set cardinality for plain/symmetric kinds and the
    SU(2) seed count for lifted sets. Each trial draws from an independent
    child stream of ``seed``; per-trial records go to ``jsonl_path`` when
    given.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
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
        val, info = estimate_delta(sample, t, dim_cap=dim_cap, return_info=True)
        return {
            "trial": i,
            "seed": [seed, i],
            "delta": val,
            "iterations": info["iterations"],
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
# SU(2) irreps and the character Monte Carlo
# ---------------------------------------------------------------------------

def su2_irrep_matrix(j2, u):
    """The spin-j2/2 irrep of a 2x2 unitary (dimension j2+1).

    Symmetric-power construction in the orthonormal weight basis, ordered
    from highest weight down: a diagonal U = diag(p, conj(p)) maps to
    diag(p^j2, p^(j2-2), ..., p^-j2).
    """
    n = int(j2)
    if n < 0:
        raise ValueError(f"need j2 >= 0, got {j2}")
    a, b = u[0, 0], u[0, 1]
    c, e = u[1, 0], u[1, 1]
    out = np.zeros((n + 1, n + 1), dtype=complex)
    for r in range(n + 1):
        for s in range(n + 1):
            acc = 0.0 + 0.0j
            for k in range(max(0, s - r), min(n - r, s) + 1):
                acc += (
                    math.comb(n - r, k)
                    * math.comb(r, s - k)
                    * a ** (n - r - k)
                    * b**k
                    * c ** (r - s + k)
                    * e ** (s - k)
                )
            out[r, s] = acc * math.sqrt(math.comb(n, r) / math.comb(n, s))
    return out


def estimate_fs_indicator_mc(j2, n, trials, seed):
    """Haar average of tr pi_j2(U^n) / (j2+1) over SU(2), with its stderr."""
    if trials < 2:
        raise ValueError(f"need trials >= 2, got {trials}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, j2, n & 0xFFFF)))
    vals = np.empty(trials)
    for i in range(trials):
        u = sample_haar(2, rng, special=True)
        un = np.linalg.matrix_power(u, n)
        vals[i] = np.trace(su2_irrep_matrix(j2, un)).real / (j2 + 1)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(trials))
    return mean, stderr
