"""Dense reference for delta(nu_S, t), independent of the package's MC path.

The t-th moment operator is built as an explicit d^(2t) x d^(2t) matrix with
np.kron, the Haar block as the orthogonal projector onto span{vec(P_sigma)}
obtained by Gram-Schmidt QR (with a rank test, since the P_sigma are linearly
dependent when t > d), and delta as the spectral norm of the difference.
Neither MomentOperator nor HaarProjector is used.
"""
import itertools
from functools import lru_cache

import numpy as np


def moment_matrix(unitaries, t):
    """(1/S) sum_U U^{(x)t} (x) conj(U)^{(x)t} as a dense matrix."""
    total = 0
    for u in unitaries:
        m = np.ones((1, 1), dtype=complex)
        for f in [u] * t + [u.conj()] * t:
            m = np.kron(m, f)
        total = total + m
    return total / len(unitaries)


@lru_cache(maxsize=None)
def haar_projector(d, t):
    """Projector onto the span of vec(P_sigma), sigma in S_t."""
    dt = d**t
    basis = np.eye(dt).reshape((d,) * t + (dt,))
    cols = []
    for sigma in itertools.permutations(range(t)):
        p = basis.transpose(sigma + (t,)).reshape(dt, dt)
        cols.append(p.reshape(-1))
    q = np.zeros((dt * dt, 0))
    for v in cols:
        r = v - q @ (q.T @ v)
        r = r - q @ (q.T @ r)
        norm = np.linalg.norm(r)
        if norm > 1e-9 * np.linalg.norm(v):
            q = np.column_stack([q, r / norm])
    return q @ q.T


def delta_dense(unitaries, t):
    """||T_{nu_S,t} - T_{mu,t}||_2 for the gate list ``unitaries``."""
    d = unitaries[0].shape[0]
    return float(np.linalg.norm(moment_matrix(unitaries, t) - haar_projector(d, t), 2))


def single_qubit_cliffords():
    """The 24 single-qubit Clifford unitaries, one per global-phase class."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    s = np.diag([1, 1j])

    def key(u):
        flat = u.reshape(-1)
        pivot = flat[np.argmax(np.abs(flat) > 1e-9)]
        return tuple(np.round(flat * abs(pivot) / pivot, 9).tolist())

    group = {key(np.eye(2)): np.eye(2, dtype=complex)}
    frontier = list(group.values())
    while frontier:
        nxt = []
        for u in frontier:
            for g in (h, s):
                w = g @ u
                k = key(w)
                if k not in group:
                    group[k] = w
                    nxt.append(w)
        frontier = nxt
    return list(group.values())
