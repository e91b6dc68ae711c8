"""Kostant and Freudenthal engines: independent weight-multiplicity oracles.

Kostant: m_lambda(mu) = sum over sigma in S_d of sgn(sigma)
P(sigma(lambda+rho) - (mu+rho)), with P the Kostant partition function over
all positive roots e_i - e_j (i < j) of A_{d-1}. Freudenthal: the recursion
downward from the highest weight over the same positive roots. The library
counts the same multiplicities as Kostka numbers; this file keeps both
engines to check them.

Note on the partition function: the source formula for weight
multiplicities is sometimes quoted over "positive simple roots"; the
standard Kostant partition function runs over all positive roots, and only
the standard convention reproduces the Freudenthal recursion and the SU(2)
closed forms, so that is what is implemented.

Also the SU(2) irreps as explicit matrices, the oracle for the characters
that the Frobenius-Schur Monte Carlo evaluates from traces.
"""
import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from gatedesign.repcore import _as_weight, _centered, _weight_entries


@lru_cache(maxsize=None)
def _positive_roots(d):
    return tuple((i, j) for i in range(d) for j in range(i + 1, d))


@lru_cache(maxsize=None)
def _kostant_rec(rem, idx, d):
    if all(v == 0 for v in rem):
        return 1
    roots = _positive_roots(d)
    if idx == len(roots):
        return 0
    i, j = roots[idx]
    # coefficient cap: subtracting c*(e_i - e_j) lowers the prefix sums on
    # [i, j); they must stay nonnegative for any completion to exist
    ps = 0
    cap = None
    for m in range(j):
        ps += rem[m]
        if m >= i:
            cap = ps if cap is None else min(cap, ps)
    total = 0
    lst = list(rem)
    for c in range(cap + 1):
        total += _kostant_rec(tuple(lst), idx + 1, d)
        lst[i] -= 1
        lst[j] += 1
    return total


def kostant_partition(mu, d=None):
    """Number of ways to write mu as a nonnegative-integer combination of
    the positive roots e_i - e_j (i < j) of A_{d-1}.

    Non-integral entries or a nonzero entry sum give 0.
    """
    ent = _weight_entries(mu)
    if d is None:
        d = len(ent)
    if len(ent) != d:
        raise ValueError(f"weight has {len(ent)} entries, expected {d}")
    if any(v.denominator != 1 for v in ent) or sum(ent) != 0:
        return 0
    vec = tuple(int(v) for v in ent)
    ps = 0
    for v in vec:
        ps += v
        if ps < 0:
            return 0
    return _kostant_rec(vec, 0, d)


def kostant_multiplicity(lam, mu):
    """m_lambda(mu) by the Kostant alternating sum, for a label and any weight.

    The sum over the Weyl group is run as a depth-first search assigning the
    entries of lambda+rho to positions, pruning assignments whose partial
    sums already make the partition-function argument infeasible.
    """
    lam_entries = tuple(lam)
    d = len(lam_entries)
    ent = _weight_entries(mu)
    if sum(ent) != sum(lam_entries):
        return 0
    lam_c = _centered(lam_entries)
    mu = _centered(ent)
    diff = [a - b for a, b in zip(lam_c, mu)]
    if any(v.denominator != 1 for v in diff):
        return 0  # not in the coset lambda + root lattice
    if sum(abs(v) for v in mu) > sum(abs(v) for v in lam_c):
        return 0
    rho = tuple(d - 1 - i for i in range(d))
    # lambda+rho in the integer representative of the coset: shift both
    # lambda and mu by the common fractional part
    frac = lam_c[0] - int(lam_c[0])
    pool = tuple(int(v - frac) + r for v, r in zip(lam_c, rho))
    target = tuple(int(m - frac) + r for m, r in zip(mu, rho))

    total = 0
    used = [False] * d

    def dfs(pos, prefix, sign):
        nonlocal total
        if pos == d:
            total += sign * _kostant_rec(tuple(chosen[i] - target[i] for i in range(d)), 0, d)
            return
        for idx in range(d):
            if used[idx]:
                continue
            p = prefix + pool[idx] - target[pos]
            if p < 0:
                continue  # partition function of the completion is 0
            used[idx] = True
            chosen.append(pool[idx])
            # parity: placing pool[idx] costs one swap per smaller-index
            # element still unused
            flips = sum(1 for q in range(idx) if not used[q])
            dfs(pos + 1, p, sign if flips % 2 == 0 else -sign)
            chosen.pop()
            used[idx] = False

    chosen = []
    dfs(0, 0, 1)
    return total


def _dominant_below(lam_c):
    """Dominant points of the weight lattice coset inside conv(W.lambda)."""
    d = len(lam_c)
    hi = lam_c[0]
    lo = lam_c[-1]
    prefix_lam = list(itertools.accumulate(lam_c))
    out = []

    def rec(partial, s):
        i = len(partial)
        if i == d:
            if s == 0:
                out.append(tuple(partial))
            return
        top = min(hi, partial[-1]) if partial else hi
        v = lo
        while v <= top:
            # nonincreasing, majorized by lambda, completable to sum 0
            if s + v <= prefix_lam[i] and s + v + (d - i - 1) * lo <= 0 <= s + v + (d - i - 1) * v:
                rec(partial + [v], s + v)
            v += 1
        return

    rec([], Fraction(0))
    return out


def _height(lam_c, mu):
    return int(sum(itertools.accumulate(a - b for a, b in zip(lam_c, mu))))


@lru_cache(maxsize=None)
def _freudenthal_table(lam_entries):
    """All weights of pi_lambda with multiplicities, by Freudenthal's
    recursion downward from the highest weight."""
    d = len(lam_entries)
    lam_c = _centered(lam_entries)
    weights = []
    for dom in _dominant_below(lam_c):
        weights.extend(set(itertools.permutations(dom)))
    weights.sort(key=lambda mu: _height(lam_c, mu))
    rho = tuple(Fraction(d - 1 - i) for i in range(d))
    lam_rho = [a + b for a, b in zip(lam_c, rho)]
    lam_norm = sum(v * v for v in lam_rho)
    roots = _positive_roots(d)

    table = {}
    for mu in weights:
        if mu == tuple(lam_c):
            table[mu] = 1
            continue
        acc = Fraction(0)
        for (i, j) in roots:
            k = 1
            while True:
                up = list(mu)
                up[i] += k
                up[j] -= k
                m_up = table.get(tuple(up))
                if m_up is None:
                    break
                acc += m_up * (up[i] - up[j])
                k += 1
        mu_rho = [a + b for a, b in zip(mu, rho)]
        denom = lam_norm - sum(v * v for v in mu_rho)
        assert denom > 0
        val = 2 * acc / denom
        assert val.denominator == 1
        table[mu] = int(val)
    return table


def freudenthal_multiplicity(lam, mu):
    """Same contract as ``repcore.weight_multiplicity``, independent engine."""
    lam = _as_weight(lam)
    ent = _weight_entries(mu)
    if len(ent) != lam.d:
        raise ValueError("weight length does not match d")
    if sum(ent) != lam.total:
        return 0
    mu_c = _centered(ent)
    lam_c = _centered(lam.entries)
    if any((a - b).denominator != 1 for a, b in zip(lam_c, mu_c)):
        return 0
    return _freudenthal_table(lam.entries).get(mu_c, 0)


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
