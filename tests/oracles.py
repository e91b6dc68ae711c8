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

Also the SU(2) character Monte Carlo, a sampled check of the library's
exact Frobenius-Schur indicators; the SU(2) irreps as explicit matrices,
the oracle for the characters that Monte Carlo evaluates from traces; the
walk over the d! permutations of S_d grouped by displacement, the oracle
for the library's residue-class tables of the Frobenius-Schur sums; and the
Weyl dimension formula over all pairs, the oracle for the library's product
over the pairs of distinct entries.

Then the closed forms the tests compare the library with: the partition
counts alpha_2k of the labels of one-norm 2k, which check
``repcore.enumerate_lambda_set``; the Dynkin label of a U(d) label and
:func:`to_u_weight`, its inverse; the coarse minimal size from
sum d_lambda <= d^(2t), which the paper's qubit formula rounds; and
two-sided bounds on the Bessel ratio I_n/I_{n-1}, which contain the ratio
of ``specfun.log_bessel_i`` values.

Last, three finite groups built by closure modulo global phase, the unitary
designs with a known delta for ``montecarlo.estimate_delta``: the
single-qubit Clifford group (24 elements, a 3-design and not a 4-design),
the icosahedral group (60, a 5-design and not a 6-design) and the qutrit
Clifford group (216, a 2-design and not a 3-design). A group's moment
operator is the projector onto the invariants of each block, so delta is
exactly 0 up to the design order and exactly 1 past it.
"""
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from gatedesign.montecarlo import sample_haar
from gatedesign.repcore import _at_least, _integral, _label_entries


def _weight_entries(mu):
    """The entries of a weight as exact rationals."""
    return tuple(Fraction(v) for v in mu)


def _centered(entries):
    """The entries with the trace part removed, so that they sum to zero."""
    ent = [Fraction(v) for v in entries]
    shift = Fraction(sum(ent), len(ent))
    return tuple(v - shift for v in ent)


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


def weyl_dimension_all_pairs(entries):
    """prod over all i < j of (lam_i - lam_j + j - i)/(j - i), as a Fraction."""
    d = len(entries)
    out = Fraction(1)
    for i in range(d):
        for j in range(i + 1, d):
            out *= Fraction(entries[i] - entries[j] + j - i, j - i)
    return out


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
    lam = _label_entries(lam)
    ent = _weight_entries(mu)
    if len(ent) != len(lam):
        raise ValueError("weight length does not match d")
    if sum(ent) != sum(lam):
        return 0
    mu_c = _centered(ent)
    lam_c = _centered(lam)
    if any((a - b).denominator != 1 for a, b in zip(lam_c, mu_c)):
        return 0
    return _freudenthal_table(lam).get(mu_c, 0)


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
    """Haar average of chi_j2(U^n) / (j2+1) over SU(2), with its stderr: a
    sampled check of ``repcore.fs_indicator`` on the labels (j2, 0), d = 2.

    U in SU(2) has eigenvalues e^(+-i phi) with cos phi = Re tr U / 2, so U^n
    has e^(+-i n phi) and the spin-j2/2 character is chi_j2(U^n) =
    U_j2(cos n phi), the Chebyshev polynomial of the second kind. It is
    evaluated by U_(k+1) = 2x U_k - U_(k-1) from U_(-1) = 0, U_0 = 1.
    """
    trials = _at_least(trials, "trials", 2)
    j2, n = _at_least(j2, "j2", 0), _integral(n, "n")
    seed = _at_least(seed, "seed", 0)
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


@lru_cache(maxsize=None)
def signed_displacements(d):
    """Net sign of the permutations of S_d per displacement orbit.

    Maps each displacement (sigma(i) - i)_i, sorted nonincreasing, to the
    sum of sgn(sigma) over the permutations that share it; orbits whose
    signs cancel are dropped, in order of one-norm. One walk over the d!
    permutations, sign by inversion count: the oracle for the library's
    residue-class tables, which walk only the permutations that move each
    residue class mod n onto another, within a one-norm budget.
    """
    counts = {}
    for perm in itertools.permutations(range(d)):
        inv = sum(1 for a in range(d) for b in range(a + 1, d) if perm[a] > perm[b])
        disp = tuple(sorted((perm[i] - i for i in range(d)), reverse=True))
        counts[disp] = counts.get(disp, 0) + (-1 if inv % 2 else 1)
    by_norm = sorted(counts.items(), key=lambda item: sum(map(abs, item[0])))
    return MappingProxyType({disp: c for disp, c in by_norm if c})


def count_partitions_exact(k, n):
    """p_n(k): partitions of k with exactly n parts.

    Removing the first column of the diagram gives p_n(k) = p~_n(k - n).
    """
    if n < 0:
        return 0
    return count_partitions_atmost(k - n, n)


def count_partitions_atmost(k, n):
    """p~_n(k): partitions of k with at most n parts.

    By conjugation these are the partitions of k into parts <= n, counted
    by a coin-change table over the part sizes: O(k) memory, no recursion.
    """
    if k < 0:
        return 0
    ways = [1] + [0] * k
    for part in range(1, min(k, n) + 1):
        for s in range(part, k + 1):
            ways[s] += ways[s - part]
    return ways[k]


def partition_count(k):
    """p(k), the unrestricted partition number."""
    return count_partitions_atmost(k, k)


def count_irreps_by_norm(d, k):
    """Number of labels in Lambda~_t with one-norm 2k.

    alpha_{2k} = sum_n p_n(k) * p~_{d-n}(k); collapses to p(k)^2 once
    d >= 2k.
    """
    if d < 2 or k < 1:
        raise ValueError(f"need d >= 2 and k >= 1, got d={d}, k={k}")
    return sum(
        count_partitions_exact(k, n) * count_partitions_atmost(k, d - n)
        for n in range(1, d)
    )


@dataclass(frozen=True)
class DynkinLabel:
    """An SU(d) highest weight as d-1 nonnegative Dynkin labels."""

    entries: tuple

    def __post_init__(self):
        ent = tuple(_integral(v, "Dynkin labels") for v in self.entries)
        object.__setattr__(self, "entries", ent)
        if not ent:
            raise ValueError("empty Dynkin label")
        if any(v < 0 for v in ent):
            raise ValueError(f"Dynkin labels must be nonnegative: {ent}")

    @property
    def d(self):
        return len(self.entries) + 1


def dynkin_label(entries):
    """Consecutive differences: the SU(d) Dynkin label of the restriction."""
    return tuple(entries[i] - entries[i + 1] for i in range(len(entries) - 1))


def to_u_weight(dynkin, m=None):
    """U(d) lift of an SU(d) label; lowest entry m.

    With ``m=None`` the canonical zero-sum lift m = -(1/d) sum_j j*dynkin_j
    is used; when that is not an integer no zero-sum lift exists (and the
    restriction has no zero weight), which is reported as a ValueError.
    """
    if not isinstance(dynkin, DynkinLabel):
        dynkin = DynkinLabel(tuple(dynkin))
    d = dynkin.d
    if m is None:
        s = sum((j + 1) * v for j, v in enumerate(dynkin.entries))
        if s % d:
            raise ValueError(
                f"no zero-sum U({d}) lift exists: sum j*label_j = {s} is not "
                f"divisible by {d}"
            )
        m = -(s // d)
    suffix = 0
    entries = [m] * d
    for i in range(d - 2, -1, -1):
        suffix += dynkin.entries[i]
        entries[i] = m + suffix
    return _label_entries(entries)


def min_size_scaling(d, t, delta, P):
    """Coarse minimal size from sum d_lambda <= d^(2t):
    2 (2t log d + log 2 - log(1-P)) / log((1+delta)^(1+delta) (1-delta)^(1-delta))."""
    rate = (1.0 + delta) * math.log1p(delta) + (1.0 - delta) * math.log1p(-delta)
    return 2.0 * (2.0 * t * math.log(d) + math.log(2.0) - math.log1p(-P)) / rate


def bessel_ratio_bounds(n, x):
    """Two-sided bounds on I_n(x)/I_{n-1}(x).

    x/(n - 1/2 + sqrt((n + 1/2)^2 + x^2)) < ratio
        < x/(n - 1 + sqrt((n + 1)^2 + x^2))
    """
    n = int(n)
    x = float(x)
    if n < 1 or x <= 0.0:
        raise ValueError(f"need n >= 1 and x > 0, got n={n}, x={x}")
    lower = x / (n - 0.5 + math.sqrt((n + 0.5) ** 2 + x * x))
    upper = x / (n - 1.0 + math.sqrt((n + 1.0) ** 2 + x * x))
    return lower, upper


def group_closure(generators):
    """The finite group that the unitaries generate, one matrix per class
    modulo global phase: closure under left multiplication by the generators."""
    d = len(generators[0])

    def key(u):
        first = u.flat[np.flatnonzero(np.abs(u) > 1e-6)[0]]
        return tuple(np.round(u.ravel() * (abs(first) / first), 8))

    group = {key(np.eye(d)): np.eye(d, dtype=complex)}
    frontier = list(group.values())
    while frontier:
        grown = []
        for g in frontier:
            for gen in generators:
                u = gen @ g
                if key(u) not in group:
                    group[key(u)] = u
                    grown.append(u)
        frontier = grown
    return np.array(list(group.values()))


def single_qubit_clifford_group():
    """The closure of {H, S}: 24 elements."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    return group_closure([h, np.diag([1, 1j])])


def _quaternion(a, b, c, d):
    """The SU(2) matrix of the unit quaternion a + b i + c j + d k."""
    return np.array([[a + b * 1j, c + d * 1j], [-c + d * 1j, a - b * 1j]])


def icosahedral_group():
    """The closure of the quaternions (1+i+j+k)/2 and (phi + i/phi + j)/2,
    the binary icosahedral group modulo -1: 60 elements."""
    phi = (1 + math.sqrt(5)) / 2
    return group_closure([_quaternion(0.5, 0.5, 0.5, 0.5), _quaternion(phi / 2, 0.5 / phi, 0.5, 0)])


def qutrit_clifford_group():
    """The closure of the Fourier matrix and diag(1, 1, omega): 216 elements."""
    omega = np.exp(2j * math.pi / 3)
    fourier = omega ** np.outer(range(3), range(3)) / math.sqrt(3)
    return group_closure([fourier, np.diag([1, 1, omega])])
