"""Exact representation theory of U(d)/SU(d) irrep blocks.

Everything here is exact integer/rational arithmetic: irrep label
enumeration, Weyl dimensions, Kostant partition function, weight
multiplicities (Kostant alternating sum and an independent Freudenthal
recursion), Frobenius-Schur indicators delta_lambda(n) and the
gamma_lambda(k) coefficients entering the symmetric master bound.

The block spectrum (:func:`block_spectrum`) is the one intermediate the
union bounds and the solver read: per (d, t), cached, the label set
Lambda~_t with its exact dimensions, their sum, and float log(2 d_lambda);
the Frobenius-Schur constants delta_lambda(2) are added on first use.

Weights are handled in "centered" coordinates (trace part removed), so a
U(d) label with nonzero entry sum and its SU(d) restriction share one
engine. A candidate weight contributes only when it lies in the highest
weight's coset of the root lattice; for zero-sum integer labels this
reduces to entrywise integrality.

Note on the partition function: the source formula for weight
multiplicities is sometimes quoted over "positive simple roots"; the
standard Kostant partition function runs over all positive roots, and only
the standard convention reproduces the Freudenthal recursion and the SU(2)
closed forms (see tests), so that is what is implemented.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

#: Weyl-group sums iterate over all d! permutations; beyond this cap the
#: operations that need them raise instead of silently approximating.
MAX_WEYL_DIM = 8


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HighestWeight:
    """A U(d) highest weight: nonincreasing integer d-tuple."""

    entries: tuple

    def __post_init__(self):
        ent = tuple(int(v) for v in self.entries)
        object.__setattr__(self, "entries", ent)
        if len(ent) < 2:
            raise ValueError("highest weight needs d >= 2 entries")
        if any(a < b for a, b in zip(ent, ent[1:])):
            raise ValueError(f"entries must be nonincreasing: {ent}")

    @property
    def d(self):
        return len(self.entries)

    @property
    def norm1(self):
        """One-norm sum of |entries|."""
        return sum(abs(v) for v in self.entries)

    @property
    def total(self):
        """Entry sum Sigma(lambda)."""
        return sum(self.entries)

    @property
    def positive_sum(self):
        """Sum of the positive entries."""
        return sum(v for v in self.entries if v > 0)

    def is_trivial(self):
        return all(v == 0 for v in self.entries)


@dataclass(frozen=True)
class DynkinLabel:
    """An SU(d) highest weight as d-1 nonnegative Dynkin labels."""

    entries: tuple

    def __post_init__(self):
        ent = tuple(int(v) for v in self.entries)
        object.__setattr__(self, "entries", ent)
        if not ent:
            raise ValueError("empty Dynkin label")
        if any(v < 0 for v in ent):
            raise ValueError(f"Dynkin labels must be nonnegative: {ent}")

    @property
    def d(self):
        return len(self.entries) + 1


@dataclass(frozen=True)
class WeightVector:
    """A weight as a d-tuple of rationals.

    Rational entries occur naturally: the Frobenius-Schur sum probes
    (rho - sigma.rho)/n, which may be fractional before the lattice test.
    """

    entries: tuple

    def __post_init__(self):
        ent = tuple(Fraction(v) for v in self.entries)
        object.__setattr__(self, "entries", ent)

    @property
    def d(self):
        return len(self.entries)

    @property
    def norm1(self):
        return sum(abs(v) for v in self.entries)

    @property
    def total(self):
        return sum(self.entries)

    def is_integral(self):
        return all(v.denominator == 1 for v in self.entries)


def _weight_entries(mu):
    if isinstance(mu, WeightVector):
        return mu.entries
    if isinstance(mu, HighestWeight):
        return tuple(Fraction(v) for v in mu.entries)
    return tuple(Fraction(v) for v in mu)


def _as_weight(lam):
    if isinstance(lam, HighestWeight):
        return lam
    return HighestWeight(tuple(lam))


# ---------------------------------------------------------------------------
# partitions and the label set Lambda~_t
# ---------------------------------------------------------------------------

def _partitions_exact(k, n, max_part=None):
    """All partitions of k into exactly n parts, each part <= max_part.

    The first (largest) part runs only over ceil(k/n) .. k-n+1, where a
    completion always exists, so every branch yields: the cost is linear in
    the output.
    """
    if n == 0:
        if k == 0:
            yield ()
        return
    hi = k - n + 1 if max_part is None else min(k - n + 1, max_part)
    for first in range(hi, max(1, -(-k // n)) - 1, -1):
        for rest in _partitions_exact(k - first, n - 1, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def count_partitions_exact(k, n):
    """p_n(k): partitions of k with exactly n parts."""
    if k == 0:
        return 1 if n == 0 else 0
    if n <= 0 or n > k:
        return 0
    # p_n(k) = p_{n-1}(k-1) + p_n(k-n)
    return count_partitions_exact(k - 1, n - 1) + count_partitions_exact(k - n, n)


def count_partitions_atmost(k, n):
    """p~_n(k): partitions of k with at most n parts."""
    return sum(count_partitions_exact(k, m) for m in range(0, min(k, n) + 1))


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


def enumerate_lambda_set(d, t):
    """All nontrivial block labels of the t-th moment operator on U(d).

    Returns Lambda~_t: nonincreasing zero-sum integer d-tuples with positive
    part at most t, the zero label excluded. Built by pairing a partition of
    k into exactly n parts (the positive entries) with a partition of k into
    at most d-n parts (the negated negative entries), k = 1..t. Sorted by
    (one-norm, entries) so emitted tables are byte-stable.
    """
    if d < 2 or t < 1:
        raise ValueError(f"need d >= 2 and t >= 1, got d={d}, t={t}")
    labels = []
    for k in range(1, t + 1):
        # the positive and negative parts determine a label, so there are no
        # repeats; the one-norm is 2k throughout this block
        block = []
        for n in range(1, d):
            for pos in _partitions_exact(k, n):
                for m in range(1, d - n + 1):
                    for neg in _partitions_exact(k, m):
                        block.append(pos + (0,) * (d - n - m) + tuple(-v for v in reversed(neg)))
        block.sort()
        labels.extend(HighestWeight(l) for l in block)
    return labels


# ---------------------------------------------------------------------------
# Weyl dimension formula
# ---------------------------------------------------------------------------

def weyl_dimension(lam):
    """dim pi_lambda = prod_{i<j} (lam_i - lam_j + j - i)/(j - i), exact."""
    ent = _as_weight(lam).entries
    d = len(ent)
    num = 1
    den = 1
    for i in range(d):
        for j in range(i + 1, d):
            num *= ent[i] - ent[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    assert r == 0
    return q


def sum_dimensions(d, t):
    """Sum of d_lambda over Lambda~_t, exact big integer."""
    return block_spectrum(d, t).sum_dim


# ---------------------------------------------------------------------------
# the block spectrum of Lambda~_t
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BlockSpectrum:
    """The block data of Lambda~_t on U(d) that the union bounds read.

    ``labels`` are in :func:`enumerate_lambda_set` order, ``dims`` the exact
    d_lambda, ``sum_dim`` their exact sum and ``log2dim`` the read-only
    float64 array of log(2 d_lambda), each taken by ``math.log`` of the exact
    integer.
    """

    d: int
    t: int
    labels: tuple
    dims: tuple
    sum_dim: int
    log2dim: np.ndarray

    def fs2(self, weyl_cap=MAX_WEYL_DIM):
        """Read-only float64 array of delta_lambda(2) per label.

        Built on first use, once per weyl_cap, so plain callers never run a
        Weyl-group sum.
        """
        return _spectrum_fs2(self.d, self.t, weyl_cap)


@lru_cache(maxsize=None)
def block_spectrum(d, t):
    """The cached :class:`BlockSpectrum` of Lambda~_t on U(d)."""
    labels = tuple(enumerate_lambda_set(d, t))
    dims = tuple(weyl_dimension(lam) for lam in labels)
    log2dim = np.array([math.log(2 * dl) for dl in dims])
    log2dim.flags.writeable = False
    return BlockSpectrum(d, t, labels, dims, sum(dims), log2dim)


@lru_cache(maxsize=None)
def _spectrum_fs2(d, t, weyl_cap):
    fs2 = np.array(
        [float(fs_indicator(lam, 2, weyl_cap=weyl_cap)) for lam in block_spectrum(d, t).labels]
    )
    fs2.flags.writeable = False
    return fs2


# ---------------------------------------------------------------------------
# Kostant partition function
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _positive_roots(d):
    roots = []
    for i in range(d):
        for j in range(i + 1, d):
            roots.append((i, j))
    return tuple(roots)


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


# ---------------------------------------------------------------------------
# weight multiplicities: Kostant alternating sum
# ---------------------------------------------------------------------------

def _centered(entries):
    ent = [Fraction(v) for v in entries]
    shift = Fraction(sum(ent), len(ent))
    return tuple(v - shift for v in ent)


def _check_weyl_cap(d, weyl_cap):
    if d > weyl_cap:
        raise ValueError(
            f"Weyl-group sum needs {d}! permutations; d={d} exceeds the cap "
            f"of {weyl_cap} (pass weyl_cap explicitly to raise it)"
        )


@lru_cache(maxsize=None)
def _mult_centered(lam_entries, mu):
    """Multiplicity of centered weight mu in pi_lambda, by the Kostant sum.

    The sum over the Weyl group is run as a depth-first search assigning the
    entries of lambda+rho to positions, pruning assignments whose partial
    sums already make the partition-function argument infeasible.
    """
    d = len(lam_entries)
    lam_c = _centered(lam_entries)
    diff = [a - b for a, b in zip(lam_c, mu)]
    if any(v.denominator != 1 for v in diff):
        return 0  # not in the coset lambda + root lattice
    if sum(mu) != 0:
        return 0
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


def weight_multiplicity(lam, mu, weyl_cap=MAX_WEYL_DIM):
    """m_lambda(mu) via the Kostant alternating sum.

    Returns 0 immediately when the one-norm or entry-sum pruning rules rule
    mu out. Cost is bounded by d! partition-function calls, hence the cap.
    """
    lam = _as_weight(lam)
    ent = _weight_entries(mu)
    if len(ent) != lam.d:
        raise ValueError("weight length does not match d")
    _check_weyl_cap(lam.d, weyl_cap)
    if sum(ent) != lam.total:
        return 0
    if sum(abs(v) for v in ent) > lam.norm1:
        return 0
    return _mult_centered(lam.entries, _centered(ent))


# ---------------------------------------------------------------------------
# weight multiplicities: Freudenthal recursion (independent oracle)
# ---------------------------------------------------------------------------

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


def freudenthal_multiplicity(lam, mu, weyl_cap=MAX_WEYL_DIM):
    """Same contract as :func:`weight_multiplicity`, independent engine."""
    lam = _as_weight(lam)
    ent = _weight_entries(mu)
    if len(ent) != lam.d:
        raise ValueError("weight length does not match d")
    _check_weyl_cap(lam.d, weyl_cap)
    if sum(ent) != lam.total:
        return 0
    mu_c = _centered(ent)
    lam_c = _centered(lam.entries)
    if any((a - b).denominator != 1 for a, b in zip(lam_c, mu_c)):
        return 0
    return _freudenthal_table(lam.entries).get(mu_c, 0)


# ---------------------------------------------------------------------------
# Frobenius-Schur indicators and gamma coefficients
# ---------------------------------------------------------------------------

def _signed_permutations(d):
    out = []
    for p in itertools.permutations(range(d)):
        inv = sum(1 for a in range(d) for b in range(a + 1, d) if p[a] > p[b])
        out.append((p, -1 if inv % 2 else 1))
    return out


_signed_permutations = lru_cache(maxsize=None)(_signed_permutations)


def _fs_weyl_sum(lam, n, skip_identity):
    """sum over sigma (optionally without id) of sgn(sigma)*m((rho-sigma.rho)/n)."""
    d = lam.d
    budget = abs(n) * _as_weight(lam).norm1  # ||mu||_1 <= ||lambda||_1 pruning
    lam_c = _centered(lam.entries)
    integral_coset = all(v.denominator == 1 for v in lam_c)
    total = 0
    for perm, sign in _signed_permutations(d):
        identity = all(perm[i] == i for i in range(d))
        if identity and skip_identity:
            continue
        disp = [perm[i] - i for i in range(d)]
        if sum(abs(v) for v in disp) > budget:
            continue
        if integral_coset and any(v % n for v in disp):
            continue
        mu = tuple(Fraction(v, n) for v in disp)
        total += sign * _mult_centered(lam.entries, _centered(mu))
    return total


def fs_indicator(lam, n, weyl_cap=MAX_WEYL_DIM, force_general=False):
    """delta_lambda(n): the Haar average of chi_lambda(U^n)/d_lambda on SU(d).

    Exact rational. n=0 gives 1; |n| >= d+1 collapses to m_lambda(0)/d_lambda
    (only the identity survives the lattice test at those n); in between the
    signed Weyl-group sum is evaluated. ``force_general`` runs the full sum
    even where the shortcut applies, for cross-checking.
    """
    lam = _as_weight(lam)
    n = int(n)
    if n == 0:
        return Fraction(1)
    d = lam.d
    dl = weyl_dimension(lam)
    if abs(n) >= d + 1 and not force_general:
        m0 = _mult_centered(lam.entries, _centered((0,) * d))
        return Fraction(m0, dl)
    _check_weyl_cap(d, weyl_cap)
    return Fraction(_fs_weyl_sum(lam, n, skip_identity=False), dl)


def zero_weight_multiplicity(lam):
    """m_lambda(0) of the SU(d) restriction (0 when the label has no
    zero-sum lift; always >= 1 on Lambda~_t)."""
    lam = _as_weight(lam)
    return _mult_centered(lam.entries, _centered((0,) * lam.d))


@lru_cache(maxsize=None)
def _gamma_cached(lam_entries, weyl_cap):
    lam = HighestWeight(lam_entries)
    d = lam.d
    _check_weyl_cap(d, weyl_cap)
    dl = weyl_dimension(lam)
    m0 = zero_weight_multiplicity(lam)
    gam = {0: 1 - Fraction(m0, dl)}
    for k in range(1, d + 1):
        gam[k] = Fraction(_fs_weyl_sum(lam, k, skip_identity=True), dl)
        gam[-k] = Fraction(_fs_weyl_sum(lam, -k, skip_identity=True), dl)
    return gam


def gamma_coefficients(lam, weyl_cap=MAX_WEYL_DIM):
    """gamma_lambda(k) for k in [-d, d].

    gamma(0) = 1 - m_lambda(0)/d_lambda; for k != 0 the identity-free signed
    Weyl sum of m((rho - sigma.rho)/k), normalized by d_lambda. Satisfies
    delta_lambda(k) = m_lambda(0)/d_lambda + gamma_lambda(k) for 0 < |k| <= d.
    """
    lam = _as_weight(lam)
    return dict(_gamma_cached(lam.entries, weyl_cap))


# ---------------------------------------------------------------------------
# U(d) <-> SU(d) label conversion
# ---------------------------------------------------------------------------

def to_dynkin(lam):
    """Consecutive differences: the SU(d) Dynkin label of the restriction."""
    ent = _as_weight(lam).entries
    return DynkinLabel(tuple(ent[i] - ent[i + 1] for i in range(len(ent) - 1)))


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
    return HighestWeight(tuple(entries))
