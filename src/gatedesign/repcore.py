"""Exact representation theory of U(d)/SU(d) irrep blocks.

Everything here is exact integer/rational arithmetic: irrep label
enumeration, Weyl dimensions, weight multiplicities (Kostka numbers by
Gelfand-Tsetlin branching), Frobenius-Schur indicators delta_lambda(n) and
the gamma_lambda(k) coefficients entering the symmetric master bound.

The block spectrum (:func:`block_spectrum`) is the one intermediate the
union bounds and the solver read: per (d, t), cached, the label set
Lambda~_t with its exact dimensions, their sum, and float log(2 d_lambda);
the Frobenius-Schur constants delta_lambda(2) are added on first use.

Frobenius-Schur data: delta_lambda(n) = int chi_lambda(U^n) dU / d_lambda
over SU(d). Only 2 <= |n| <= d needs a signed Weyl-group sum; the other n
are closed forms that :func:`fs_indicator` alone decides:

- Reality: Haar measure is invariant under U -> U^-1, so
  delta_lambda(-n) = delta_lambda(n).
- Schur orthogonality: int chi_lambda dU is the multiplicity of the trivial
  representation, so delta_lambda(1) is 1 for a label whose entries are all
  equal (trivial on SU(d)) and 0 otherwise (Bump, *Lie Groups*, Ch. 2).
- For |n| >= d+1 only the identity passes the lattice test, so
  delta_lambda(n) = m_lambda(0)/d_lambda.

The sums at n = 2..d are cached per (label, n), so the Bernstein and master
symmetric columns share the n = 2 sum of each label, and gamma_lambda reads
d - 1 sums per label.

Weights are handled in "centered" coordinates (trace part removed), so a
U(d) label with nonzero entry sum and its SU(d) restriction share one
engine. A candidate weight contributes only when it lies in the highest
weight's coset of the root lattice; for zero-sum integer labels this
reduces to entrywise integrality.

Note on multiplicities: the weight multiplicity m_lambda(mu) of U(d) is the
Kostka number K_{lambda, mu} once lambda and mu are shifted by one common
integer so that lambda is a partition (Macdonald, *Symmetric Functions and
Hall Polynomials*, I.5-I.7; Fulton, *Young Tableaux*, 8). It is invariant
under permuting mu and is counted by stripping horizontal strips, so no
Kostant partition function and no alternating sum over the Weyl group is
needed. The Kostant and Freudenthal engines are kept in the tests
(``tests/oracles.py``) as independent oracles.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import numpy as np

#: The Frobenius-Schur sums run over the Weyl group S_d: its d! permutations
#: are walked once per d to build the table of displacement orbits. That walk
#: raises beyond this d instead of silently approximating.
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


def _weight_entries(mu):
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

    def fs2(self):
        """Read-only float64 array of delta_lambda(2) per label.

        Built on first use, so plain callers never run a Weyl-group sum.
        """
        return _spectrum_fs2(self.d, self.t)


@lru_cache(maxsize=None)
def block_spectrum(d, t):
    """The cached :class:`BlockSpectrum` of Lambda~_t on U(d)."""
    labels = tuple(enumerate_lambda_set(d, t))
    dims = tuple(weyl_dimension(lam) for lam in labels)
    log2dim = np.array([math.log(2 * dl) for dl in dims])
    log2dim.flags.writeable = False
    return BlockSpectrum(d, t, labels, dims, sum(dims), log2dim)


@lru_cache(maxsize=None)
def _spectrum_fs2(d, t):
    fs2 = np.array([float(fs_indicator(lam, 2)) for lam in block_spectrum(d, t).labels])
    fs2.flags.writeable = False
    return fs2


# ---------------------------------------------------------------------------
# weight multiplicities: Kostka numbers
# ---------------------------------------------------------------------------

def _centered(entries):
    ent = [Fraction(v) for v in entries]
    shift = Fraction(sum(ent), len(ent))
    return tuple(v - shift for v in ent)


def _interlacing(lam, size):
    """Partitions nu of ``size`` with lam_1 >= nu_1 >= lam_2 >= ... >= nu_{r-1} >= lam_r.

    These are the nu for which lam/nu is a horizontal strip. Each nu_i is
    drawn only where the parts after it can still reach the size, so every
    branch yields.
    """
    r = len(lam)
    # least and greatest sum of nu_i..nu_{r-2}
    lo = list(itertools.accumulate(reversed(lam[1:])))[::-1] + [0]
    hi = list(itertools.accumulate(reversed(lam[:-1])))[::-1] + [0]

    def rec(i, rest):
        if i == r - 1:
            yield ()
            return
        for v in range(max(lam[i + 1], rest - hi[i + 1]), min(lam[i], rest - lo[i + 1]) + 1):
            for tail in rec(i + 1, rest - v):
                yield (v,) + tail

    if lo[0] <= size <= hi[0]:
        yield from rec(0, size)


def _kostka(lam, mu):
    """K_{lam, mu}: semistandard tableaux of shape lam and content mu.

    lam is a partition and mu a composition, both of length r. Removing the
    entries r from such a tableau leaves one of shape nu with content
    mu_1..mu_{r-1}, where lam/nu is a horizontal strip of size mu_r
    (Gelfand-Tsetlin branching), so the count recurses on nu. Memoised per
    call on the shapes reached.
    """
    memo = {}

    def count(shape):
        r = len(shape)
        if r == 1:
            return int(shape[0] == mu[0])
        if shape not in memo:
            memo[shape] = sum(count(nu) for nu in _interlacing(shape, sum(shape) - mu[r - 1]))
        return memo[shape]

    return count(lam)


@lru_cache(maxsize=None)
def _mult_centered(lam_entries, mu):
    """Multiplicity of the centered weight mu in pi_lambda.

    Callers pass mu sorted nonincreasing: multiplicities are Weyl-invariant,
    so the cache is keyed on that canonical pair. Adding trace(lambda)/d -
    lambda_d to every entry makes lambda a partition and mu an integer
    composition of the same size when mu is in lambda's coset of the root
    lattice; the multiplicity is then their Kostka number.
    """
    low = lam_entries[-1]
    shift = Fraction(sum(lam_entries), len(lam_entries)) - low
    comp = [m + shift for m in mu]
    if any(v.denominator != 1 or v < 0 for v in comp):
        return 0  # off the coset, or an entry below lambda_d
    return _kostka(tuple(v - low for v in lam_entries), tuple(int(v) for v in comp))


def weight_multiplicity(lam, mu):
    """m_lambda(mu), the Kostka number of the shifted pair (lambda, sort(mu)).

    Returns 0 immediately when the one-norm or entry-sum pruning rules rule
    mu out. Runs no Weyl-group sum, so any d is allowed.
    """
    lam = _as_weight(lam)
    ent = _weight_entries(mu)
    if len(ent) != lam.d:
        raise ValueError("weight length does not match d")
    if sum(ent) != lam.total:
        return 0
    if sum(abs(v) for v in ent) > lam.norm1:
        return 0
    return _mult_centered(lam.entries, tuple(sorted(_centered(ent), reverse=True)))


# ---------------------------------------------------------------------------
# Frobenius-Schur indicators and gamma coefficients
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _signed_displacements(d):
    """Net sign of the permutations of S_d per displacement orbit.

    Maps each displacement (sigma(i) - i)_i, sorted nonincreasing, to the
    sum of sgn(sigma) over the permutations that share it; orbits whose
    signs cancel are dropped, in order of one-norm. Built on first use, once
    per d: this is the one walk over the d! permutations, so it refuses
    d > MAX_WEYL_DIM. The identity is the only permutation with displacement
    zero.
    """
    if d > MAX_WEYL_DIM:
        raise ValueError(
            f"the Frobenius-Schur sum walks the {d}! permutations of S_{d}; "
            f"d={d} exceeds the cap MAX_WEYL_DIM={MAX_WEYL_DIM}"
        )
    counts = {}
    for perm in itertools.permutations(range(d)):
        inv = sum(1 for a in range(d) for b in range(a + 1, d) if perm[a] > perm[b])
        disp = tuple(sorted((perm[i] - i for i in range(d)), reverse=True))
        counts[disp] = counts.get(disp, 0) + (-1 if inv % 2 else 1)
    by_norm = sorted(counts.items(), key=lambda item: sum(map(abs, item[0])))
    return MappingProxyType({disp: c for disp, c in by_norm if c})


@lru_cache(maxsize=None)
def _lattice_displacements(d, n):
    """(one-norm, displacement, net sign) of the orbits of
    :func:`_signed_displacements` whose entries n divides, in one-norm order.

    For a label in an integral coset only these orbits pass the lattice
    test at n; n = 1 keeps every orbit.
    """
    return tuple(
        (sum(map(abs, disp)), disp, count)
        for disp, count in _signed_displacements(d).items()
        if not any(v % n for v in disp)
    )


@lru_cache(maxsize=None)
def _fs_weyl_sum(lam, n):
    """sum over sigma in S_d of sgn(sigma) * m_lambda((rho - sigma.rho)/n), exact.

    For n >= 1; this is d_lambda * delta_lambda(n) at every such n, and the
    reference the closed forms of :func:`fs_indicator` are tested against.
    Cached per (label, n); the identity's term is m_lambda(0). One term per
    displacement orbit: the multiplicity, the one-norm budget and the
    lattice test all depend on the sorted displacement alone.
    """
    lam_c = _centered(lam.entries)
    # centered weights lie in the hull of the Weyl orbit of the centered
    # label, so ||mu||_1 <= ||lambda_c||_1; ||lambda||_1 can be smaller when
    # the entries do not sum to zero
    budget = n * sum(map(abs, lam_c))
    integral_coset = all(v.denominator == 1 for v in lam_c)
    total = 0
    for norm, disp, count in _lattice_displacements(lam.d, n if integral_coset else 1):
        if norm > budget:
            break  # the orbits come in one-norm order
        total += count * _mult_centered(lam.entries, tuple(Fraction(v, n) for v in disp))
    return total


def fs_indicator(lam, n):
    """delta_lambda(n): the Haar average of chi_lambda(U^n)/d_lambda on SU(d).

    Exact rational, even in n (reality: U -> U^-1 preserves Haar measure).
    |n| = 0 gives 1; |n| = 1 gives 1 for a label with all entries equal and
    0 otherwise (Schur orthogonality); |n| >= d+1 gives m_lambda(0)/d_lambda
    (only the identity passes the lattice test). Only 2 <= |n| <= d runs the
    signed Weyl-group sum, which needs d <= MAX_WEYL_DIM.
    """
    lam = _as_weight(lam)
    n = abs(int(n))
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(int(len(set(lam.entries)) == 1))
    dl = weyl_dimension(lam)
    if n > lam.d:
        return Fraction(zero_weight_multiplicity(lam), dl)
    return Fraction(_fs_weyl_sum(lam, n), dl)


def zero_weight_multiplicity(lam):
    """m_lambda(0) of the SU(d) restriction (0 when the label has no
    zero-sum lift; always >= 1 on Lambda~_t)."""
    lam = _as_weight(lam)
    return _mult_centered(lam.entries, _centered((0,) * lam.d))


def gamma_coefficients(lam):
    """gamma_lambda(k) for k in [-d, d].

    gamma(0) = 1 - m_lambda(0)/d_lambda and gamma(+-k) = delta_lambda(k) -
    m_lambda(0)/d_lambda for k = 1..d, read from :func:`fs_indicator`. By
    reality gamma is even in k, and by Schur orthogonality gamma(+-1) =
    -m_lambda(0)/d_lambda off the SU(d)-trivial labels, so only k = 2..d
    runs a Weyl-group sum.
    """
    lam = _as_weight(lam)
    m0d = Fraction(zero_weight_multiplicity(lam), weyl_dimension(lam))
    gam = {0: 1 - m0d}
    for k in range(1, lam.d + 1):
        gam[k] = gam[-k] = fs_indicator(lam, k) - m0d
    return gam


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
