"""Exact representation theory of U(d)/SU(d) irrep blocks.

Everything here is exact integer/rational arithmetic: irrep label
enumeration, Weyl dimensions, weight multiplicities (Kostka numbers by
Gelfand-Tsetlin branching), Frobenius-Schur indicators delta_lambda(n) and
the gamma_lambda(k) coefficients entering the symmetric master bound.

Labels: a label is a checked int tuple of d >= 2 nonincreasing entries.
The public per-label functions take any sequence of integral entries and
reduce it once, by :func:`_label_entries`, to that tuple; every private
helper takes the tuple, and caches keyed on a label are keyed on it.

The block spectrum (:func:`block_spectrum`) is the one intermediate the
union bounds and the solver read: per (d, t), cached, the label set
Lambda~_t as a tuple of label tuples, with its exact dimensions, their
sum, float log(2 d_lambda) and the float Frobenius-Schur constants
delta_lambda(2). It is built from the rows of :func:`_label_rows` by
:func:`_weyl_dim` and :func:`_frobenius_schur`, the same formulas the
per-label functions call. Its two float arrays are the only numpy in this
module, and numpy is imported where they are built, so the exact data
loads without it.

Frobenius-Schur data: delta_lambda(n) = int chi_lambda(U^n) dU / d_lambda
over SU(d). Only 3 <= |n| <= d needs a signed Weyl-group sum; the other n
are closed forms that :func:`fs_indicator` alone decides:

- Reality: Haar measure is invariant under U -> U^-1, so
  delta_lambda(-n) = delta_lambda(n).
- Schur orthogonality: int chi_lambda dU is the multiplicity of the trivial
  representation, so delta_lambda(1) is 1 for a label whose entries are all
  equal (trivial on SU(d)) and 0 otherwise (Bump, *Lie Groups*, Ch. 2).
- Frobenius-Schur indicator: d_lambda delta_lambda(2) is 1, 0 or -1 as
  pi_lambda is real, not self-dual or quaternionic. It is 0 unless the
  Dynkin label a reads the same reversed (self-dual), and otherwise the
  sign (-1)^(sum_j j (d - j) a_j) by which the central element
  exp(2 pi i rho^vee) acts (Bourbaki, *Lie Groups*, Ch. VIII, 7.5).
- For |n| >= d+1 only the identity passes the lattice test, so
  delta_lambda(n) = m_lambda(0)/d_lambda.

At 3 <= n <= d a permutation passes the lattice test only if it keeps
residue classes mod n, shifted by r = -n Sigma(lambda)/d, so each sum runs
over prod |class|! permutations (72 at d = 8, n = 3) in place of d!. The sums
are not cached: gamma_lambda reads d - 2 per label, and the bounds cache it.

Weights are integer U(d) weights whose entries sum to Sigma(lambda), the
label's entry sum, so a label with nonzero entry sum and its SU(d)
restriction share one engine: the SU(d) weight nu is the U(d) weight
nu + Sigma(lambda)/d, of multiplicity 0 unless that is an integer vector.
So m_lambda(0) counts (Sigma/d, ..., Sigma/d) when d divides Sigma(lambda),
and is 0 otherwise.

Note on multiplicities: the weight multiplicity m_lambda(mu) of U(d) is the
Kostka number K_{lambda, mu} once lambda and mu are shifted by one common
integer so that lambda is a partition (Macdonald, *Symmetric Functions and
Hall Polynomials*, I.5-I.7; Fulton, *Young Tableaux*, 8). It is invariant
under permuting mu and is counted by stripping horizontal strips, so no
Kostant partition function and no alternating sum over the Weyl group is
needed. The Kostant and Freudenthal engines are kept in the tests
(``tests/oracles.py``) as independent oracles, with the partition counts
that check :func:`enumerate_lambda_set` and the SU(d) -> U(d) lift of a
Dynkin label.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

#: The Frobenius-Schur sums at 3 <= n <= d run over the prod |class|!
#: permutations that keep residue classes mod n, most at n = 3, where the
#: product grows like ((d/3)!)^3 (10 368 000 at d = 16); beyond this d they
#: raise instead of silently approximating. So the cap binds only
#: gamma_lambda(k), k >= 3: the master-symmetric bounds.
MAX_WEYL_DIM = 8


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def _integral(v, what):
    """v as an int; a value that is not integral (inf and nan included)
    raises instead of truncating."""
    try:
        i = int(v)
    except (OverflowError, TypeError, ValueError):
        i = None
    if i is None or i != v:
        raise ValueError(f"{what} must be integral, got {v!r}")
    return i


def _at_least(v, what, least):
    """v as an int (through :func:`_integral`), which must be >= least."""
    i = _integral(v, what)
    if i < least:
        raise ValueError(f"need {what} >= {least}, got {what}={i}")
    return i


def _real(v, what):
    """v as a float; a value that is not a real number (None, a str) raises."""
    # int and float are tested before the ABC, whose check is ~7x slower
    if not isinstance(v, (int, float, numbers.Real)):
        raise ValueError(f"{what} must be a real number, got {v!r}")
    return float(v)


def _open_unit(v, what):
    """v as a float (through :func:`_real`), which must lie in (0, 1)."""
    x = _real(v, what)
    if not 0.0 < x < 1.0:
        raise ValueError(f"{what} must be in (0, 1), got {v!r}")
    return x


def _label_entries(lam):
    """The entries of a label as a checked int tuple.

    ``lam`` is any sequence of integral values; the tuple has d >= 2
    nonincreasing entries. Every function below the public edge takes
    labels in this form.
    """
    ent = tuple(_integral(v, "label entries") for v in lam)
    if len(ent) < 2:
        raise ValueError(f"a label needs d >= 2 entries, got {ent}")
    if any(a < b for a, b in zip(ent, ent[1:])):
        raise ValueError(f"label entries must be nonincreasing: {ent}")
    return ent


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


def _label_rows(d, t):
    """Lambda~_t as plain int tuples, in :func:`enumerate_lambda_set` order.

    Each label pairs a partition of k into exactly n parts (the positive
    entries) with a partition of k into at most d-n parts (the negated
    negative entries), k = 1..t; the two parts determine the label, so there
    are no repeats. Rows come sorted by (one-norm, entries): the one-norm is
    2k throughout one k.
    """
    d, t = _at_least(d, "d", 2), _at_least(t, "t", 1)
    for k in range(1, t + 1):
        block = []
        for n in range(1, d):
            for pos in _partitions_exact(k, n):
                for m in range(1, d - n + 1):
                    for neg in _partitions_exact(k, m):
                        block.append(pos + (0,) * (d - n - m) + tuple(-v for v in reversed(neg)))
        block.sort()
        yield from block


def enumerate_lambda_set(d, t):
    """All nontrivial block labels of the t-th moment operator on U(d).

    Returns Lambda~_t as a list of label tuples: nonincreasing zero-sum
    integer d-tuples with positive part at most t, the zero label excluded,
    sorted by (one-norm, entries) so emitted tables are byte-stable. These
    are the rows of :attr:`BlockSpectrum.labels`, in the same order.
    """
    return list(_label_rows(d, t))


# ---------------------------------------------------------------------------
# Weyl dimension formula
# ---------------------------------------------------------------------------

def weyl_dimension(lam):
    """dim pi_lambda = prod_{i<j} (lam_i - lam_j + j - i)/(j - i), exact.

    Computed by :func:`_weyl_dim` over the pairs of distinct entries only;
    :func:`block_spectrum` and the other per-label functions call that on
    entries tuples directly, so they do not pass through here.
    """
    return _weyl_dim(_label_entries(lam))


def _weyl_dim(ent):
    """The Weyl dimension of the label with nonincreasing entries ``ent``.

    A pair with ent[i] == ent[j] contributes (j - i)/(j - i) = 1, so only
    the other pairs are multiplied, and the quotient stays exact: a d = 64
    label of Lambda~_5 has at least 54 zero entries, so at most 585 of its
    2 016 pairs.
    """
    d = len(ent)
    num = den = 1
    for i in range(d):
        for j in range(i + 1, d):
            if ent[i] != ent[j]:
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

    ``labels`` is the tuple of label tuples in :func:`enumerate_lambda_set`
    order, ``dims`` the exact d_lambda ints, ``sum_dim`` their exact sum,
    ``log2dim`` the read-only float64 array of log(2 d_lambda), each taken
    by ``math.log`` of the exact integer, and ``fs2`` the read-only float64
    array of delta_lambda(2).
    """

    d: int
    t: int
    labels: tuple
    dims: tuple
    sum_dim: int
    log2dim: np.ndarray
    fs2: np.ndarray


@lru_cache(maxsize=None)
def block_spectrum(d, t):
    """The cached :class:`BlockSpectrum` of Lambda~_t on U(d).

    d and t are stored as ints: the cache key (2, 2.0) equals (2, 2).
    """
    import numpy as np

    d, t = _integral(d, "d"), _integral(t, "t")

    rows = tuple(_label_rows(d, t))
    dims = tuple(map(_weyl_dim, rows))
    log2dim = np.array([math.log(2 * dl) for dl in dims])
    fs2 = np.array([_frobenius_schur(row) / dl for row, dl in zip(rows, dims)])
    for arr in (log2dim, fs2):
        arr.flags.writeable = False
    return BlockSpectrum(d, t, rows, dims, sum(dims), log2dim, fs2)


# ---------------------------------------------------------------------------
# weight multiplicities: Kostka numbers
# ---------------------------------------------------------------------------

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


@lru_cache(maxsize=None)
def _kostka(shape, content):
    """K_{shape, content}: semistandard tableaux of that shape and content.

    shape is a partition and content a composition, both of length r.
    Removing the entries r from such a tableau leaves one of shape nu with
    content content_1..content_{r-1}, where shape/nu is a horizontal strip of
    size content_r (Gelfand-Tsetlin branching), so the count recurses on
    (nu, content prefix). One cache, shared by every weight and label, holds
    the pairs reached.
    """
    if len(shape) == 1:
        return int(shape[0] == content[0])
    return sum(_kostka(nu, content[:-1]) for nu in _interlacing(shape, sum(shape) - content[-1]))


@lru_cache(maxsize=None)
def _mult_centered(lam_entries, mu):
    """Multiplicity in pi_lambda of the integer weight mu, of entry sum Sigma(lambda).

    Callers pass mu sorted nonincreasing: multiplicities are Weyl-invariant,
    so the cache is keyed on that canonical pair. Subtracting lambda_d from
    every entry of both makes lambda a partition and mu a composition of the
    same size; the multiplicity is then their Kostka number.
    """
    low = lam_entries[-1]
    if mu[-1] < low:
        return 0  # an entry below lambda_d
    return _kostka(tuple(v - low for v in lam_entries), tuple(v - low for v in mu))


def weight_multiplicity(lam, mu):
    """m_lambda(mu), the Kostka number of the shifted pair (lambda, sort(mu)).

    mu may have entries of any finite numeric type; it counts as the integer
    weight it equals, and an infinite or NaN entry raises ``ValueError``.
    Returns 0 at once when mu is not integral or the entry-sum or one-norm
    pruning rules rule it out. Runs no Weyl-group sum, so any d is allowed.
    """
    lam = _label_entries(lam)
    ent = tuple(mu)
    if len(ent) != len(lam):
        raise ValueError("weight length does not match d")
    for v in ent:
        if v != v or abs(v) == math.inf:
            raise ValueError(f"weight entries must be finite, got {v!r}")
    if any(v != int(v) for v in ent):
        return 0  # the weights of pi_lambda are integral
    if sum(ent) != sum(lam) or sum(map(abs, ent)) > sum(map(abs, lam)):
        return 0
    return _mult_centered(lam, tuple(sorted(map(int, ent), reverse=True)))


# ---------------------------------------------------------------------------
# Frobenius-Schur indicators and gamma coefficients
# ---------------------------------------------------------------------------

def _permutation_sign(perm):
    """sgn(perm) = (-1)^(d - number of cycles)."""
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return -1 if (len(perm) - cycles) % 2 else 1


@lru_cache(maxsize=None)
def _lattice_displacements(d, n, r):
    """(one-norm, displacement, net sign) of the permutations sigma of S_d
    whose displacements sigma(i) - i are all r mod n, in one-norm order.

    Such a sigma maps each residue class mod n of {0, ..., d-1} onto the
    class r steps further on (the runners of the n-abacus in Littlewood's
    rule for s_lambda o p_n), so it is one bijection per class: prod |class|!
    permutations, and none when the sizes of a class and its image differ.
    They are grouped by displacement sorted nonincreasing, each group summing
    sgn(sigma); groups whose signs cancel are dropped. The identity is the
    only permutation with displacement zero. Cached per (d, n, r); refuses
    d > MAX_WEYL_DIM.
    """
    if d > MAX_WEYL_DIM:
        classes3 = math.prod(math.factorial(len(range(c, d, 3))) for c in range(3))
        raise ValueError(
            f"the Frobenius-Schur sum at n = 3 runs over the prod |class|! = "
            f"{classes3} permutations of S_{d} that keep residue classes mod 3; "
            f"d={d} exceeds the cap MAX_WEYL_DIM={MAX_WEYL_DIM}"
        )
    classes = [range(c, d, n) for c in range(n)]
    images = [classes[(c + r) % n] for c in range(n)]
    if any(len(a) != len(b) for a, b in zip(classes, images)):
        return ()
    counts = {}
    sigma = [0] * d
    for choice in itertools.product(*(itertools.permutations(b) for b in images)):
        for src, dst in zip(classes, choice):
            for i, j in zip(src, dst):
                sigma[i] = j
        disp = tuple(sorted((sigma[i] - i for i in range(d)), reverse=True))
        counts[disp] = counts.get(disp, 0) + _permutation_sign(sigma)
    by_norm = sorted((sum(map(abs, disp)), disp, c) for disp, c in counts.items() if c)
    return tuple(by_norm)


def _fs_weyl_sum(ent, n):
    """sum over sigma in S_d of sgn(sigma) * m_lambda((rho - sigma.rho)/n), exact.

    For the label with entries tuple ``ent`` and n >= 1; this is d_lambda *
    delta_lambda(n) at every such n, and the reference the closed forms of
    :func:`fs_indicator` are tested against.
    Not cached: :func:`gamma_coefficients` runs once per label, behind the
    bounds' block-data cache. The identity's term is m_lambda(0). With
    lift = n Sigma(lambda)/d, the term of sigma counts the weight
    (sigma(i) - i + lift)/n, so it is 0 unless every sigma(i) - i is -lift
    mod n. The sum is 0 when lift is not an integer, and otherwise runs over
    the :func:`_lattice_displacements` table of r = -lift mod n. One term per
    displacement group: the multiplicity and the one-norm budget depend on
    the sorted displacement alone.
    """
    d, size = len(ent), sum(ent)
    lift, rem = divmod(n * size, d)
    if rem:
        return 0
    # less its trace part, a weight is displacement/n and lies in the hull of
    # the Weyl orbit of lambda - Sigma(lambda)/d, so ||displacement||_1 <=
    # n ||lambda - Sigma(lambda)/d||_1; times d, both sides are integers
    budget = n * sum(abs(d * v - size) for v in ent)
    total = 0
    for norm, disp, count in _lattice_displacements(d, n, -lift % n):
        if d * norm > budget:
            break  # the groups come in one-norm order
        total += count * _mult_centered(ent, tuple((v + lift) // n for v in disp))
    return total


def _frobenius_schur(ent):
    """d_lambda delta_lambda(2), the Frobenius-Schur indicator 1, 0 or -1, of
    the label with nonincreasing entries ``ent`` (a is its Dynkin label)."""
    d = len(ent)
    a = [ent[j - 1] - ent[j] for j in range(1, d)]
    return (-1) ** sum(j * (d - j) * v for j, v in enumerate(a, 1)) if a == a[::-1] else 0


def fs_indicator(lam, n):
    """delta_lambda(n): the Haar average of chi_lambda(U^n)/d_lambda on SU(d).

    Exact rational, even in n (reality: U -> U^-1 preserves Haar measure).
    |n| = 0 gives 1; |n| = 1 gives 1 for a label with all entries equal and
    0 otherwise (Schur orthogonality); |n| = 2 gives the Frobenius-Schur
    indicator over d_lambda; |n| >= d+1 gives m_lambda(0)/d_lambda (only the
    identity passes the lattice test). Only 3 <= |n| <= d runs the signed
    Weyl-group sum, over the permutations that keep residue classes mod n,
    which needs d <= MAX_WEYL_DIM.
    """
    ent = _label_entries(lam)
    n = abs(_integral(n, "n"))
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(int(len(set(ent)) == 1))
    dl = _weyl_dim(ent)
    if n == 2:
        return Fraction(_frobenius_schur(ent), dl)
    if n > len(ent):
        return Fraction(zero_weight_multiplicity(ent), dl)
    return Fraction(_fs_weyl_sum(ent, n), dl)


def zero_weight_multiplicity(lam):
    """m_lambda(0) of the SU(d) restriction (0 when the label has no
    zero-sum lift; always >= 1 on Lambda~_t)."""
    ent = _label_entries(lam)
    level, rem = divmod(sum(ent), len(ent))
    return 0 if rem else _mult_centered(ent, (level,) * len(ent))


def gamma_coefficients(lam):
    """gamma_lambda(k) for k in [-d, d].

    gamma(0) = 1 - m_lambda(0)/d_lambda and gamma(+-k) = delta_lambda(k) -
    m_lambda(0)/d_lambda for k = 1..d, read from :func:`fs_indicator`. By
    reality gamma is even in k, and delta_lambda(1) (Schur orthogonality)
    and delta_lambda(2) (the Frobenius-Schur indicator) are closed forms, so
    only k = 3..d runs a Weyl-group sum.
    """
    ent = _label_entries(lam)
    m0d = Fraction(zero_weight_multiplicity(ent), _weyl_dim(ent))
    gam = {0: 1 - m0d}
    for k in range(1, len(ent) + 1):
        gam[k] = gam[-k] = fs_indicator(ent, k) - m0d
    return gam
