"""Exact representation theory of U(d)/SU(d) irrep blocks.

Everything here is exact integer/rational arithmetic: irrep label
enumeration, Weyl dimensions, weight multiplicities (pattern counts by
Gelfand-Tsetlin branching), Frobenius-Schur indicators delta_lambda(n) and
the gamma_lambda(k) coefficients entering the symmetric master bound.

Labels: a label is a checked int tuple of d >= 2 nonincreasing entries.
The public per-label functions take any sequence of integral entries and
reduce it once, by :func:`_label_entries`, to that tuple; every private
helper takes the tuple, and caches keyed on a label are keyed on it.

The block spectrum (:func:`block_spectrum`) is the one source of block
data for the label set, the union bounds, the solver and ``lambda-set``:
per (d, t), cached, the label set Lambda~_t as a tuple of label tuples,
with its exact dimensions, their sum and the Frobenius-Schur indicators
d_lambda delta_lambda(2). It is built from the rows of :func:`_label_rows`
by :func:`_weyl_dim` and :func:`_frobenius_schur`, the same formulas the
per-label functions call. The exact m_lambda(0) column and the float
arrays log(2 d_lambda) and delta_lambda(2) are built on first read. Those
two arrays are the only numpy in this module, and numpy is imported where
they are built (:func:`_read_only`), so the exact columns load without it.

Frobenius-Schur data: delta_lambda(n) = int chi_lambda(U^n) dU / d_lambda
over SU(d). :func:`_fs_numerator`, the one source of d_lambda
delta_lambda(n), holds one rule: each |n| <= 2 is a closed form, and every
|n| >= 3 a signed Weyl-group sum, :func:`_fs_weyl_sum`. The closed forms:

- Reality: Haar measure is invariant under U -> U^-1, so
  delta_lambda(-n) = delta_lambda(n).
- Duality: the dual label lambda* = (-lambda_d, ..., -lambda_1) has
  chi_lambda* = conj chi_lambda, so the same d_lambda and m_lambda(0) and,
  as delta_lambda(n) is real, the same delta_lambda(n): :func:`_gamma_row`
  builds one row per dual pair.
- Schur orthogonality: int chi_lambda dU is the multiplicity of the trivial
  representation, so delta_lambda(1) is 1 for a label whose entries are all
  equal (trivial on SU(d)) and 0 otherwise (Bump, *Lie Groups*, Ch. 2).
- Frobenius-Schur indicator: d_lambda delta_lambda(2) is 1, 0 or -1 as
  pi_lambda is real, not self-dual or quaternionic. It is 0 unless the
  Dynkin label a reads the same reversed (self-dual), and otherwise the
  sign (-1)^(sum_j j (d - j) a_j) by which the central element
  exp(2 pi i rho^vee) acts (Bourbaki, *Lie Groups*, Ch. VIII, 7.5).

At n >= 3 a permutation passes the lattice test only if it maps each
residue class c mod n onto c + r, r = -n Sigma(lambda)/d mod n: it is one
permutation per orbit of c -> c + r, as U^n has the eigenvalues of a Haar
draw from prod_c U(|class c|) (Rains, PTRF 107, 1997). At n >= d the
classes hold one place at most, so when d divides Sigma(lambda) (r = 0)
the sum is the identity's term m_lambda(0) alone: U^n has iid uniform
eigenvalues. Past n = d no other permutation maps places to places, so
the sum is m_lambda(0) at every n > d, and the tests check the walk against
that value. Only the orbits that hold a place are walked, at most d of
them, so a large n costs what n = d does. :func:`_orbit_walk` walks each
orbit within the one-norm a weight of pi_lambda allows, recursing once per
place, so past the recursion limit it raises a ``ValueError`` naming d. The
merged table holds weights, and the label is shifted once to meet them.

Weights are integer U(d) weights whose entries sum to Sigma(lambda), the
label's entry sum, so a label with nonzero entry sum and its SU(d)
restriction share one engine: the SU(d) weight nu is the U(d) weight
nu + Sigma(lambda)/d, of multiplicity 0 unless that is an integer vector.
So m_lambda(0) counts (Sigma/d, ..., Sigma/d) when d divides Sigma(lambda),
and is 0 otherwise.

Note on multiplicities: the weight multiplicity m_lambda(mu) of U(d) counts
the Gelfand-Tsetlin patterns with top row lambda whose row sums step down
by the entries of mu (Fulton, *Young Tableaux*, 8; Macdonald, *Symmetric
Functions and Hall Polynomials*, I.5-I.7: the Kostka number when lambda is
a partition). It is invariant under permuting mu and is counted one row at
a time in one memoized recursion, :func:`_mult_centered`, keyed on
(lambda, sorted mu), so no Kostant partition function and no alternating
sum over the Weyl group is needed. The recursion is one level per label
entry, so past the recursion limit (d near 500 from a cold memo) a
multiplicity raises a ``ValueError`` naming d. The Kostant and Freudenthal
engines are kept in the tests (``tests/oracles.py``) as independent
oracles, with the partition counts that check :func:`enumerate_lambda_set`
and the SU(d) -> U(d) lift of a Dynkin label.
"""
from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


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
    """v as a float; a value that is not a real number (None, a str) or is
    too large for a float raises."""
    # int and float are tested before the ABC, whose check is ~7x slower
    if not isinstance(v, (int, float, numbers.Real)):
        raise ValueError(f"{what} must be a real number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None


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
    sorted by (one-norm, entries) so emitted tables are byte-stable: the
    rows of :attr:`BlockSpectrum.labels`.
    """
    return list(block_spectrum(d, t).labels)


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
    """The block data of Lambda~_t on U(d).

    ``labels`` is the tuple of label tuples in :func:`enumerate_lambda_set`
    order, ``dims`` the exact d_lambda ints, ``sum_dim`` their exact sum and
    ``fs`` the Frobenius-Schur indicators d_lambda delta_lambda(2) as ints.
    The other columns are built on first read: ``m0``, the exact
    m_lambda(0) ints, and two read-only float64 arrays, ``log2dim`` of
    log(2 d_lambda), each taken by ``math.log`` of the exact integer, and
    ``fs2`` of delta_lambda(2). Only the arrays load numpy.
    """

    d: int
    t: int
    labels: tuple
    dims: tuple
    sum_dim: int
    fs: tuple

    @cached_property
    def m0(self):
        return tuple(map(_zero_weight, self.labels))

    @cached_property
    def log2dim(self) -> np.ndarray:
        return _read_only([math.log(2 * dl) for dl in self.dims])

    @cached_property
    def fs2(self) -> np.ndarray:
        return _read_only([fs / dl for fs, dl in zip(self.fs, self.dims)])


def _read_only(values):
    """values as a read-only float64 array: the one numpy import here."""
    import numpy as np

    arr = np.array(values)
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def block_spectrum(d, t):
    """The cached :class:`BlockSpectrum` of Lambda~_t on U(d).

    d and t are stored as ints: the cache key (2, 2.0) equals (2, 2).
    """
    d, t = _integral(d, "d"), _integral(t, "t")
    rows = tuple(_label_rows(d, t))
    dims = tuple(map(_weyl_dim, rows))
    return BlockSpectrum(d, t, rows, dims, sum(dims), tuple(map(_frobenius_schur, rows)))


# ---------------------------------------------------------------------------
# weight multiplicities: Gelfand-Tsetlin pattern counts
# ---------------------------------------------------------------------------

#: the first-seen copy of each row and weight prefix the recursion of
#: :func:`_mult_centered` passes on, so equal tuples in its memo keys are one
#: object; ``cache_clear`` of the memo leaves it, so clear both to free them
_shared_tuples = {}


@lru_cache(maxsize=None)
def _mult_centered(lam_entries, mu):
    """Multiplicity in pi_lambda of the integer weight mu, of entry sum Sigma(lambda).

    Callers pass mu sorted nonincreasing: multiplicities are Weyl-invariant,
    so the one memo of weight multiplicities is keyed on that canonical
    pair. Restricted to U(d-1) x U(1), pi_lambda is the sum, each once, of
    pi_nu times z^(Sigma(lambda) - Sigma(nu)) over the nu with nu_i in
    [lambda_{i+1}, lambda_i] (Gelfand-Tsetlin branching), so the count
    recurses on (nu, mu prefix) for the nu of entry sum Sigma(lambda) - mu_d,
    a sorted pair too, so every call reads and fills this memo. The first
    d - 2 entries of nu run over their box; the last, fixed by the size, is
    kept in its range. No weight has an entry below lambda_d. Each nu and
    prefix passes through ``_shared_tuples``, so the memo stores one copy
    of each.
    """
    if len(lam_entries) == 1:
        return int(lam_entries[0] == mu[0])
    if mu[-1] < lam_entries[-1]:
        return 0
    size, rest = sum(lam_entries) - mu[-1], mu[:-1]
    rest = _shared_tuples.setdefault(rest, rest)
    total = 0
    for head in itertools.product(*(range(b, a + 1) for a, b in zip(lam_entries, lam_entries[1:-1]))):
        last = size - sum(head)
        if lam_entries[-1] <= last <= lam_entries[-2]:
            nu = head + (last,)
            total += _mult_centered(_shared_tuples.setdefault(nu, nu), rest)
    return total


def _multiplicity(ent, mu):
    """:func:`_mult_centered` of (ent, mu), through the one entry to its
    recursion: past the recursion limit it raises ``ValueError`` naming d."""
    try:
        return _mult_centered(ent, mu)
    except RecursionError:
        raise ValueError(f"weight multiplicities recurse once per label entry, and at d={len(ent)} "
                         f"they passed the recursion limit {sys.getrecursionlimit()}") from None


def weight_multiplicity(lam, mu):
    """m_lambda(mu), the Gelfand-Tsetlin pattern count of (lambda, sort(mu)).

    mu may have entries of any finite numeric type; it counts as the integer
    weight it equals, and an infinite or NaN entry raises ``ValueError``.
    Returns 0 at once when mu is not integral or the entry-sum or one-norm
    pruning rules rule it out. Runs no Weyl-group sum, but recurses once per
    label entry, so past the recursion limit (d near 500 from a cold memo) it
    raises ``ValueError`` naming d.
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
    return _multiplicity(lam, tuple(sorted(map(int, ent), reverse=True)))


# ---------------------------------------------------------------------------
# Frobenius-Schur indicators and gamma coefficients
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _orbit_walk(left, holes, spare, n, r):
    """(one-norm, nonzero displacements ascending, net sign) of the ways to
    finish a permutation with steps all r mod n within one-norm ``spare``, in
    one-norm order, from a state seen from its next place, every value taken
    less that place: ``left`` places to fill and the ``holes``, the unplaced
    values below the largest placed, ascending; an orbit of length L is the
    state (L, (), budget, n, r). The holes, matched in order to the places 0,
    1, ..., bound the one-norm of any finish from below. Placing the value
    (step) b adds i - b inversions, i the unplaced values below b."""
    if sum(abs(h - p) for p, h in enumerate(holes)) > spare:
        return ()
    table = {} if left else {(): 1}
    free = holes + tuple(range(len(holes), min(left, spare + 1)))
    for i, b in enumerate(free):
        if (b - r) % n:
            continue
        rest = free[:i] + free[i + 1:max(len(holes), b + 1)]
        for _, key, sign in _orbit_walk(left - 1, tuple(h - 1 for h in rest), spare - abs(b), n, r):
            key = tuple(sorted(key + (b,))) if b else key
            table[key] = table.get(key, 0) + (-sign if (i - b) % 2 else sign)
    return tuple(sorted((sum(map(abs, key)), key, c) for key, c in table.items() if c))


@lru_cache(maxsize=None)
def _lattice_displacements(d, g, n, r, budget):
    """(weight q sorted nonincreasing, net sign) of the sigma in S_d with
    steps sigma(i) - i all R mod N and one-norm <= B, q_i =
    (sigma(i) - i - R)/N, cancelled signs dropped, given in units of
    G = gcd(N, R): g = min(G, d), n = N/G, r = R/G and budget = B // G. Such
    a sigma maps each residue class c mod N onto c + R (the N-abacus of
    Littlewood's rule for s_lambda o p_N); on the places j, j+G, ... of an
    orbit of c -> c + R, its steps are G times u, u = r mod n: the orbits'
    :func:`_orbit_walk` tables merge in units of G, and q = (u - r)/n. Only
    the g orbits that hold a place are walked, the places j, j+g, ... below
    d whether g is G or d, so every N past d with one (n, r) shares one
    entry and costs no more than N = d."""
    try:
        orbits = [_orbit_walk(len(range(j, d, g)), (), budget, n, r) for j in range(g)]
    except RecursionError:
        raise ValueError(f"the Frobenius-Schur walk recurses once per place of an orbit, and at "
                         f"d={d}, with orbits of up to {len(range(0, d, g))} places, it passed "
                         f"the recursion limit {sys.getrecursionlimit()}") from None
    merged = {(): 1}
    for orbit in orbits:
        joined = {}
        for key, sign in merged.items():
            spare = budget - sum(map(abs, key))
            for _, part, part_sign in itertools.takewhile(lambda entry: entry[0] <= spare, orbit):
                both = tuple(sorted(key + part))
                joined[both] = joined.get(both, 0) + sign * part_sign
        merged = {key: c for key, c in joined.items() if c}
    return tuple((tuple((u - r) // n for u in sorted(key + (0,) * (d - len(key)), reverse=True)), c)
                 for key, c in merged.items())


def _fs_weyl_sum(ent, n):
    """sum over sigma in S_d of sgn(sigma) * m_lambda((rho - sigma.rho)/n), exact.

    For the label with entries tuple ``ent`` and n >= 1; this is d_lambda *
    delta_lambda(n) at every such n. :func:`_fs_numerator` runs it at every
    n >= 3, and the tests check its closed forms against it. Not
    cached: a gamma row reads it d - 2 times, and the bounds build each
    label's row once, behind the memo of :func:`_gamma_row`. The identity's
    term is m_lambda(0). With lift = n Sigma(lambda)/d, the term of sigma
    counts the weight (sigma(i) - i + lift)/n, so it is 0 unless every
    sigma(i) - i is -lift mod n; the sum is 0 when lift is not an integer.
    With c = ceil(lift/n), that weight is q + c, q in the
    :func:`_lattice_displacements` table of N = n and R = n c - lift, and
    m_lambda(q + c) = m_(lambda - c)(q): the label is shifted once, with one
    term per weight group.
    """
    d, size = len(ent), sum(ent)
    lift, rem = divmod(n * size, d)
    if rem:
        return 0
    # less its trace part, a weight is displacement/n and lies in the hull of
    # the Weyl orbit of lambda - Sigma(lambda)/d, so ||displacement||_1 <=
    # n ||lambda - Sigma(lambda)/d||_1, whose floor is the budget below
    budget = n * sum(abs(d * v - size) for v in ent) // d
    c = -(-lift // n)
    shifted = tuple(v - c for v in ent)
    r = n * c - lift
    g = math.gcd(n, r)
    table = _lattice_displacements(d, min(g, d), n // g, r // g, budget // g)
    return sum(sign * _multiplicity(shifted, q) for q, sign in table)


def _frobenius_schur(ent):
    """d_lambda delta_lambda(2), the Frobenius-Schur indicator 1, 0 or -1, of
    the label with nonincreasing entries ``ent`` (a is its Dynkin label)."""
    d = len(ent)
    a = [ent[j - 1] - ent[j] for j in range(1, d)]
    return (-1) ** sum(j * (d - j) * v for j, v in enumerate(a, 1)) if a == a[::-1] else 0


def _fs_numerator(ent, n):
    """d_lambda delta_lambda(n), an exact int, of the label with entries
    tuple ``ent`` at n >= 0: a closed form of the module docstring at n <= 2,
    and :func:`_fs_weyl_sum`, exact at every d and n, at n >= 3."""
    if n == 0:
        return _weyl_dim(ent)
    if n == 1:
        return int(len(set(ent)) == 1)
    if n == 2:
        return _frobenius_schur(ent)
    return _fs_weyl_sum(ent, n)


def fs_indicator(lam, n):
    """delta_lambda(n): the Haar average of chi_lambda(U^n)/d_lambda on SU(d).

    Exact rational, even in n (reality: U -> U^-1 preserves Haar measure):
    :func:`_fs_numerator` at |n| over d_lambda, so |n| = 0 gives 1. The
    closed forms cover |n| <= 2; every |n| >= 3 runs the orbit walk of
    :func:`_fs_weyl_sum`, which walks at most d orbits, so a large |n| is
    as quick as |n| = d.
    """
    ent = _label_entries(lam)
    return Fraction(_fs_numerator(ent, abs(_integral(n, "n"))), _weyl_dim(ent))


def zero_weight_multiplicity(lam):
    """m_lambda(0) of the SU(d) restriction (0 when the label has no
    zero-sum lift; always >= 1 on Lambda~_t)."""
    return _zero_weight(_label_entries(lam))


def _zero_weight(ent):
    """m_lambda(0) of the label with nonincreasing entries ``ent``."""
    level, rem = divmod(sum(ent), len(ent))
    return 0 if rem else _multiplicity(ent, (level,) * len(ent))


def gamma_coefficients(lam):
    """gamma_lambda(k) = delta_lambda(k) - m_lambda(0)/d_lambda for k in
    [-d, d], exact, so gamma(0) = 1 - m_lambda(0)/d_lambda: the
    :func:`_gamma_row` of the label over d_lambda, even in k by reality."""
    dl, _, row = _gamma_row(_label_entries(lam))
    return {s * k: Fraction(g, dl) for k, g in enumerate(row) for s in (1, -1)}


@lru_cache(maxsize=None)
def _gamma_row(ent):
    """(d_lambda, m_lambda(0), row) for the label with entries tuple ``ent``,
    row the ints d_lambda gamma_lambda(k) = :func:`_fs_numerator` at k less
    m_lambda(0), k = 0..d: the exact bracket weights of the symmetric master
    bound. Keyed on the label alone, so each row is built once, whatever its
    t or delta; its k = 0 term is d_lambda less m_lambda(0). A label and its
    dual share one row (Duality, in the module docstring): the larger one's
    is built."""
    dual = tuple(-v for v in reversed(ent))
    if dual > ent:
        return _gamma_row(dual)
    m0 = _zero_weight(ent)
    row = tuple(_fs_numerator(ent, k) - m0 for k in range(len(ent) + 1))
    return row[0] + m0, m0, row
