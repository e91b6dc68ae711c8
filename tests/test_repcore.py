"""Exact representation-theory tests.

Derived expectations are computed by independent oracles: brute-force box
enumeration for the label set, a coefficient scan for the Kostant partition
function, the Kostant alternating sum and the Freudenthal recursion (both
in ``oracles.py``) as second and third multiplicity engines, a per-permutation
Frobenius-Schur sum, and the SU(2) closed forms.
"""
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gatedesign import bounds as bd
from gatedesign import repcore as rc
from gatedesign.repcore import HighestWeight


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def brute_lambda_set(d, t):
    """Exhaustive scan of the integer box [-t, t]^d."""
    out = set()
    for cand in itertools.product(range(t, -t - 1, -1), repeat=d):
        if any(a < b for a, b in zip(cand, cand[1:])):
            continue
        if sum(cand) != 0 or all(v == 0 for v in cand):
            continue
        if sum(v for v in cand if v > 0) > t:
            continue
        out.add(cand)
    return out


def brute_kostant(mu, d):
    """Coefficient scan with every coefficient bounded by ||mu||_1."""
    roots = [(i, j) for i in range(d) for j in range(i + 1, d)]
    cap = sum(abs(v) for v in mu)
    count = 0
    for coeffs in itertools.product(range(cap + 1), repeat=len(roots)):
        vec = [0] * d
        for c, (i, j) in zip(coeffs, roots):
            vec[i] += c
            vec[j] -= c
        if tuple(vec) == tuple(mu):
            count += 1
    return count


def su2_string_multiplicity(k, j):
    """Weight string of the SU(2) irrep (k, -k): every (j, -j), |j| <= k."""
    return 1 if abs(j) <= k else 0


def lemma_lambda_closed_form(dynkin_label, n):
    """SU(2) Frobenius-Schur closed form (even/odd label cases)."""
    d_lam = dynkin_label + 1
    if n == 0:
        return Fraction(1)
    if abs(n) == 1:
        return Fraction(0)
    if dynkin_label % 2 == 0:
        return Fraction(1, d_lam)
    if abs(n) == 2:
        return Fraction(-1, d_lam)
    return Fraction(0)


# ---------------------------------------------------------------------------
# label enumeration
# ---------------------------------------------------------------------------

def test_lambda_set_d2_t2():
    assert [l.entries for l in rc.enumerate_lambda_set(2, 2)] == [(1, -1), (2, -2)]


@pytest.mark.parametrize("d", [4, 5, 8])
def test_lambda_set_t2_has_five_labels(d):
    labels = {l.entries for l in rc.enumerate_lambda_set(d, 2)}
    pad = (0,) * (d - 2)
    expected = {
        (1,) + pad + (-1,),
        (2,) + pad + (-2,),
        (2,) + pad[:-1] + (-1, -1) if d > 2 else None,
        (1, 1) + pad[:-1] + (-2,),
        (1, 1) + (0,) * (d - 4) + (-1, -1),
    }
    expected = {
        (1,) + (0,) * (d - 2) + (-1,),
        (2,) + (0,) * (d - 2) + (-2,),
        (2,) + (0,) * (d - 3) + (-1, -1),
        (1, 1) + (0,) * (d - 3) + (-2,),
        (1, 1) + (0,) * (d - 4) + (-1, -1),
    }
    assert labels == expected


@pytest.mark.parametrize("d,t", [(2, 4), (3, 3), (4, 3), (5, 2)])
def test_lambda_set_matches_box_scan(d, t):
    got = {l.entries for l in rc.enumerate_lambda_set(d, t)}
    assert got == brute_lambda_set(d, t)


def test_lambda_set_sorted_and_unique():
    labels = rc.enumerate_lambda_set(4, 4)
    keys = [(l.norm1, l.entries) for l in labels]
    assert keys == sorted(keys)
    assert len(set(labels)) == len(labels)


def test_lambda_set_invariants():
    for lam in rc.enumerate_lambda_set(3, 4):
        assert lam.total == 0
        assert lam.positive_sum <= 4
        assert lam.norm1 % 2 == 0


def test_lambda_set_d2_large_t():
    # d=2: exactly one label (k, -k) per k
    labels = rc.enumerate_lambda_set(2, 5000)
    assert [l.entries for l in labels] == [(k, -k) for k in range(1, 5001)]


def test_partitions_exact_matches_counts():
    for k in range(0, 13):
        for n in range(0, k + 2):
            parts = list(rc._partitions_exact(k, n))
            assert len(parts) == rc.count_partitions_exact(k, n)
            assert len(set(parts)) == len(parts)
            for p in parts:
                assert len(p) == n and sum(p) == k and min(p, default=1) >= 1
                assert all(a >= b for a, b in zip(p, p[1:]))
    assert list(rc._partitions_exact(6, 2, max_part=4)) == [(4, 2), (3, 3)]


@pytest.mark.parametrize("bad", [(1, 0), (2, -1)])
def test_lambda_set_rejects_bad_args(bad):
    with pytest.raises(ValueError):
        rc.enumerate_lambda_set(*bad)


def test_highest_weight_rejects_increasing():
    with pytest.raises(ValueError):
        HighestWeight((0, 1))


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_count_irreps_d8_k2():
    assert rc.count_irreps_by_norm(8, 2) == rc.partition_count(2) ** 2 == 4


@pytest.mark.parametrize("k", range(1, 7))
def test_count_irreps_d2(k):
    assert rc.count_irreps_by_norm(2, k) == 1


def test_count_irreps_matches_enumeration_slice():
    labels = rc.enumerate_lambda_set(3, 3)
    slice_len = sum(1 for l in labels if l.norm1 == 6)
    assert rc.count_irreps_by_norm(3, 3) == slice_len


@pytest.mark.parametrize("d,t", [(2, 5), (3, 4), (4, 4), (5, 3), (6, 6)])
def test_counting_identity(d, t):
    total = sum(rc.count_irreps_by_norm(d, k) for k in range(1, t + 1))
    assert len(rc.enumerate_lambda_set(d, t)) == total


def test_count_irreps_d2_large_t_matches_enumeration():
    total = sum(rc.count_irreps_by_norm(2, k) for k in range(1, 5001))
    assert total == len(rc.enumerate_lambda_set(2, 5000))


def test_partition_count_values():
    assert rc.partition_count(100) == 190569292
    assert rc.partition_count(1000) == 24061467864032622473692149727991


@pytest.mark.parametrize("k", range(1, 7))
def test_count_collapses_to_p_squared(k):
    assert rc.count_irreps_by_norm(2 * k, k) == rc.partition_count(k) ** 2
    assert rc.count_irreps_by_norm(2 * k + 3, k) == rc.partition_count(k) ** 2


# ---------------------------------------------------------------------------
# Weyl dimension formula
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_adjoint_dimension(d):
    lam = (1,) + (0,) * (d - 2) + (-1,)
    assert rc.weyl_dimension(lam) == d * d - 1


def test_trivial_dimension():
    assert rc.weyl_dimension((0, 0, 0)) == 1


def test_dimension_d4_norm4_labels():
    # closed forms for the five t=2 labels
    d = 4
    assert rc.weyl_dimension((2, 0, 0, -2)) == d * d * (d - 1) * (d + 3) // 4 == 84
    assert rc.weyl_dimension((2, 0, -1, -1)) == (d * d - 1) * (d * d - 4) // 4 == 45
    assert rc.weyl_dimension((1, 1, 0, -2)) == 45
    assert rc.weyl_dimension((1, 1, -1, -1)) == d * d * (d - 3) * (d + 1) // 4 == 20


def test_dimension_positive_on_label_set():
    for lam in rc.enumerate_lambda_set(4, 3):
        assert rc.weyl_dimension(lam) >= 1


@pytest.mark.parametrize("d", [4, 8])
def test_sum_dimensions_t2_closed_form(d):
    assert rc.sum_dimensions(d, 2) == d**4 - 3 * d**2 + 1


# ---------------------------------------------------------------------------
# block spectrum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,t", [(2, 500), (3, 4), (4, 3), (8, 2), (64, 5)])
def test_block_spectrum_matches_labels_and_dimensions(d, t):
    spec = rc.block_spectrum(d, t)
    labels = rc.enumerate_lambda_set(d, t)
    dims = [rc.weyl_dimension(l) for l in labels]
    assert (spec.d, spec.t) == (d, t)
    assert list(spec.labels) == labels
    assert list(spec.dims) == dims
    assert spec.sum_dim == sum(dims) == rc.sum_dimensions(d, t)
    assert spec.log2dim.tolist() == [math.log(2 * dl) for dl in dims]
    assert not spec.log2dim.flags.writeable
    assert rc.block_spectrum(d, t) is spec


def test_block_spectrum_fs2():
    spec = rc.block_spectrum(4, 3)
    fs2 = spec.fs2()
    assert fs2.tolist() == [float(rc.fs_indicator(l, 2)) for l in spec.labels]
    assert not fs2.flags.writeable
    assert spec.fs2() is fs2
    with pytest.raises(ValueError):
        rc.block_spectrum(9, 2).fs2()


# ---------------------------------------------------------------------------
# Kostant partition function
# ---------------------------------------------------------------------------

def test_kostant_zero():
    assert oracles.kostant_partition((0, 0, 0)) == 1


@pytest.mark.parametrize("m,expect", [(0, 1), (1, 1), (3, 1), (-1, 0), (-2, 0)])
def test_kostant_d2(m, expect):
    assert oracles.kostant_partition((m, -m)) == expect


def test_kostant_d3_simple():
    assert oracles.kostant_partition((1, 0, -1)) == 2


@pytest.mark.parametrize(
    "mu",
    [
        (1, 0, -1),
        (2, -1, -1),
        (2, 0, -2),
        (1, 1, -2),
        (3, -1, -2),
        (0, 0, 0, 0),
        (1, 0, 0, -1),
        (1, 1, -1, -1),
        (2, 0, -1, -1),
        (2, 1, -1, -2),
    ],
)
def test_kostant_matches_coefficient_scan(mu):
    assert oracles.kostant_partition(mu) == brute_kostant(mu, len(mu))


def test_kostant_rejects_nonintegral_and_nonzero_sum():
    assert oracles.kostant_partition((Fraction(1, 2), Fraction(-1, 2))) == 0
    assert oracles.kostant_partition((1, 0, 0)) == 0


# ---------------------------------------------------------------------------
# weight multiplicities (Kostka branching vs Kostant sum vs Freudenthal)
# ---------------------------------------------------------------------------

def test_highest_weight_is_simple():
    for lam in rc.enumerate_lambda_set(4, 2):
        assert rc.weight_multiplicity(lam, lam.entries) == 1


@pytest.mark.parametrize("d", [2, 3, 4])
def test_adjoint_zero_weight_is_cartan(d):
    lam = (1,) + (0,) * (d - 2) + (-1,)
    zero = (0,) * d
    assert rc.weight_multiplicity(lam, zero) == d - 1
    assert oracles.freudenthal_multiplicity(lam, zero) == d - 1


@pytest.mark.parametrize("k", [1, 2, 4])
def test_su2_weight_strings(k):
    lam = (k, -k)
    for j in range(-k - 2, k + 3):
        expect = su2_string_multiplicity(k, j)
        assert rc.weight_multiplicity(lam, (j, -j)) == expect
        assert oracles.freudenthal_multiplicity(lam, (j, -j)) == expect


def _weight_box(lam):
    """All integer weights with the right entry sum inside the norm ball."""
    lam = HighestWeight(lam)
    r = lam.norm1 // 2 + 1
    for mu in itertools.product(range(-r, r + 1), repeat=lam.d - 1):
        last = lam.total - sum(mu)
        if abs(last) <= r + 1:
            yield mu + (last,)


@pytest.mark.parametrize(
    "lam",
    [
        (2, -2),
        (3, -3),
        (1, 0, -1),
        (2, -1, -1),
        (2, 1, -3),
        (1, 1, -1, -1),
        (2, 0, -1, -1),
        (2, 0, 0, -2),
        (3, 1, -2, -2),
    ],
)
def test_kostant_freudenthal_agree(lam):
    checked = 0
    for mu in _weight_box(lam):
        a = oracles.kostant_multiplicity(lam, mu)
        b = oracles.freudenthal_multiplicity(lam, mu)
        c = rc.weight_multiplicity(lam, mu)
        assert a == b == c, (lam, mu, a, b, c)
        checked += 1
    assert checked >= 7


@pytest.mark.parametrize("d", [2, 3, 4])
def test_weight_multiplicity_matches_kostant_oracle_on_box(d):
    for lam in rc.enumerate_lambda_set(d, 4):
        for mu in _weight_box(lam.entries):
            assert rc.weight_multiplicity(lam, mu) == oracles.kostant_multiplicity(lam.entries, mu)


@pytest.mark.parametrize("d", [5, 6])
def test_weight_multiplicity_matches_kostant_oracle_on_dominant_weights(d):
    # a dominant weight below a label of Lambda~_3 has positive part <= 3,
    # so it is the zero weight or itself a label of the box scan
    weights = brute_lambda_set(d, 3) | {(0,) * d}
    nonzero = 0
    for lam in rc.enumerate_lambda_set(d, 3):
        for mu in weights:
            m = rc.weight_multiplicity(lam, mu)
            assert m == oracles.kostant_multiplicity(lam.entries, mu), (lam, mu)
            nonzero += m > 0
    assert nonzero >= 80


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_weight_multiplicity_is_permutation_invariant_and_matches_freudenthal(data):
    d = data.draw(st.integers(2, 5), label="d")
    t = data.draw(st.integers(1, 3), label="t")
    lam = data.draw(st.sampled_from(rc.enumerate_lambda_set(d, t)), label="lam")
    mu = data.draw(st.sampled_from(list(_weight_box(lam.entries))), label="mu")
    perm = data.draw(st.permutations(mu), label="perm")
    m = rc.weight_multiplicity(lam, mu)
    assert rc.weight_multiplicity(lam, perm) == m
    assert oracles.freudenthal_multiplicity(lam, mu) == m


@pytest.mark.parametrize("lam", [(2, -2), (1, 0, -1), (2, -1, -1), (1, 1, -1, -1), (2, 0, -1, -1)])
def test_weight_multiplicities_sum_to_dimension(lam):
    total = sum(oracles.freudenthal_multiplicity(lam, mu) for mu in _weight_box(lam))
    assert total == rc.weyl_dimension(lam)
    total_k = sum(rc.weight_multiplicity(lam, mu) for mu in _weight_box(lam))
    assert total_k == rc.weyl_dimension(lam)


def test_zero_weight_present_on_label_set():
    for d, t in [(2, 3), (3, 3), (4, 2)]:
        for lam in rc.enumerate_lambda_set(d, t):
            assert rc.zero_weight_multiplicity(lam) >= 1


def test_weight_multiplicity_prunes():
    # wrong entry sum and oversized norm both give 0
    assert rc.weight_multiplicity((1, 0, -1), (1, 0, 0)) == 0
    assert rc.weight_multiplicity((1, 0, -1), (2, 0, -2)) == 0


def test_weyl_cap_enforced():
    lam9 = (1,) + (0,) * 7 + (-1,)  # d = 9 exceeds MAX_WEYL_DIM = 8
    # a Kostka count runs no Weyl sum: the zero weight of the SU(9) adjoint
    assert rc.weight_multiplicity(lam9, (0,) * 9) == 8
    capped = r"walks the 9! permutations of S_9; d=9 exceeds the cap MAX_WEYL_DIM=8"
    with pytest.raises(ValueError, match=capped):
        rc.fs_indicator(lam9, 2)
    with pytest.raises(ValueError, match=capped):
        rc.gamma_coefficients(lam9)
    with pytest.raises(ValueError, match=capped):
        bd.total_bound(9, 2, "symmetric", 20, 0.5, "bernstein-symmetric")
    # shortcut path does not need the Weyl sum, so large |n| still works
    assert rc.fs_indicator(lam9, 10) == Fraction(8, rc.weyl_dimension(lam9))


# ---------------------------------------------------------------------------
# Frobenius-Schur indicators
# ---------------------------------------------------------------------------

def test_fs_vanishes_at_n1():
    for lam in rc.enumerate_lambda_set(3, 2) + rc.enumerate_lambda_set(2, 3):
        assert rc.fs_indicator(lam, 1) == 0
        assert rc.fs_indicator(lam, -1) == 0


def test_fs_su2_examples():
    assert rc.fs_indicator((1, -1), 2) == Fraction(1, 3)
    defining = rc.to_u_weight((1,), m=0)  # Dynkin label 1, lift (1, 0)
    assert rc.fs_indicator(defining, 2) == Fraction(-1, 2)
    assert rc.fs_indicator(defining, 3) == 0


@pytest.mark.parametrize("label", range(1, 21))
@pytest.mark.parametrize("n", range(-10, 11))
def test_fs_matches_su2_closed_form(label, n):
    lam = rc.to_u_weight((label,), m=0)
    assert rc.fs_indicator(lam, n) == lemma_lambda_closed_form(label, n)


@pytest.mark.parametrize("d,t", [(2, 3), (3, 2), (4, 2), (5, 2), (6, 2)])
def test_fs_shortcut_agrees_with_general_path(d, t):
    for lam in rc.enumerate_lambda_set(d, t):
        for n in (d + 1, d + 2, -(d + 1)):
            fast = rc.fs_indicator(lam, n)
            slow = Fraction(rc._fs_weyl_sum(lam, abs(n)), rc.weyl_dimension(lam))
            assert fast == slow
            m0 = rc.zero_weight_multiplicity(lam)
            assert fast == Fraction(m0, rc.weyl_dimension(lam))


def test_fs_indicator_integrality():
    for d, t in [(2, 4), (3, 3), (4, 2)]:
        for lam in rc.enumerate_lambda_set(d, t):
            val = rc.fs_indicator(lam, 2) * rc.weyl_dimension(lam)
            assert val in (-1, 0, 1)


def test_fs_n0():
    assert rc.fs_indicator((3, -3), 0) == 1


@pytest.mark.parametrize("d", range(2, 9))
def test_signed_displacements_table(d):
    table = rc._signed_displacements(d)
    assert sum(table.values()) == 0
    assert table[(0,) * d] == 1
    assert sum(abs(c) for c in table.values()) <= math.factorial(d)
    assert 0 not in table.values()
    for disp in table:
        assert sum(disp) == 0 and list(disp) == sorted(disp, reverse=True)


@pytest.mark.parametrize("d", range(2, 7))
def test_fs_weyl_sum_matches_per_permutation_sum(d):
    perms = list(itertools.permutations(range(d)))
    signs = [(-1) ** sum(p[a] > p[b] for a in range(d) for b in range(a + 1, d)) for p in perms]
    labels = rc.enumerate_lambda_set(d, 3)
    for n in [s * k for k in range(1, d + 1) for s in (1, -1)]:
        # the labels sum to zero, so a weight off the integer lattice has
        # multiplicity 0 and its permutation contributes nothing
        terms = [
            (sign, tuple((p[i] - i) // n for i in range(d)))
            for sign, p in zip(signs, perms)
            if all((p[i] - i) % n == 0 for i in range(d))
        ]
        for lam in labels:
            full = sum(sign * rc.weight_multiplicity(lam, mu) for sign, mu in terms)
            assert rc._fs_weyl_sum(lam, abs(n)) == full, (lam, n)
            m0 = rc.zero_weight_multiplicity(lam)
            dl = rc.weyl_dimension(lam)
            assert rc.gamma_coefficients(lam)[n] == Fraction(full - m0, dl), (lam, n)


def per_permutation_fs_sum(lam, n):
    """d_lambda * delta_lambda(n) as one multiplicity per permutation of S_d.

    The weight (sigma(i) - i)/n is centered; adding trace(lambda)/d lifts it
    to the U(d) weight of the same entry sum as lambda.
    """
    d = lam.d
    shift = Fraction(lam.total, d)
    total = 0
    for p in itertools.permutations(range(d)):
        sign = (-1) ** sum(p[a] > p[b] for a in range(d) for b in range(a + 1, d))
        mu = [Fraction(p[i] - i, n) + shift for i in range(d)]
        total += sign * rc.weight_multiplicity(lam, mu)
    return total


@st.composite
def fs_labels(draw):
    """Zero-sum labels of Lambda~_3 (or the zero label) with d <= 6, or any
    nonincreasing integer d-tuple of nonzero sum with d <= 4."""
    if draw(st.booleans(), label="zero_sum"):
        d = draw(st.integers(2, 6), label="d")
        labels = [HighestWeight((0,) * d)] + rc.enumerate_lambda_set(d, 3)
        return draw(st.sampled_from(labels), label="lam")
    d = draw(st.integers(2, 4), label="d")
    entries = draw(
        st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(lambda v: sum(v) != 0),
        label="entries",
    )
    return HighestWeight(tuple(sorted(entries, reverse=True)))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(lam=fs_labels())
def test_fs_closed_forms_match_weyl_sum_and_per_permutation_oracle(lam):
    d = lam.d
    dl = rc.weyl_dimension(lam)
    # Schur orthogonality: only an SU(d)-trivial label has an invariant vector
    assert rc._fs_weyl_sum(lam, 1) == dl * (len(set(lam.entries)) == 1)
    # reality: the oracle at -n is the sum at n
    for n in range(1, d + 3):
        assert per_permutation_fs_sum(lam, -n) == rc._fs_weyl_sum(lam, n), n
    # beyond d only the identity passes the lattice test
    for n in (d + 1, d + 2):
        assert rc._fs_weyl_sum(lam, n) == rc.zero_weight_multiplicity(lam), n
    for n in range(1, d + 3):
        want = Fraction(rc._fs_weyl_sum(lam, n), dl)
        assert rc.fs_indicator(lam, n) == rc.fs_indicator(lam, -n) == want, n


def test_weyl_sums_run_only_at_2_to_d(monkeypatch):
    # positive part 21 keeps the label out of every Table-2 label set
    fresh = HighestWeight((21, 0, -10, -11))
    before = rc._fs_weyl_sum.cache_info().currsize
    rc.gamma_coefficients(fresh)
    assert rc._fs_weyl_sum.cache_info().currsize - before == fresh.d - 1
    seen = set()
    real = rc._fs_weyl_sum

    def recording(lam, n):
        seen.add(n)
        return real(lam, n)

    monkeypatch.setattr(rc, "_fs_weyl_sum", recording)
    labels = rc.enumerate_lambda_set(4, 2) + [fresh, HighestWeight((1, 1, 1, 1)),
                                              HighestWeight((2, 1, 0, 0))]
    for lam in labels:
        rc.gamma_coefficients(lam)
        for n in range(-6, 7):
            rc.fs_indicator(lam, n)
    assert seen == {2, 3, 4}


# ---------------------------------------------------------------------------
# gamma coefficients
# ---------------------------------------------------------------------------

def test_gamma_zero_in_unit_interval():
    for lam in rc.enumerate_lambda_set(3, 3):
        g0 = rc.gamma_coefficients(lam)[0]
        assert 0 < g0 <= 1


@pytest.mark.parametrize("d,t", [(2, 3), (3, 2), (4, 2)])
def test_gamma_reconstructs_fs_indicator(d, t):
    for lam in rc.enumerate_lambda_set(d, t):
        gam = rc.gamma_coefficients(lam)
        m0_over_d = Fraction(rc.zero_weight_multiplicity(lam), rc.weyl_dimension(lam))
        for n in range(1, d + 1):
            assert rc.fs_indicator(lam, n) == m0_over_d + gam[n]
            assert rc.fs_indicator(lam, -n) == m0_over_d + gam[-n]


@pytest.mark.parametrize("d,t", [(2, 3), (3, 3), (4, 2), (5, 2)])
def test_gamma_symmetric_in_k(d, t):
    for lam in rc.enumerate_lambda_set(d, t):
        gam = rc.gamma_coefficients(lam)
        for k in range(1, d + 1):
            assert gam[k] == gam[-k]


def test_gamma_pinned_d8():
    # exact gamma of every label of (8, 3), the five of (8, 2) among them,
    # as computed by the Kostant alternating sum over all 8! permutations
    pinned = json.loads((Path(__file__).parent / "gamma_d8.json").read_text())
    labels = rc.enumerate_lambda_set(8, 3)
    assert sorted(pinned) == sorted(" ".join(map(str, lam.entries)) for lam in labels)
    for lam in labels:
        gam = rc.gamma_coefficients(lam)
        expect = pinned[" ".join(map(str, lam.entries))]
        assert {str(k): str(v) for k, v in gam.items()} == expect, lam


def test_gamma_d2_values():
    gam = rc.gamma_coefficients((2, -2))
    assert gam[0] == Fraction(4, 5)
    assert gam[1] == Fraction(-1, 5)
    assert gam[2] == 0


# ---------------------------------------------------------------------------
# label conversion
# ---------------------------------------------------------------------------

def test_to_dynkin_simple():
    assert rc.to_dynkin((1, 0, -1)).entries == (1, 1)


def test_to_u_weight_canonical():
    assert rc.to_u_weight((2,)).entries == (1, -1)


def test_to_u_weight_divisibility_failure():
    with pytest.raises(ValueError):
        rc.to_u_weight((1,))


@pytest.mark.parametrize("d,t", [(2, 3), (3, 3), (4, 2)])
def test_dynkin_round_trip(d, t):
    for lam in rc.enumerate_lambda_set(d, t):
        dyn = rc.to_dynkin(lam)
        assert rc.to_u_weight(dyn).entries == lam.entries


def test_round_trip_preserves_su_irrep_for_shifted_lift():
    # lifts differing by the trace part restrict to the same SU(d) irrep
    dyn = rc.to_dynkin((2, 0, -1, -1))
    shifted = rc.to_u_weight(dyn, m=5)
    assert rc.to_dynkin(shifted).entries == dyn.entries
