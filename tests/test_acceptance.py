"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Statistical criteria use fixed seeds and 3-sigma tolerances; timing
budgets are measured after a warm-up call has imported and run the Bessel
and bound kernels once.
"""
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from gatedesign import bounds as bd
from gatedesign import montecarlo as mc
from gatedesign import repcore as rc
from gatedesign import solver
from gatedesign.bounds import GateSetKind, Method
from gatedesign.specfun import bessel_ratio_bounds, log_bessel_i

DELTA, PROB = 0.5, 0.99
THRESHOLD = 1.0 - PROB


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    bd.total_bound(2, 2, GateSetKind.SYMMETRIC, 10, 0.5, Method.MASTER_SYMMETRIC)
    log_bessel_i(3, 123.0)


# ---------------------------------------------------------------------------
# criterion 1: published minimal sizes, exact integers
# ---------------------------------------------------------------------------

def _row(d, ts, method):
    out = []
    for t in ts:
        res = solver.min_size_search(d, t, DELTA, PROB, method)
        out.append(res.n_pairs if method.kind is GateSetKind.SYMMETRIC else res.S_min)
    return out


def test_criterion_1_table_rows():
    t_d2 = (2, 3, 4, 5, 20, 500, 5000)
    start = time.perf_counter()
    master_d2 = _row(2, t_d2, Method.MASTER_PLAIN)
    t_master = time.perf_counter() - start
    start = time.perf_counter()
    bern_d2 = _row(2, t_d2, Method.BERNSTEIN_PLAIN)
    t_bern = time.perf_counter() - start
    start = time.perf_counter()
    bern_sym_d2 = _row(2, (2, 3, 4, 5), Method.BERNSTEIN_SYMMETRIC)
    t_bsym = time.perf_counter() - start
    start = time.perf_counter()
    master_d64 = _row(64, (2, 3, 4, 5), Method.MASTER_PLAIN)
    t_d64 = time.perf_counter() - start

    ok = (
        master_d2 == [57, 62, 65, 68, 88, 136, 171]
        and bern_d2 == [69, 75, 80, 83, 107, 166, 209]
        and bern_sym_d2 == [47, 50, 52, 53]
        and master_d64 == [168, 226, 282, 336]
        and t_master < 10.0
        and t_bern < 10.0
        and t_bsym < 10.0
        and t_d64 < 300.0
    )
    report(
        "1 (table rows)",
        ok,
        f"master d=2 {master_d2} in {t_master:.2f}s; bernstein d=2 {bern_d2} in "
        f"{t_bern:.2f}s; sym bernstein {bern_sym_d2} in {t_bsym:.2f}s; "
        f"master d=64 {master_d64} in {t_d64:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: symmetric master cells (exact, or +-1 with attribution)
# ---------------------------------------------------------------------------

def test_criterion_2_symmetric_master_cells():
    cells = [((2, 2), 36), ((2, 3), 37), ((2, 4), 39), ((2, 5), 40), ((4, 2), 41)]
    details = []
    ok = True
    for (d, t), expected in cells:
        res = solver.min_size_search(d, t, DELTA, PROB, Method.MASTER_SYMMETRIC)
        n = res.n_pairs
        if n == expected:
            details.append(f"d={d},t={t}: n={n}")
            continue
        if abs(n - expected) != 1:
            ok = False
            details.append(f"d={d},t={t}: n={n} != {expected}")
            continue
        # the cell is decided inside the infimum-evaluation band: at the
        # smaller candidate the exact infimum passes the threshold while the
        # theta0 plug-in (the loosest legitimate evaluation) does not
        n_lo = min(n, expected)
        objs = {}
        for cand in (n_lo, n_lo + 1):
            full = bd.total_bound(d, t, GateSetKind.SYMMETRIC, 2 * cand, DELTA, Method.MASTER_SYMMETRIC)
            simp = bd.total_bound(
                d, t, GateSetKind.SYMMETRIC, 2 * cand, DELTA, Method.MASTER_SYMMETRIC_SIMPLIFIED
            )
            objs[cand] = (full.raw, simp.raw)
        attributable = objs[n_lo][0] <= THRESHOLD < objs[n_lo][1]
        ok = ok and attributable
        details.append(
            f"d={d},t={t}: n={n} vs published {expected}, +-1 attributed to the "
            f"infimum tolerance: objective at n={n_lo} is {objs[n_lo][0]:.6g} (full) / "
            f"{objs[n_lo][1]:.6g} (theta0) around threshold {THRESHOLD}; at n={n_lo + 1}: "
            f"{objs[n_lo + 1][0]:.6g} / {objs[n_lo + 1][1]:.6g}"
        )
    report("2 (symmetric master cells)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 3: closed-form identities
# ---------------------------------------------------------------------------

def test_criterion_3_closed_forms():
    dims_ok = all(rc.sum_dimensions(d, 2) == d**4 - 3 * d**2 + 1 for d in (4, 8, 16, 32, 64))
    count_ok = all(len(rc.enumerate_lambda_set(d, 2)) == 5 for d in (4, 5, 8, 16, 64))
    alpha_ok = all(
        rc.count_irreps_by_norm(d, k) == rc.partition_count(k) ** 2
        for k in range(1, 7)
        for d in (2 * k, 2 * k + 1, 2 * k + 5)
    )
    report(
        "3 (closed-form identities)",
        dims_ok and count_ok and alpha_ok,
        f"dimension sums {dims_ok}, label counts {count_ok}, alpha=p(k)^2 {alpha_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 4: multiplicity oracle equivalence
# ---------------------------------------------------------------------------

def _weight_box(lam):
    r = lam.norm1 // 2 + 1
    for mu in itertools.product(range(-r, r + 1), repeat=lam.d - 1):
        last = -sum(mu)
        if abs(last) <= r + 1:
            yield mu + (last,)


def test_criterion_4_oracle_equivalence():
    pairs = 0
    sums_ok = True
    for d in (2, 3, 4):
        for lam in rc.enumerate_lambda_set(d, 4):  # positive part <= 4 <=> norm <= 8
            total = 0
            for mu in _weight_box(lam):
                a = rc.weight_multiplicity(lam, mu)
                b = oracles.freudenthal_multiplicity(lam, mu)
                assert a == b, (lam.entries, mu, a, b)
                pairs += 1
                total += a
            sums_ok = sums_ok and total == rc.weyl_dimension(lam)
    report(
        "4 (Kostka vs Freudenthal)",
        pairs >= 500 and sums_ok,
        f"{pairs} pairs agree; weight sums match dimensions: {sums_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 5: Frobenius-Schur closed forms
# ---------------------------------------------------------------------------

def _lemma_su2(label, n):
    if n == 0:
        return Fraction(1)
    if abs(n) == 1:
        return Fraction(0)
    if label % 2 == 0:
        return Fraction(1, label + 1)
    return Fraction(-1, label + 1) if abs(n) == 2 else Fraction(0)


def test_criterion_5_fs_closed_forms():
    su2_ok = all(
        rc.fs_indicator(rc.to_u_weight((label,), m=0), n) == _lemma_su2(label, n)
        for label in range(1, 21)
        for n in range(-10, 11)
    )
    shortcut_ok = True
    for d in range(2, 7):
        for lam in rc.enumerate_lambda_set(d, 2):
            m0_over_d = Fraction(rc.zero_weight_multiplicity(lam), rc.weyl_dimension(lam))
            for n in (d + 1, -(d + 1), d + 3):
                shortcut_ok = shortcut_ok and rc.fs_indicator(lam, n) == m0_over_d
                shortcut_ok = shortcut_ok and (
                    Fraction(rc._fs_weyl_sum(lam, abs(n)), rc.weyl_dimension(lam)) == m0_over_d
                )
    report(
        "5 (Frobenius-Schur closed forms)",
        su2_ok and shortcut_ok,
        f"SU(2) closed form {su2_ok}; |n|>=d+1 shortcut {shortcut_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 6: Bessel quality
# ---------------------------------------------------------------------------

def test_criterion_6_bessel():
    contain_ok = True
    for n in range(1, 21):
        for x in (0.1, 1.0, 10.0, 100.0, 1000.0):
            lo, hi = bessel_ratio_bounds(n, x)
            ratio = math.exp(log_bessel_i(n, x) - log_bessel_i(n - 1, x))
            contain_ok = contain_ok and lo < ratio < hi
    norm_ok = True
    for x in (1.0, 10.0, 100.0):
        total = sum(
            (2.0 if k else 1.0) * math.exp(log_bessel_i(k, x) - x)
            for k in range(int(x) + 60)
        )
        norm_ok = norm_ok and abs(total - 1.0) < 1e-10
    report("6 (Bessel quality)", contain_ok and norm_ok,
           f"ratio containment {contain_ok}, normalization {norm_ok}")


# ---------------------------------------------------------------------------
# criterion 7: Monte Carlo dominance
# ---------------------------------------------------------------------------

def test_criterion_7_mc_dominance():
    configs = [
        (2, 2, 10, GateSetKind.PLAIN),
        (2, 2, 20, GateSetKind.SYMMETRIC),
        (2, 3, 20, GateSetKind.PLAIN),
        (3, 2, 20, GateSetKind.PLAIN),
    ]
    start = time.perf_counter()
    details = []
    ok = True
    for i, (d, t, S, kind) in enumerate(configs):
        est = mc.empirical_tail(d, t, kind, S, 0.7, trials=200, seed=1000 + i)
        for delta in (0.7, 0.9):
            hits = sum(1 for v in est.deltas if v >= delta)
            frac = hits / len(est.deltas)
            stderr = math.sqrt(frac * (1 - frac) / len(est.deltas))
            for method in bd.methods_for_kind(kind):
                prob = bd.total_bound(d, t, kind, S, delta, method).probability
                good = frac <= prob + 3.0 * stderr
                ok = ok and good
                if not good:
                    details.append(
                        f"({d},{t},{S},{kind.value}) delta={delta} {method.value}: "
                        f"tail {frac:.3f} > bound {prob:.3f} + 3*{stderr:.3f}"
                    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    report("7 (MC dominance)", ok, f"all configs dominated in {elapsed:.1f}s"
           + ("; " + "; ".join(details) if details else ""))


# ---------------------------------------------------------------------------
# criterion 8: SU(2) character Monte Carlo
# ---------------------------------------------------------------------------

def test_criterion_8_su2_character_mc():
    cases = [(2, 2, 1.0 / 3.0), (1, 2, -0.5), (1, 3, 0.0)]
    details = []
    ok = True
    for j2, n, expect in cases:
        mean, err = mc.estimate_fs_indicator_mc(j2, n, trials=100000, seed=77)
        good = abs(mean - expect) < 3.0 * err
        ok = ok and good
        details.append(f"label {j2}, n={n}: {mean:.5f} vs {expect:.5f} (3s={3 * err:.5f})")
    report("8 (SU(2) character MC)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 9: structural/property suites
# ---------------------------------------------------------------------------

def test_criterion_9_property_suite():
    start = time.perf_counter()
    # label-set counting identity
    count_ok = all(
        len(rc.enumerate_lambda_set(d, t))
        == sum(rc.count_irreps_by_norm(d, k) for k in range(1, t + 1))
        for d in range(2, 7)
        for t in range(1, 7)
    )
    # bound monotonicity in S and delta
    mono_ok = True
    for S1, S2 in [(20, 40), (40, 80)]:
        a = bd.total_bound(2, 2, GateSetKind.PLAIN, S1, 0.5, Method.MASTER_PLAIN).log_bound
        b = bd.total_bound(2, 2, GateSetKind.PLAIN, S2, 0.5, Method.MASTER_PLAIN).log_bound
        mono_ok = mono_ok and b < a
    for d1, d2 in [(0.3, 0.5), (0.5, 0.7)]:
        a = bd.total_bound(2, 2, GateSetKind.PLAIN, 50, d1, Method.MASTER_PLAIN).log_bound
        b = bd.total_bound(2, 2, GateSetKind.PLAIN, 50, d2, Method.MASTER_PLAIN).log_bound
        mono_ok = mono_ok and b < a
    # infimum below the theta0 plug-in
    inf_ok = True
    for lam, S in [((1, -1), 30), ((2, -2), 60), ((1, 0, -1), 40)]:
        q = bd.BoundQuery(
            d=len(lam), kind=GateSetKind.SYMMETRIC, S=S, delta=0.5, lam=rc.HighestWeight(lam)
        )
        inf_ok = inf_ok and (
            bd.master_bound_symmetric(q).log_bound
            <= bd.master_bound_symmetric_simplified(q).log_bound + 1e-9
        )
    # projector idempotency
    proj_ok = True
    for d, t in [(2, 2), (2, 3), (3, 2)]:
        p = mc.HaarProjector(d, t)
        dim = d ** (2 * t)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        proj_ok = proj_ok and np.linalg.norm(p.apply(p.apply(v)) - p.apply(v)) < 1e-8
    # delta estimates in range and monotone in t
    est_ok = True
    for seed in range(3):
        s = mc.sample_gate_set(2, 5, GateSetKind.PLAIN, seed=(55, seed))
        d1 = mc.estimate_delta(s, 1)
        d2 = mc.estimate_delta(s, 2)
        d3 = mc.estimate_delta(s, 3)
        est_ok = est_ok and all(0 <= v <= 1 + 1e-8 for v in (d1, d2, d3))
        est_ok = est_ok and d2 >= d1 - 1e-8 and d3 >= d2 - 1e-8
    elapsed = time.perf_counter() - start
    ok = count_ok and mono_ok and inf_ok and proj_ok and est_ok and elapsed < 180.0
    report(
        "9 (property suite)",
        ok,
        f"counting {count_ok}, monotone {mono_ok}, infimum {inf_ok}, projector "
        f"{proj_ok}, delta estimates {est_ok}, in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# figure data: qualitative orderings (not a numbered criterion)
# ---------------------------------------------------------------------------

def test_figure_orderings():
    ok = True
    # plain and symmetric master tighter than the matching Bernstein bound
    for d, t, S in [(2, 5, 50), (4, 5, 50), (2, 2, 100)]:
        for delta in (0.3, 0.5, 0.7):
            mp = bd.total_bound(d, t, GateSetKind.PLAIN, S, delta, Method.MASTER_PLAIN)
            bp = bd.total_bound(d, t, GateSetKind.PLAIN, S, delta, Method.BERNSTEIN_PLAIN)
            ok = ok and mp.log_bound <= bp.log_bound
            ms = bd.total_bound(d, t, GateSetKind.SYMMETRIC, 2 * S, delta, Method.MASTER_SYMMETRIC)
            bs = bd.total_bound(
                d, t, GateSetKind.SYMMETRIC, 2 * S, delta, Method.BERNSTEIN_SYMMETRIC
            )
            ok = ok and ms.log_bound <= bs.log_bound
    report("figures (dominance orderings)", ok)
