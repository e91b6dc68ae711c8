"""Monte Carlo machinery tests.

Dense linear algebra at tiny dimensions serves as the oracle for the
matrix-free operators; statistical checks use fixed seeds and 3-sigma
tolerances.
"""
import itertools
import math
import re

import numpy as np
import pytest

import oracles
from gatedesign import bounds as bd
from gatedesign import montecarlo as mc
from gatedesign import repcore as rc
from gatedesign.bounds import GateSetKind, Method


def dense_of(apply_fn, dim):
    """Materialize a matrix-free operator column by column."""
    out = np.empty((dim, dim), dtype=complex)
    for j in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[j] = 1.0
        out[:, j] = apply_fn(e)
    return out


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def test_sample_haar_unitary_and_det():
    rng = np.random.default_rng(7)
    u = mc.sample_haar(5, rng, 3)
    assert u.shape == (3, 5, 5)
    for g in u:
        assert np.linalg.norm(g.conj().T @ g - np.eye(5)) < 1e-10
    v = mc.sample_haar(5, rng, 3, special=True)
    for g in v:
        assert abs(np.linalg.det(g) - 1.0) < 1e-10


def test_sample_haar_first_moment_vanishes():
    rng = np.random.default_rng(11)
    n = 10000
    total = mc.sample_haar(2, rng, n).sum(axis=0)
    assert np.abs(total / n).max() < 5e-2


def test_sample_haar_second_moment_and_invariance():
    # E|U_11|^2 = 1/d; |U_11|^2 is uniform on [0,1] at d=2 (var 1/12)
    rng = np.random.default_rng(13)
    n = 10000
    fixed = mc.sample_haar(2, np.random.default_rng(99), 1)[0]
    u = mc.sample_haar(2, rng, n)
    plain = np.abs(u[:, 0, 0]) ** 2
    rotated = np.abs((fixed @ u)[:, 0, 0]) ** 2
    sigma = math.sqrt(1.0 / 12.0 / n)
    assert abs(plain.mean() - 0.5) < 3 * sigma
    assert abs(rotated.mean() - 0.5) < 3 * sigma


# ---------------------------------------------------------------------------
# gate-set sampling
# ---------------------------------------------------------------------------

def test_plain_sample_validates():
    s = mc.sample_gate_set(3, 4, GateSetKind.PLAIN, seed=1)
    assert s.size == 4
    s.validate()


def test_symmetric_sample_has_exact_inverses():
    s = mc.sample_gate_set(2, 5, GateSetKind.SYMMETRIC, seed=2)
    assert s.size == 10
    s.validate()


def test_beamsplitter_sample_count_and_unitarity():
    s = mc.sample_gate_set(4, 2, GateSetKind.BEAMSPLITTER_LIFTED, seed=3)
    assert s.size == 2 * 4 * 3
    s.validate()
    # embedded two-mode gates keep determinant 1
    for u in s.unitaries:
        assert abs(np.linalg.det(u) - 1.0) < 1e-10
    with pytest.raises(ValueError):
        mc.sample_gate_set(2, 2, GateSetKind.BEAMSPLITTER_LIFTED, seed=3)


def single_haar_draw(d, rng, special=False):
    """One Ginibre + QR draw with the phases fixed, as the batched sampler does."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    if special:
        q = q * np.exp(-1j * np.angle(np.linalg.det(q)) / d)
    return q


@pytest.mark.parametrize("kind", ["plain", "symmetric", "beamsplitter"])
@pytest.mark.parametrize("seed", [0, (1001, 3)])
def test_sample_gate_set_matches_single_draws(kind, seed):
    # the batched draw takes the stream in the order of one draw per gate
    d, n = 3, 5
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if kind == "beamsplitter":
        want = []
        for _ in range(n):
            b = single_haar_draw(2, rng, special=True)
            for i in range(d):
                for j in range(d):
                    if i != j:
                        g = np.eye(d, dtype=complex)
                        g[np.ix_([i, j], [i, j])] = b
                        want.append(g)
    else:
        want = [single_haar_draw(d, rng) for _ in range(n)]
        if kind == "symmetric":
            want += [u.conj().T for u in want]
    want = np.asarray(want)
    got = mc.sample_gate_set(d, n, kind, seed=seed).unitaries
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["plain", "symmetric", "beamsplitter"])
def test_sample_gate_set_rejects_empty(kind):
    with pytest.raises(ValueError, match="n=0"):
        mc.sample_gate_set(3, 0, kind, seed=1)
    with pytest.raises(ValueError, match="d=0"):
        mc.sample_gate_set(0, 2, kind, seed=1)


def test_sampling_reproducible():
    a = mc.sample_gate_set(2, 3, GateSetKind.PLAIN, seed=42)
    b = mc.sample_gate_set(2, 3, GateSetKind.PLAIN, seed=42)
    np.testing.assert_array_equal(a.unitaries, b.unitaries)


# ---------------------------------------------------------------------------
# moment operator
# ---------------------------------------------------------------------------

#: (d, t, n, kind) beyond the d=2, t<=2 plain cases: d > 2, t > 2 and a lifted set
KRON_CASES = [(3, 2, 2, "plain"), (2, 3, 2, "plain"), (3, 2, 1, "beamsplitter")]


def test_moment_operator_matches_kron_oracle():
    s = mc.sample_gate_set(2, 3, GateSetKind.PLAIN, seed=5)
    op = mc.MomentOperator(s.unitaries, t=1)
    dense = dense_of(op.apply, 4)
    oracle = sum(np.kron(u, u.conj()) for u in s.unitaries) / 3
    assert np.linalg.norm(dense - oracle) < 1e-12
    for d, t, n, kind in KRON_CASES:
        s = mc.sample_gate_set(d, n, kind, seed=5)
        op = mc.MomentOperator(s.unitaries, t)
        dense = dense_of(op.apply, d ** (2 * t))
        assert np.linalg.norm(dense - kron_moment(s.unitaries, t)) < 1e-12, (d, t, kind)


def test_moment_operator_t2_matches_kron_oracle():
    s = mc.sample_gate_set(2, 2, GateSetKind.PLAIN, seed=6)
    op = mc.MomentOperator(s.unitaries, t=2)
    dense = dense_of(op.apply, 16)
    oracle = sum(
        np.kron(np.kron(u, u), np.kron(u.conj(), u.conj())) for u in s.unitaries
    ) / 2
    assert np.linalg.norm(dense - oracle) < 1e-12


def test_moment_operator_norm_nonincreasing():
    s = mc.sample_gate_set(3, 3, GateSetKind.PLAIN, seed=7)
    op = mc.MomentOperator(s.unitaries, t=1)
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        assert np.linalg.norm(op.apply(v)) <= np.linalg.norm(v) * (1 + 1e-12)


def test_moment_operator_adjoint_is_adjoint():
    rng = np.random.default_rng(1)
    for d, t, n, kind in [(2, 2, 2, "plain")] + KRON_CASES:
        s = mc.sample_gate_set(d, n, kind, seed=8)
        op = mc.MomentOperator(s.unitaries, t)
        for _ in range(3):
            u = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
            v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
            assert np.vdot(u, op.apply(v)) == pytest.approx(
                np.vdot(op.apply_adjoint(u), v), abs=1e-10
            ), (d, t, kind)


def test_symmetric_moment_operator_hermitian():
    s = mc.sample_gate_set(2, 4, GateSetKind.SYMMETRIC, seed=9)
    op = mc.MomentOperator(s.unitaries, t=2)
    rng = np.random.default_rng(2)
    for _ in range(4):
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.linalg.norm(op.apply(v) - op.apply_adjoint(v)) < 1e-10 * np.linalg.norm(v)


def test_dimension_cap():
    s = mc.sample_gate_set(2, 1, GateSetKind.PLAIN, seed=1)
    with pytest.raises(ValueError):
        mc.MomentOperator(s.unitaries, t=9)


# ---------------------------------------------------------------------------
# Haar projector
# ---------------------------------------------------------------------------

def test_projector_t1_rank_one_trace_one():
    p = mc.HaarProjector(3, 1)
    dense = dense_of(p.apply, 9)
    assert p.rank == 1
    assert np.trace(dense) == pytest.approx(1.0, abs=1e-12)
    # projector onto the maximally entangled vector
    vec = np.eye(3).reshape(-1) / math.sqrt(3)
    assert np.linalg.norm(dense - np.outer(vec, vec.conj())) < 1e-12


def test_projector_gram_d2_t2():
    p = mc.HaarProjector(2, 2)
    assert p.rank == 2
    np.testing.assert_allclose(p.gram, [[4.0, 2.0], [2.0, 4.0]])


def _cycles(perm):
    seen, count = set(), 0
    for start in perm:
        if start not in seen:
            count += 1
            k = start
            while k not in seen:
                seen.add(k)
                k = perm[k]
    return count


@pytest.mark.parametrize("d,t", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 5), (2, 6)])
def test_projector_gram_is_d_to_the_cycle_count(d, t):
    perms = np.array(list(itertools.permutations(range(t))))
    cycles = {tuple(p): _cycles(p) for p in perms}
    want = np.empty((len(perms), len(perms)))
    for a, sa in enumerate(perms):
        # row b composes sigma_b with sigma_a^-1
        for b, comp in enumerate(perms[:, np.argsort(sa)]):
            want[a, b] = float(d) ** cycles[tuple(comp)]
    np.testing.assert_array_equal(mc.HaarProjector(d, t).gram, want)


@pytest.mark.parametrize("d,t", [(2, 2), (2, 3), (3, 2)])
def test_projector_hermitian_idempotent(d, t):
    p = mc.HaarProjector(d, t)
    dense = dense_of(p.apply, d ** (2 * t))
    assert np.linalg.norm(dense - dense.conj().T) < 1e-8
    assert np.linalg.norm(dense @ dense - dense) < 1e-8


def test_projector_rank_deficient_when_t_exceeds_d():
    p = mc.HaarProjector(2, 3)
    assert p.rank == 5  # dim of span{P_sigma} for d=2, t=3 is below 3! = 6


def test_projector_commutes_with_gate_action():
    rng = np.random.default_rng(3)
    for d, t in [(2, 2), (3, 2)]:
        op = mc.MomentOperator(mc.sample_haar(d, rng, 1), t)
        p = mc.HaarProjector(d, t)
        v = rng.standard_normal(d ** (2 * t)) + 1j * rng.standard_normal(d ** (2 * t))
        lhs = op.apply(p.apply(v))
        rhs = p.apply(op.apply(v))
        assert np.linalg.norm(lhs - rhs) < 1e-8 * np.linalg.norm(v)


def test_projector_absorbed_by_moment_average():
    # T Pi = Pi for any gate average
    s = mc.sample_gate_set(2, 3, GateSetKind.PLAIN, seed=10)
    op = mc.MomentOperator(s.unitaries, 2)
    p = mc.HaarProjector(2, 2)
    rng = np.random.default_rng(4)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    assert np.linalg.norm(op.apply(p.apply(v)) - p.apply(v)) < 1e-8


# ---------------------------------------------------------------------------
# delta estimation
# ---------------------------------------------------------------------------

def test_delta_identity_set_is_one():
    s = mc.GateSetSample(np.asarray([np.eye(2, dtype=complex)]), GateSetKind.PLAIN, seed=0)
    for t in (1, 2, 3):
        assert mc.estimate_delta(s, t) == pytest.approx(1.0, abs=1e-7)


def test_delta_single_gate_t1_is_one():
    s = mc.sample_gate_set(2, 1, GateSetKind.PLAIN, seed=11)
    assert mc.estimate_delta(s, 1) == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("d,t,n,seed", [(2, 2, 3, 12), (2, 2, 8, 13), (3, 1, 4, 14), (2, 3, 5, 15)])
def test_delta_matches_dense_svd_oracle(d, t, n, seed):
    s = mc.sample_gate_set(d, n, GateSetKind.PLAIN, seed=seed)
    op = mc.MomentOperator(s.unitaries, t)
    p = mc.HaarProjector(d, t)
    dim = d ** (2 * t)
    dense = dense_of(op.apply, dim) - dense_of(p.apply, dim)
    oracle = np.linalg.svd(dense, compute_uv=False)[0]
    delta, info = mc.estimate_delta(s, t, return_info=True)
    assert delta == pytest.approx(oracle, abs=1e-6)
    assert info["iterations"] <= d ** (2 * t)


@pytest.mark.parametrize("trial", [184, 3])
def test_delta_near_degenerate_symmetric_trials_match_dense_svd(trial):
    # criterion 7's symmetric (2, 2, 20) config: trial 184 has a relative
    # gap of 8e-5 between its top two singular values, trial 3 a threefold
    # top singular value
    s = mc.sample_gate_set(2, 10, GateSetKind.SYMMETRIC, seed=(1001, trial))
    op = mc.MomentOperator(s.unitaries, 2)
    p = mc.HaarProjector(2, 2)
    dense = dense_of(op.apply, 16) - dense_of(p.apply, 16)
    oracle = np.linalg.svd(dense, compute_uv=False)[0]
    delta, info = mc.estimate_delta(s, 2, return_info=True)
    assert delta == pytest.approx(oracle, abs=1e-10)
    # the residual bounds |delta^2 - oracle^2|, rounding included
    assert abs(delta**2 - oracle**2) <= info["residual"]


def kron_moment(unitaries, t):
    """(1/S) sum_U U^{(x)t} (x) conj(U)^{(x)t}, built with np.kron."""
    total = 0
    for u in unitaries:
        m = np.ones((1, 1), dtype=complex)
        for f in [u] * t + [u.conj()] * t:
            m = np.kron(m, f)
        total = total + m
    return total / len(unitaries)


@pytest.mark.parametrize(
    "d, t, n, kind",
    [(2, 1, 3, "plain"), (2, 2, 5, "plain"), (3, 1, 4, "plain"),
     (2, 2, 5, "symmetric"), (3, 2, 4, "plain"), (2, 3, 4, "plain")],
)
def test_reported_residual_covers_rounding(d, t, n, kind):
    # the stop residual beta_k |s_k| can fall far below the few-ulp rounding
    # error of delta^2 (to ~1e-41 at (3, 1, 4)); the reported residual must
    # still cover that error
    p = mc.HaarProjector(d, t)
    projector = dense_of(p.apply, d ** (2 * t))
    for seed in range(12):
        s = mc.sample_gate_set(d, n, kind, seed=seed)
        oracle = np.linalg.svd(kron_moment(s.unitaries, t) - projector, compute_uv=False)[0]
        delta, info = mc.estimate_delta(s, t, return_info=True)
        assert abs(delta**2 - oracle**2) <= info["residual"], seed


def single_qubit_clifford_group():
    """Closure of {H, S} under multiplication, modulo global phase."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    s = np.diag([1, 1j])

    def key(u):
        first = u.flat[np.flatnonzero(np.abs(u) > 1e-6)[0]]
        return tuple(np.round(u.ravel() * (abs(first) / first), 8))

    group = {key(np.eye(2)): np.eye(2, dtype=complex)}
    frontier = list(group.values())
    while frontier:
        grown = []
        for g in frontier:
            for gen in (h, s):
                u = gen @ g
                if key(u) not in group:
                    group[key(u)] = u
                    grown.append(u)
        frontier = grown
    return np.array(list(group.values()))


def test_delta_clifford_group_is_a_2_design():
    # delta is exactly 0; the iteration must stop instead of raising
    gates = single_qubit_clifford_group()
    assert len(gates) == 24
    sample = mc.GateSetSample(gates, GateSetKind.PLAIN, seed=0)
    assert mc.estimate_delta(sample, 2) < 1e-6


def test_power_iteration_error_reports_last_change(monkeypatch):
    monkeypatch.setattr(mc, "MAX_LANCZOS_STEPS", 2)
    s = mc.sample_gate_set(2, 3, GateSetKind.PLAIN, seed=12)
    with pytest.raises(mc.PowerIterationError) as err:
        mc.estimate_delta(s, 2)
    residual = float(str(err.value).split("residual ")[1].rstrip(")"))
    assert residual > 0.0


def test_delta_in_unit_interval_and_monotone_in_t():
    for seed in range(5):
        s = mc.sample_gate_set(2, 6, GateSetKind.PLAIN, seed=(100, seed))
        d1 = mc.estimate_delta(s, 1)
        d2 = mc.estimate_delta(s, 2)
        d3 = mc.estimate_delta(s, 3)
        for v in (d1, d2, d3):
            assert 0.0 <= v <= 1.0 + 1e-8
        assert d2 >= d1 - 1e-8
        assert d3 >= d2 - 1e-8


def test_mean_delta_below_half_probability_crossing():
    # d=2, t=2, S=50: the observed mean sits below the delta where the
    # plain master total bound reaches 1/2
    vals = []
    for seed in range(100):
        s = mc.sample_gate_set(2, 50, GateSetKind.PLAIN, seed=(7, seed))
        vals.append(mc.estimate_delta(s, 2))
    mean = float(np.mean(vals))
    sem = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    lo, hi = 1e-6, 1 - 1e-9
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bd.total_bound(2, 2, GateSetKind.PLAIN, 50, mid, Method.MASTER_PLAIN).raw > 0.5:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    assert mean + 3 * sem < crossing


# ---------------------------------------------------------------------------
# empirical tails
# ---------------------------------------------------------------------------

def test_tail_edges():
    est = mc.empirical_tail(2, 1, GateSetKind.PLAIN, 3, 1e-9, trials=5, seed=21)
    assert est.fraction == 1.0
    est = mc.empirical_tail(2, 1, GateSetKind.PLAIN, 3, 1.0 - 1e-9, trials=5, seed=21)
    assert est.fraction == 0.0 and est.stderr == 0.0


@pytest.mark.parametrize("d,t,kind,delta,message", [
    (2, 2, GateSetKind.PLAIN, 1.5, "need 0 < delta < 1, got delta=1.5"),
    (2, 2, GateSetKind.PLAIN, 0.0, "need 0 < delta < 1, got delta=0.0"),
    (3, 1, GateSetKind.BEAMSPLITTER_LIFTED, -1.0, "need 0 < delta < 1, got delta=-1.0"),
    (2, 0, GateSetKind.PLAIN, 0.5, "need t >= 1, got t=0"),
    (1, 2, GateSetKind.PLAIN, 0.5, "need d >= 2, got d=1"),
])
def test_tail_rejects_bad_inputs_before_any_trial(monkeypatch, d, t, kind, delta, message):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(mc, "estimate_delta", no_trial)
    with pytest.raises(ValueError, match=re.escape(message)):
        mc.empirical_tail(d, t, kind, 4, delta, trials=3, seed=1)


def test_tail_reproducible_and_jsonl(tmp_path):
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    e1 = mc.empirical_tail(2, 2, GateSetKind.PLAIN, 5, 0.8, trials=8, seed=5, jsonl_path=p1)
    e2 = mc.empirical_tail(2, 2, GateSetKind.PLAIN, 5, 0.8, trials=8, seed=5, jsonl_path=p2)
    assert e1.deltas == e2.deltas
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert len(lines) == 8
    assert '"delta"' in lines[0] and '"iterations"' in lines[0]


def test_tail_respects_symmetric_parity():
    with pytest.raises(ValueError):
        mc.empirical_tail(2, 2, GateSetKind.SYMMETRIC, 5, 0.5, trials=2, seed=1)


def test_tail_below_clipped_bound_smoke():
    est = mc.empirical_tail(2, 2, GateSetKind.PLAIN, 10, 0.9, trials=50, seed=33)
    bound = bd.total_bound(2, 2, GateSetKind.PLAIN, 10, 0.9, Method.MASTER_PLAIN)
    assert est.fraction <= bound.probability + 3 * est.stderr


# ---------------------------------------------------------------------------
# SU(2) irreps (the oracle) and the character Monte Carlo
# ---------------------------------------------------------------------------

def test_su2_trivial_and_defining():
    u = mc.sample_haar(2, np.random.default_rng(1), 1, special=True)[0]
    assert oracles.su2_irrep_matrix(0, u).shape == (1, 1)
    assert oracles.su2_irrep_matrix(0, u)[0, 0] == pytest.approx(1.0)
    np.testing.assert_allclose(oracles.su2_irrep_matrix(1, u), u, atol=1e-12)


def test_su2_diagonal_weights():
    phi = 0.7
    u = np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
    m = oracles.su2_irrep_matrix(2, u)
    np.testing.assert_allclose(
        m, np.diag([np.exp(2j * phi), 1.0, np.exp(-2j * phi)]), atol=1e-12
    )


@pytest.mark.parametrize("j2", [1, 2, 3, 5])
def test_su2_multiplicative_and_unitary(j2):
    rng = np.random.default_rng(17)
    u, v = mc.sample_haar(2, rng, 2, special=True)
    pu = oracles.su2_irrep_matrix(j2, u)
    pv = oracles.su2_irrep_matrix(j2, v)
    puv = oracles.su2_irrep_matrix(j2, u @ v)
    assert np.linalg.norm(puv - pu @ pv) < 1e-10
    assert np.linalg.norm(pu.conj().T @ pu - np.eye(j2 + 1)) < 1e-10


@pytest.mark.parametrize("j2", [1, 2, 4])
def test_su2_character_matches_weyl_formula(j2):
    rng = np.random.default_rng(19)
    for _ in range(3):
        phi = rng.uniform(0.1, 3.0)
        u = np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
        chi = np.trace(oracles.su2_irrep_matrix(j2, u))
        weyl = math.sin((j2 + 1) * phi) / math.sin(phi)
        assert chi.real == pytest.approx(weyl, abs=1e-10)
        assert abs(chi.imag) < 1e-10


def test_fs_indicator_mc_small():
    mean, err = mc.estimate_fs_indicator_mc(2, 2, trials=20000, seed=3)
    assert abs(mean - 1.0 / 3.0) < 3 * err
    mean, err = mc.estimate_fs_indicator_mc(1, 2, trials=20000, seed=4)
    assert abs(mean - (-0.5)) < 3 * err
    mean, err = mc.estimate_fs_indicator_mc(1, 3, trials=20000, seed=5)
    assert abs(mean) < 3 * err


def test_fs_indicator_mc_agrees_with_exact():
    lam = rc.to_u_weight((2,))  # (1, -1)
    exact = float(rc.fs_indicator(lam, 2))
    mean, err = mc.estimate_fs_indicator_mc(2, 2, trials=20000, seed=6)
    assert abs(mean - exact) < 3 * err


def test_fs_indicator_mc_characters_match_irrep_traces():
    # redraw each run's elements from its seed and take the traces of the
    # explicit irrep matrices: the mean and stderr must follow
    trials = 12
    for j2 in range(9):
        for n in range(-3, 4):
            rng = np.random.default_rng(np.random.SeedSequence((5, j2, n & 0xFFFF)))
            us = mc.sample_haar(2, rng, trials, special=True)
            vals = np.array([
                np.trace(oracles.su2_irrep_matrix(j2, np.linalg.matrix_power(u, n))).real
                for u in us
            ]) / (j2 + 1)
            mean, err = mc.estimate_fs_indicator_mc(j2, n, trials=trials, seed=5)
            assert abs(mean - vals.mean()) < 1e-12, (j2, n)
            assert abs(err - vals.std(ddof=1) / math.sqrt(trials)) < 1e-12, (j2, n)


def test_fs_indicator_mc_rejects_negative_label():
    with pytest.raises(ValueError, match="j2 >= 0"):
        mc.estimate_fs_indicator_mc(-1, 2, trials=10, seed=1)
