"""Imaginary-time propagation against dense matrix exponentials."""

import numpy as np
import pytest
import scipy.linalg

import dense_reference as ref
from spintherm.hamiltonian import ModelSpec, build_hamiltonian, expectation
from spintherm.hilbert import StateVector, basis_state
from spintherm.imagtime import (
    BetaGrid,
    OrderExhaustedError,
    PropagatorConfig,
    evolve,
    evolve_with_checkpoints,
)
from spintherm.state_prep import SampleSeed, sample_haar

CASES = [
    (ModelSpec(kind="heisenberg", L=5, J=1.3), lambda: ref.heisenberg_matrix(5, J=1.3)),
    (ModelSpec(kind="xxz_staggered", L=5, J=1.1, delta=5.0, h_stag=0.7),
     lambda: ref.xxz_staggered_matrix(5, J=1.1, delta=5.0, h_stag=0.7)),
    (ModelSpec(kind="transverse_ising", L=5, J=0.9, h_x=1.2),
     lambda: ref.transverse_ising_matrix(5, J=0.9, h_x=1.2)),
    (ModelSpec(kind="mixed_ising", L=5, J=1.0, h_x=1.5, h_z=0.5),
     lambda: ref.mixed_ising_matrix(5, h_x=1.5, h_z=0.5)),
]


def test_theta_zero_is_identity():
    terms = build_hamiltonian(ModelSpec(kind="heisenberg", L=4, J=1.0))
    state = sample_haar(4, SampleSeed(0, 0))
    out = evolve(state, terms, 0.0)
    assert np.array_equal(out.amplitudes, state.amplitudes)
    assert out.log_norm_offset == state.log_norm_offset


@pytest.mark.parametrize("spec,matrix", CASES, ids=[c[0].kind for c in CASES])
@pytest.mark.parametrize("theta", [0.1, 1.5])
def test_evolve_matches_dense_expm(spec, matrix, theta):
    terms = build_hamiltonian(spec)
    state = sample_haar(spec.L, SampleSeed(13, 0))
    raw = scipy.linalg.expm(-theta * matrix()) @ state.amplitudes
    nrm = np.linalg.norm(raw)
    out = evolve(state, terms, theta)
    assert np.max(np.abs(out.amplitudes - raw / nrm)) <= 1e-10
    assert out.log_norm_offset - state.log_norm_offset == pytest.approx(np.log(nrm), abs=1e-10)


def test_semigroup_property():
    terms = build_hamiltonian(ModelSpec(kind="heisenberg", L=6, J=1.0))
    state = sample_haar(6, SampleSeed(21, 0))
    once = evolve(state, terms, 1.1)
    twice = evolve(evolve(state, terms, 0.4), terms, 0.7)
    assert np.max(np.abs(once.amplitudes - twice.amplitudes)) <= 1e-11
    assert once.log_norm_offset == pytest.approx(twice.log_norm_offset, abs=1e-11)


def test_ground_state_is_fixed_point():
    spec = ModelSpec(kind="heisenberg", L=4, J=1.0)
    matrix = ref.heisenberg_matrix(4)
    energies, vectors = np.linalg.eigh(matrix)
    ground = StateVector(vectors[:, 0].astype(complex), 0.0, 4)
    out = evolve(ground, build_hamiltonian(spec), 2.0)
    overlap = abs(np.vdot(out.amplitudes, ground.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-11)
    assert out.log_norm_offset == pytest.approx(-2.0 * energies[0], abs=1e-9)


def test_energy_decreases_along_checkpoints():
    spec = ModelSpec(kind="heisenberg", L=8, J=1.0)
    terms = build_hamiltonian(spec)
    state = sample_haar(8, SampleSeed(5, 0))
    grid = BetaGrid.uniform(0.5, 4.0, 0.5)
    rows = evolve_with_checkpoints(state, terms, grid, terms)
    obs = [row[2] for row in rows]
    assert all(b < a + 1e-12 for a, b in zip(obs, obs[1:]))


def test_single_checkpoint_equals_direct_evolve():
    spec = ModelSpec(kind="mixed_ising", L=6, J=1.0, h_x=1.0, h_z=1.0)
    terms = build_hamiltonian(spec)
    state = sample_haar(6, SampleSeed(8, 0))
    rows = evolve_with_checkpoints(state, terms, BetaGrid((3.0,)), terms)
    direct = evolve(state, terms, 1.5)
    beta, log_sq_norm, obs = rows[0]
    assert beta == 3.0
    assert log_sq_norm == 2.0 * (direct.log_norm_offset - state.log_norm_offset)
    assert obs == expectation(terms, direct)


def test_walk_equals_chained_evolve_and_bounds_the_operator_once(monkeypatch):
    import spintherm.imagtime as imagtime

    spec = ModelSpec(kind="mixed_ising", L=6, J=1.0, h_x=1.0, h_z=1.0)
    terms = build_hamiltonian(spec)
    state = sample_haar(6, SampleSeed(8, 1))
    grid = BetaGrid((0.5, 1.0, 3.0))
    chained, half_prev = [], 0.0
    current = state
    for beta in grid.checkpoints:
        current = evolve(current, terms, beta / 2.0 - half_prev)
        half_prev = beta / 2.0
        chained.append((beta, 2.0 * (current.log_norm_offset - state.log_norm_offset),
                        expectation(terms, current)))

    calls = []
    for name in ("spectral_bound", "trace_mean"):
        original = getattr(imagtime, name)
        monkeypatch.setattr(imagtime, name, lambda t, f=original, n=name: calls.append(n) or f(t))
    assert evolve_with_checkpoints(state, terms, grid, terms) == chained
    assert sorted(calls) == ["spectral_bound", "trace_mean"]


def test_checkpoint_log_norms_match_dense_boltzmann_factor():
    spec = ModelSpec(kind="heisenberg", L=8, J=1.0)
    terms = build_hamiltonian(spec)
    matrix = ref.heisenberg_matrix(8)
    energies, vectors = np.linalg.eigh(matrix)
    state = sample_haar(8, SampleSeed(40, 0))
    grid = BetaGrid.uniform(0.5, 3.0, 0.5)
    rows = evolve_with_checkpoints(state, terms, grid, terms)
    coeffs = np.abs(vectors.conj().T @ state.amplitudes) ** 2
    for beta, log_sq_norm, _ in rows:
        want = np.log(np.sum(coeffs * np.exp(-beta * (energies - energies[0])))) - beta * energies[0]
        assert log_sq_norm == pytest.approx(want, abs=1e-8)


def test_small_beta_limit_recovers_initial_energy():
    spec = ModelSpec(kind="heisenberg", L=6, J=1.0)
    terms = build_hamiltonian(spec)
    state = sample_haar(6, SampleSeed(3, 0))
    rows = evolve_with_checkpoints(state, terms, BetaGrid((1e-6,)), terms)
    assert abs(rows[0][2] - expectation(terms, state)) <= 1e-5 * 6


def test_order_exhaustion_raises():
    terms = build_hamiltonian(ModelSpec(kind="heisenberg", L=4, J=1.0))
    state = sample_haar(4, SampleSeed(0, 1))
    cfg = PropagatorConfig(max_order=8, substep_cap=50.0)
    with pytest.raises(OrderExhaustedError) as exc:
        evolve(state, terms, 5.0, cfg)
    assert exc.value.max_order == 8
    assert exc.value.residual > 0.0


def test_evolve_input_validation():
    terms = build_hamiltonian(ModelSpec(kind="heisenberg", L=4, J=1.0))
    state = sample_haar(4, SampleSeed(0, 0))
    with pytest.raises(ValueError, match="theta"):
        evolve(state, terms, -0.1)
    with pytest.raises(ValueError, match="sites"):
        evolve(sample_haar(5, SampleSeed(0, 0)), terms, 1.0)
    with pytest.raises(ValueError):
        PropagatorConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        PropagatorConfig(tolerance=1e-3)
    with pytest.raises(ValueError):
        PropagatorConfig(max_order=4)
    with pytest.raises(ValueError):
        PropagatorConfig(substep_cap=0.0)


def test_log_norms_are_relative_to_input_offset():
    # a pre-existing offset must not leak into the reported log square norms
    spec = ModelSpec(kind="heisenberg", L=4, J=1.0)
    terms = build_hamiltonian(spec)
    base = sample_haar(4, SampleSeed(60, 0))
    shifted = StateVector(base.amplitudes.copy(), 5.0, 4)
    grid = BetaGrid((1.0, 2.0))
    rows_a = evolve_with_checkpoints(base, terms, grid, terms)
    rows_b = evolve_with_checkpoints(shifted, terms, grid, terms)
    for (_, la, oa), (_, lb, ob) in zip(rows_a, rows_b):
        assert la == pytest.approx(lb, abs=1e-12)
        assert oa == pytest.approx(ob, abs=1e-12)


def test_beta_grid_uniform_and_lookup():
    grid = BetaGrid.uniform(0.1, 3.0, 0.1)
    assert len(grid.checkpoints) == 30
    assert grid.checkpoints[0] == pytest.approx(0.1)
    assert grid.checkpoints[-1] == pytest.approx(3.0)
    assert grid.index_of(1.5) == 14
    with pytest.raises(ValueError, match="beta"):
        grid.index_of(1.55)


def test_beta_grid_validation():
    with pytest.raises(ValueError):
        BetaGrid(())
    with pytest.raises(ValueError):
        BetaGrid((0.0, 1.0))
    with pytest.raises(ValueError):
        BetaGrid((2.0, 1.0))
    with pytest.raises(ValueError):
        BetaGrid.uniform(1.0, 0.5, 0.1)
