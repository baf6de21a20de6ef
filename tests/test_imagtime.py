"""Lanczos beta walks against dense references."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from helpers import expectation
from spintherm.hamiltonian import HamiltonianTerms, ModelSpec, build_hamiltonian
from spintherm.imagtime import MAX_BETA_POINTS, BetaGrid, walk
from spintherm.state_prep import sample_haar


def test_ground_state_is_fixed_point(monkeypatch):
    import spintherm.imagtime as imagtime

    spec = ModelSpec(kind="heisenberg", L=4, J=1.0)
    energies, vectors = np.linalg.eigh(ref.heisenberg_matrix(4))
    ground = vectors[:, 0].astype(complex)
    calls, original = [], imagtime.apply_terms
    monkeypatch.setattr(imagtime, "apply_terms", lambda t, a: calls.append(a.shape[0]) or original(t, a))
    grid = BetaGrid((0.5, 1.0, 2.0, 4.0))
    (log_sq_norms,), (energy,) = walk(ground[None], build_hamiltonian(spec), grid)
    # H ground = E_0 ground exhausts the Krylov space at k = 1: one H application
    assert calls == [1]
    assert np.max(np.abs(log_sq_norms + np.array(grid.checkpoints) * energies[0])) <= 1e-12
    assert np.max(np.abs(energy - energies[0])) <= 1e-12


def test_energy_decreases_along_checkpoints():
    spec = ModelSpec(kind="heisenberg", L=8, J=1.0)
    terms = build_hamiltonian(spec)
    state = sample_haar(8, 5, [0])[0]
    grid = BetaGrid.uniform(0.5, 4.0, 0.5)
    _, (obs,) = walk(state[None], terms, grid)
    assert all(b < a + 1e-12 for a, b in zip(obs, obs[1:]))


def dense_walk(matrix, amps, betas):
    """(ln <psi|e^{-beta H}|psi>, <H>_beta) at each beta from the full eigensystem."""
    energies, vectors = np.linalg.eigh(matrix)
    weights = np.abs(vectors.conj().T @ amps) ** 2
    rows = []
    for beta in betas:
        boltz = weights * np.exp(-beta * (energies - energies[0]))
        rows.append((np.log(boltz.sum()) - beta * energies[0], boltz @ energies / boltz.sum()))
    return rows


def walk_one(amps, terms, grid):
    """walk of one state: (ln-norm, energy) at each beta."""
    log_sq, energy = walk(amps[None], terms, grid)
    return list(zip(log_sq[0], energy[0]))


def assert_walk_matches_dense(rows, matrix, amps, betas, tol=1e-10):
    assert len(rows) == len(betas)
    for (log_sq_norm, energy), (want_log, want_energy) in zip(rows, dense_walk(matrix, amps, betas)):
        assert abs(log_sq_norm - want_log) <= tol
        assert abs(energy - want_energy) <= tol


DENSE_MODELS = [
    (dict(kind="heisenberg", J=1.0), lambda L: ref.heisenberg_matrix(L)),
    (dict(kind="xxz_staggered", J=1.0, delta=5.0, h_stag=1.0),
     lambda L: ref.xxz_staggered_matrix(L, delta=5.0, h_stag=1.0)),
    (dict(kind="transverse_ising", J=1.0, h_x=1.0), lambda L: ref.transverse_ising_matrix(L, h_x=1.0)),
    (dict(kind="mixed_ising", J=1.0, h_x=1.0, h_z=1.0), lambda L: ref.mixed_ising_matrix(L, h_x=1.0, h_z=1.0)),
]


@pytest.mark.parametrize("fields,matrix", DENSE_MODELS, ids=[m[0]["kind"] for m in DENSE_MODELS])
def test_walk_matches_dense_oracle(fields, matrix):
    grid = BetaGrid.uniform(0.1, 4.0, 0.1)
    for L in (2, 4, 6, 8):
        terms = build_hamiltonian(ModelSpec(L=L, **fields))
        state = sample_haar(L, 17, [L])[0]
        rows = walk_one(state, terms, grid)
        assert_walk_matches_dense(rows, matrix(L), state, grid.checkpoints)


def test_walk_restarts_keep_large_beta_exact():
    # At beta ~ 40 the Boltzmann sum is about e^{-40 |E_0|}; the quadrature reads it
    # as a log-sum-exp of positive terms, so one Lanczos run stays exact there.
    spec = ModelSpec(kind="mixed_ising", L=6, J=1.0, h_x=1.0, h_z=1.0)
    state = sample_haar(6, 4, [0])[0]
    grid = BetaGrid.uniform(2.0, 40.0, 2.0)
    rows = walk_one(state, build_hamiltonian(spec), grid)
    assert_walk_matches_dense(rows, ref.mixed_ising_matrix(6, h_x=1.0, h_z=1.0), state, grid.checkpoints)


@settings(max_examples=60, deadline=None)
@given(L=st.integers(2, 8), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_walk_matches_dense_on_random_terms(L, data, seed):
    # L = 2 ends the Lanczos run on an exhausted Krylov space
    rng = np.random.default_rng(seed)

    def hermitian(dim):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return (a + a.conj().T) / 2.0

    bond_sites = data.draw(st.lists(st.integers(1, L - 1), max_size=L))
    field_sites = data.draw(st.lists(st.integers(1, L), max_size=L))
    betas = data.draw(st.lists(st.floats(0.0, 40.0, exclude_min=True), min_size=1, max_size=8, unique=True))
    terms = HamiltonianTerms(
        L=L,
        bonds=[(i, hermitian(4)) for i in bond_sites],
        fields=[(i, hermitian(2)) for i in field_sites],
    )
    dense = np.zeros((2**L, 2**L), dtype=complex)
    for i, mat in terms.bonds:
        dense += ref.embed_pair_matrix(mat, i, L)
    for i, mat in terms.fields:
        dense += ref.embed_site(mat, i, L)
    amps = rng.standard_normal(2**L) + 1j * rng.standard_normal(2**L)
    grid = BetaGrid(tuple(sorted(betas)))
    rows = walk_one(amps, terms, grid)
    assert_walk_matches_dense(rows, dense, amps, grid.checkpoints)


def test_single_checkpoint_matches_dense_oracle():
    spec = ModelSpec(kind="mixed_ising", L=6, J=1.0, h_x=1.0, h_z=1.0)
    terms = build_hamiltonian(spec)
    state = sample_haar(6, 8, [0])[0]
    rows = walk_one(state, terms, BetaGrid((3.0,)))
    assert_walk_matches_dense(rows, ref.mixed_ising_matrix(6, h_x=1.0, h_z=1.0), state, (3.0,))


def test_run_costs_the_walks_of_its_samples_and_nothing_more(monkeypatch, tmp_path):
    import spintherm.hamiltonian as hamiltonian
    import spintherm.imagtime as imagtime
    from spintherm.cli import RunConfig, run_experiments

    calls = []
    original = hamiltonian.apply_terms
    for module in (hamiltonian, imagtime):
        # counted in rows: a batched call applies H to each row of its (B, 2**L) array
        monkeypatch.setattr(module, "apply_terms", lambda t, a: calls.append(a.size >> t.L) or original(t, a))
    spec = ModelSpec(kind="heisenberg", L=6, J=1.0)
    terms = build_hamiltonian(spec)
    grid = BetaGrid((0.5, 1.0, 3.0))
    cfg = RunConfig(system=spec, init_class="haar", beta_grid=grid, L_list=(6,), M=5,
                    master_seed=8, n_resamples=0, threads=1, output_path=str(tmp_path))
    walks = 0
    for m in range(cfg.M):
        calls.clear()
        walk(sample_haar(6, 8, [m]), terms, grid)
        walks += sum(calls)
    calls.clear()
    monkeypatch.setattr("spintherm.cli.emit_results", lambda *args: {})
    list(run_experiments([cfg]))
    assert sum(calls) == walks  # no matvec outside the samples' walks

    # the paper's setting: a Haar walk at L = 12, beta J = 3
    terms = build_hamiltonian(dataclasses.replace(spec, L=12))
    for m in range(3):
        calls.clear()
        walk(sample_haar(12, 8, [m]), terms, BetaGrid((3.0,)))
        assert sum(calls) <= 25


def test_checkpoint_log_norms_match_dense_boltzmann_factor():
    spec = ModelSpec(kind="heisenberg", L=8, J=1.0)
    terms = build_hamiltonian(spec)
    matrix = ref.heisenberg_matrix(8)
    energies, vectors = np.linalg.eigh(matrix)
    state = sample_haar(8, 40, [0])[0]
    grid = BetaGrid.uniform(0.5, 3.0, 0.5)
    (log_sq_norms,), _ = walk(state[None], terms, grid)
    coeffs = np.abs(vectors.conj().T @ state) ** 2
    for beta, log_sq_norm in zip(grid.checkpoints, log_sq_norms):
        want = np.log(np.sum(coeffs * np.exp(-beta * (energies - energies[0])))) - beta * energies[0]
        assert log_sq_norm == pytest.approx(want, abs=1e-8)


def test_small_beta_limit_recovers_initial_energy():
    spec = ModelSpec(kind="heisenberg", L=6, J=1.0)
    terms = build_hamiltonian(spec)
    state = sample_haar(6, 3, [0])[0]
    _, energy = walk(state[None], terms, BetaGrid((1e-6,)))
    assert abs(energy[0, 0] - expectation(terms, state)) <= 1e-5 * 6


def test_walk_input_validation():
    terms = build_hamiltonian(ModelSpec(kind="heisenberg", L=4, J=1.0))
    state = sample_haar(4, 0, [0])[0]
    with pytest.raises(ValueError, match="sites"):
        walk(sample_haar(5, 0, [0]), terms, BetaGrid((1.0,)))
    zero = np.array([state, np.zeros(16, dtype=complex)])  # a zero row fails the batch
    with pytest.raises(ValueError, match="degenerate state: zero norm"):
        walk(zero, terms, BetaGrid((1.0,)))


def test_beta_grid_uniform_and_lookup():
    grid = BetaGrid.uniform(0.1, 3.0, 0.1)
    assert len(grid.checkpoints) == 30
    assert grid.checkpoints[0] == pytest.approx(0.1)
    assert grid.checkpoints[-1] == pytest.approx(3.0)
    assert grid.checkpoints.index(1.5) == 14


def test_beta_grid_validation():
    with pytest.raises(ValueError):
        BetaGrid(())
    with pytest.raises(ValueError):
        BetaGrid((0.0, 1.0))
    with pytest.raises(ValueError):
        BetaGrid((2.0, 1.0))
    with pytest.raises(ValueError):
        BetaGrid.uniform(1.0, 0.5, 0.1)
    with pytest.raises(ValueError, match="need step"):
        BetaGrid.uniform(0.1, 1.0, float("nan"))


def test_beta_grid_is_bounded_before_it_is_built():
    assert len(BetaGrid.uniform(0.001, 10.0, 0.001).checkpoints) == MAX_BETA_POINTS
    for stop in (10.002, 1000.0, 1e300, float("inf")):
        with pytest.raises(ValueError, match=f"more than {MAX_BETA_POINTS}"):
            BetaGrid.uniform(0.001, stop, 0.001)
    with pytest.raises(ValueError, match=f"more than {MAX_BETA_POINTS}"):
        BetaGrid(tuple(range(1, MAX_BETA_POINTS + 2)))
