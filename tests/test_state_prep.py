"""Random initial states and the Trotter scrambling circuit."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from helpers import expectation
from spintherm.estimators import entanglement_entropy
from spintherm.hamiltonian import (
    HamiltonianTerms,
    ModelSpec,
    apply_terms,
    bond_generators,
    build_hamiltonian,
    model_terms,
)
from spintherm.hilbert import BLOCK_SITES, apply_two_site, compile_block, schmidt_spectrum
from spintherm.state_prep import (
    MAX_TAU,
    SampleSeed,
    TrotterCircuit,
    build_trotter_circuit,
    sample_haar,
    sample_rpps,
    scramble,
)

MIXED = ModelSpec(kind="mixed_ising", L=6, J=1.0, h_x=1.0, h_z=1.0)
XXZ = ModelSpec(kind="xxz_staggered", L=6, J=1.0, delta=5.0, h_stag=1.0)


def test_rpps_amplitude_moduli_and_norm():
    state = sample_rpps(5, SampleSeed(3, 0))
    assert state.shape == (2**5,) and state.dtype == np.complex128
    assert np.allclose(np.abs(state), 2.0 ** (-2.5), atol=1e-14)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_rpps_has_zero_entanglement():
    state = sample_rpps(8, SampleSeed(5, 2))
    for cut in (1, 4, 7):
        lam = schmidt_spectrum(state, cut)
        assert lam[0] == pytest.approx(1.0, abs=1e-12)
    assert entanglement_entropy(state) <= 1e-10


def test_rpps_consumes_two_phases_per_site():
    # reconstruct the state from the same stream: 2L uniform draws, site
    # order, up before down, then a kron chain
    seed = SampleSeed(11, 4)
    L = 6
    phases = seed.generator().uniform(0.0, 2.0 * np.pi, size=(L, 2))
    expected = np.ones(1, dtype=complex)
    for i in range(L):
        expected = np.kron(np.exp(1j * phases[i]) / np.sqrt(2.0), expected)
    state = sample_rpps(L, seed)
    assert np.array_equal(state, expected)


def test_sampling_is_a_pure_function_of_seed():
    a = sample_rpps(6, SampleSeed(7, 9))
    # drawing other indices in between must not disturb index 9
    for m in range(4):
        sample_rpps(6, SampleSeed(7, m))
    b = sample_rpps(6, SampleSeed(7, 9))
    assert np.array_equal(a, b)
    assert not np.allclose(a, sample_rpps(6, SampleSeed(7, 10)))
    assert not np.allclose(a, sample_rpps(6, SampleSeed(8, 9)))


def test_haar_sample_normalized_and_deterministic():
    a = sample_haar(6, SampleSeed(1, 3))
    b = sample_haar(6, SampleSeed(1, 3))
    assert a.shape == (2**6,) and a.dtype == np.complex128
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


def test_haar_mean_energy_is_trace_mean():
    # Tr H = 0 for the catalog, so <psi|H|psi> averages to zero
    terms = build_hamiltonian(ModelSpec(kind="heisenberg", L=4, J=1.0))
    n = 10_000
    vals = np.empty(n)
    for m in range(n):
        vals[m] = expectation(terms, sample_haar(4, SampleSeed(123, m)))
    stderr = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean()) <= 5.0 * stderr


def test_haar_entropy_near_page_value():
    L = 10
    page = (L / 2.0) * np.log(2.0) - 0.5
    vals = [entanglement_entropy(sample_haar(L, SampleSeed(77, m))) for m in range(500)]
    assert abs(np.mean(vals) - page) <= 0.05


def test_seed_validation():
    with pytest.raises(ValueError):
        SampleSeed(-1, 0)
    with pytest.raises(ValueError):
        SampleSeed(0, -2)
    with pytest.raises(ValueError, match="num_sites"):
        sample_rpps(1, SampleSeed(0, 0))


def test_gates_are_unitary():
    for spec in (MIXED, XXZ):
        circuit = build_trotter_circuit(spec, tau=10.0, n_reps=2 * spec.L)
        for gate in circuit.bond_gates:
            assert np.max(np.abs(gate @ gate.conj().T - np.eye(4))) <= 1e-12


def test_one_gate_per_bond_and_tau_zero_identity():
    circuit = build_trotter_circuit(MIXED, tau=0.0, n_reps=1)
    assert len(circuit.bond_gates) == MIXED.L - 1
    for gate in circuit.bond_gates:
        assert np.allclose(gate, np.eye(4), atol=1e-15)


def test_field_partition_sums_to_full_hamiltonian():
    # the half-half interior / full boundary split must re-assemble H exactly
    for spec, matrix in (
        (MIXED, ref.mixed_ising_matrix(6, h_x=1.0, h_z=1.0)),
        (XXZ, ref.xxz_staggered_matrix(6, delta=5.0, h_stag=1.0)),
        (ModelSpec(kind="xxz_staggered", L=5, J=1.0, delta=5.0, h_stag=1.0),
         ref.xxz_staggered_matrix(5, delta=5.0, h_stag=1.0)),
        (ModelSpec(kind="heisenberg", L=2, J=1.0), ref.heisenberg_matrix(2)),
    ):
        total = np.zeros_like(matrix)
        for i, gen in enumerate(bond_generators(spec.L, *model_terms(spec)), start=1):
            total += ref.embed_pair_matrix(gen, i, spec.L)
        assert np.max(np.abs(total - matrix)) <= 1e-13


@pytest.mark.parametrize("tau", [0.7, 10.0])
def test_single_step_matches_expm_oracle(tau):
    spec = ModelSpec(kind="mixed_ising", L=5, J=1.0, h_x=1.0, h_z=1.0)
    terms = build_hamiltonian(spec)
    h_odd = np.zeros((2**5, 2**5), dtype=complex)
    h_even = np.zeros_like(h_odd)
    for i, gen in enumerate(bond_generators(terms.L, terms.bonds, terms.fields), start=1):
        block = ref.embed_pair_matrix(gen, i, 5)
        if i % 2 == 1:
            h_odd += block
        else:
            h_even += block
    state = sample_rpps(5, SampleSeed(2, 0))
    # even sublayer acts first
    want = scipy.linalg.expm(-1j * tau * h_odd) @ (
        scipy.linalg.expm(-1j * tau * h_even) @ state
    )
    (got,), _ = scramble(state[None], build_trotter_circuit(spec, tau=tau, n_reps=1))
    assert np.max(np.abs(got - want)) <= 1e-12


def test_apply_circuit_zero_reps_returns_same_amplitudes():
    # no step: the rows are only divided by their norms
    state = sample_rpps(6, SampleSeed(4, 1))
    nrm = np.linalg.norm(state)
    out, log_norm = scramble(state[None], build_trotter_circuit(MIXED, tau=10.0, n_reps=0))
    assert np.array_equal(out, state[None] / nrm)
    assert np.array_equal(log_norm, [np.log(nrm)])


def test_apply_circuit_preserves_norm_and_renormalizes():
    state = sample_rpps(8, SampleSeed(6, 0))
    spec = ModelSpec(kind="mixed_ising", L=8, J=1.0, h_x=1.0, h_z=1.0)
    (out,), (log_norm,) = scramble(state[None], build_trotter_circuit(spec, tau=10.0, n_reps=16))
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-13)
    # drift divided out by the final normalization stays at rounding level
    assert abs(log_norm) <= 1e-10


def test_apply_circuit_preserves_inner_products():
    spec = ModelSpec(kind="mixed_ising", L=6, J=1.0, h_x=1.0, h_z=1.0)
    circuit = build_trotter_circuit(spec, tau=10.0, n_reps=4)
    a = sample_rpps(6, SampleSeed(9, 0))
    b = sample_haar(6, SampleSeed(9, 1))
    before = np.vdot(a, b)
    (a_out, b_out), _ = scramble(np.array([a, b]), circuit)
    after = np.vdot(a_out, b_out)
    assert abs(after) == pytest.approx(abs(before), abs=1e-10)


def test_scrambled_entropy_approaches_haar_mean():
    L = 12
    spec = ModelSpec(kind="mixed_ising", L=L, J=1.0, h_x=1.0, h_z=1.0)
    circuit = build_trotter_circuit(spec, tau=10.0, n_reps=2 * L)
    n = 100
    rows, _ = scramble(np.array([sample_rpps(L, SampleSeed(31, m)) for m in range(n)]), circuit)
    scrambled = entanglement_entropy(rows)
    haar = entanglement_entropy(np.array([sample_haar(L, SampleSeed(32, m)) for m in range(n)]))
    assert abs(scrambled.mean() - haar.mean()) <= 0.1 * haar.mean()


def test_apply_circuit_size_mismatch_raises():
    for n_reps in (0, 1):
        circuit = build_trotter_circuit(MIXED, tau=1.0, n_reps=n_reps)
        with pytest.raises(ValueError, match="circuit built for 6 sites"):
            scramble(sample_rpps(8, SampleSeed(0, 0))[None], circuit)


def test_build_circuit_validation():
    with pytest.raises(ValueError, match="tau"):
        build_trotter_circuit(MIXED, tau=-1.0, n_reps=1)
    for tau in (MAX_TAU * (1 + 1e-9), 1e300, np.inf, np.nan):
        with pytest.raises(ValueError, match="tau must be in"):
            build_trotter_circuit(MIXED, tau=tau, n_reps=1)
    build_trotter_circuit(MIXED, tau=MAX_TAU, n_reps=1)
    with pytest.raises(ValueError, match="n_reps"):
        build_trotter_circuit(MIXED, tau=1.0, n_reps=-1)
    eye = np.eye(4)
    for gates, n_reps, reason in (
        ([], 1, "at least one bond gate"),
        ([eye, eye, np.eye(2)], 1, "bond gate at 3 has shape"),  # inside the block on sites 1-5
        ([eye, np.full((4, 4), np.nan)], 1, "bond gate at 2 has non-finite entries"),
        ([eye], -3, "n_reps must be an integer >= 0"),
        ([eye], 1.5, "n_reps must be an integer >= 0"),
    ):
        with pytest.raises(ValueError, match=reason):
            TrotterCircuit(gates, n_reps)


def test_circuit_is_frozen():
    circuit = build_trotter_circuit(MIXED, tau=1.0, n_reps=2)
    assert isinstance(circuit.bond_gates, tuple)
    # one step in application order at L = 6: the block of bonds 1-4 on sites
    # 1-5, then the odd gate (5, 6)
    assert [(g.site, g.width) for g in circuit.gates] == [(1, 5), (5, 2)]
    for name in ("bond_gates", "n_reps", "gates"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(circuit, name, getattr(circuit, name))
    with pytest.raises(ValueError, match="read-only"):
        circuit.bond_gates[0][0, 0] = 0.0


def _random_unitary(rng):
    q, r = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


@settings(max_examples=25, deadline=None)
@given(L=st.integers(2, 10), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_compiled_kernels_match_dense_in_both_contractions(L, data, seed):
    # a site-1 block narrower than the chain is one GEMM, the rest the batched
    # matmul; L <= 4 holds no whole 5-site block, and every L but 5 and 9 ends
    # in a block of 1-3 bonds
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**L) + 1j * rng.standard_normal(2**L)

    for width in (w for w in (2, BLOCK_SITES) if w <= L):
        site = data.draw(st.integers(1, L - width + 1))
        mat = rng.standard_normal((1 << width, 1 << width)) + 1j * rng.standard_normal((1 << width, 1 << width))
        want = ref.embed_block_matrix(mat, site, L) @ amps
        assert np.allclose(apply_two_site(amps, compile_block(mat, site, L)), want, rtol=0.0, atol=1e-11)

    gates = {i: _random_unitary(rng) for i in range(1, L)}
    n_reps = data.draw(st.integers(1, 2))
    circuit = TrotterCircuit(list(gates.values()), n_reps)
    dense = {i: ref.embed_pair_matrix(g, i, L) for i, g in gates.items()}
    want = amps / np.linalg.norm(amps)
    for _ in range(n_reps):
        for i in [i for i in dense if i % 2 == 0] + [i for i in dense if i % 2 == 1]:
            want = dense[i] @ want
    (got,), _ = scramble((amps / np.linalg.norm(amps))[None], circuit)
    assert np.allclose(got, want, rtol=0.0, atol=1e-11)

    bond_sites = data.draw(st.lists(st.integers(1, L - 1), max_size=L))
    field_sites = data.draw(st.lists(st.integers(1, L), min_size=1, max_size=L))
    terms = HamiltonianTerms(
        L=L,
        bonds=[(i, _random_hermitian(rng, 4)) for i in bond_sites],
        fields=[(i, _random_hermitian(rng, 2)) for i in field_sites],
    )
    h = sum(ref.embed_pair_matrix(m, i, L) for i, m in terms.bonds) + sum(
        ref.embed_site(m, i, L) for i, m in terms.fields
    )
    assert np.allclose(apply_terms(terms, amps), h @ amps, rtol=0.0, atol=1e-10)
    assert max(b.matrix.shape[0] for b in terms.compiled) <= 2**BLOCK_SITES
    # one pass per block of up to four bonds, for H and for a step
    assert len(terms.compiled) == len(circuit.gates) == -(-(L - 1) // 4)
