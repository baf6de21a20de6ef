"""Random initial states and the Trotter scrambling circuit."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from helpers import expectation
from spintherm.hamiltonian import (
    HamiltonianTerms,
    ModelSpec,
    _bond_generators,
    apply_terms,
    build_hamiltonian,
    model_terms,
)
from spintherm.hilbert import BLOCK_SITES, apply_two_site, compile_block, entanglement_entropy
from spintherm.state_prep import (
    MAX_TAU,
    TrotterCircuit,
    build_trotter_circuit,
    sample_haar,
    sample_rpps,
    scramble,
    seeded_generator,
)

MIXED = ModelSpec(kind="mixed_ising", L=6, J=1.0, h_x=1.0, h_z=1.0)
XXZ = ModelSpec(kind="xxz_staggered", L=6, J=1.0, delta=5.0, h_stag=1.0)


def test_rpps_amplitude_moduli_and_norm():
    state = sample_rpps(5, 3, [0])[0]
    assert state.shape == (2**5,) and state.dtype == np.complex128
    assert np.allclose(np.abs(state), 2.0 ** (-2.5), atol=1e-14)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_rpps_has_zero_entanglement():
    state = sample_rpps(8, 5, [2])[0]
    for cut in range(1, 8):
        assert ref.reduced_density_eigs(state, cut, 8)[0] == pytest.approx(1.0, abs=1e-12)
    assert entanglement_entropy(state) <= 1e-10


def test_rpps_consumes_two_phases_per_site():
    # reconstruct the state from the same stream: 2L uniform draws, site
    # order, up before down, then a kron chain
    L = 6
    phases = seeded_generator(11, (4,)).uniform(0.0, 2.0 * np.pi, size=(L, 2))
    expected = np.ones(1, dtype=complex)
    for i in range(L):
        expected = np.kron(np.exp(1j * phases[i]) / np.sqrt(2.0), expected)
    [state] = sample_rpps(L, 11, [4])
    assert np.array_equal(state, expected)


def test_sampling_is_a_pure_function_of_seed():
    a = sample_rpps(6, 7, [9])[0]
    # drawing other indices in between must not disturb index 9
    sample_rpps(6, 7, range(4))
    b = sample_rpps(6, 7, [9])[0]
    assert np.array_equal(a, b)
    assert not np.allclose(a, sample_rpps(6, 7, [10])[0])
    assert not np.allclose(a, sample_rpps(6, 8, [9])[0])


def test_haar_sample_normalized_and_deterministic():
    a = sample_haar(6, 1, [3])[0]
    b = sample_haar(6, 1, [3])[0]
    assert a.shape == (2**6,) and a.dtype == np.complex128
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


def test_haar_mean_energy_is_trace_mean():
    # Tr H = 0 for the catalog, so <psi|H|psi> averages to zero
    terms = build_hamiltonian(ModelSpec(kind="heisenberg", L=4, J=1.0))
    n = 10_000
    vals = np.array([expectation(terms, state) for state in sample_haar(4, 123, range(n))])
    stderr = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean()) <= 5.0 * stderr


def test_haar_entropy_near_page_value():
    L = 10
    page = (L / 2.0) * np.log(2.0) - 0.5
    vals = entanglement_entropy(sample_haar(L, 77, range(500)))
    assert abs(np.mean(vals) - page) <= 0.05


def test_seeded_streams_match_an_ordinary_numpy_random_import():
    # a sample's draws and the bootstrap's resamples (even and odd M), through
    # seeded_generator in fresh processes, with and without secrets loaded
    # before, and through a plain numpy.random import in another; the entry
    # point loads neither numpy.random nor secrets
    draws = (
        "[print(seeded(m, i).uniform(0.0, 6.0, size=(4, 2)).tobytes().hex(), "
        "seeded(m, i).standard_normal((2, 8)).tobytes().hex()) for m, i in ((42, 0), (42, 7), (0, 3))]; "
        "[print(resamples((42, L)).integers(0, m, size=(5, m)).tobytes().hex()) "
        "for L, m in ((8, 16), (12, 16), (9, 7))]; "
        "print(sorted(m for m in ('numpy.random', 'secrets') if m in sys.modules))"
    )
    ordinary = (
        "import sys; import numpy.random as rnd; resamples = rnd.default_rng; "
        "seeded = lambda m, i: rnd.default_rng(rnd.SeedSequence(entropy=m, spawn_key=(i,))); " + draws
    )
    entry = (
        "import sys; from spintherm.state_prep import seeded_generator as resamples; "
        "seeded = lambda m, i: resamples(m, (i,)); " + draws
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    plain, through, after_secrets = (
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout
        for code in (ordinary, entry, "import secrets; " + entry)
    )
    *plain_draws, plain_loaded = plain.splitlines()
    *entry_draws, entry_loaded = through.splitlines()
    *secrets_draws, secrets_loaded = after_secrets.splitlines()
    assert plain_loaded == "['numpy.random', 'secrets']" and entry_loaded == "[]" and secrets_loaded == "['secrets']"
    assert len(entry_draws) == 6 and entry_draws == plain_draws == secrets_draws


def test_seed_validation():
    for sample in (sample_rpps, sample_haar):
        for master_seed, index, field in ((-1, 0, "master_seed"), (0, -2, "sample_index"),
                                          (True, 0, "master_seed"), (1.5, 0, "master_seed"),
                                          (0, 2.0, "sample_index"), (0, False, "sample_index"),
                                          ("3", 0, "master_seed")):
            with pytest.raises(ValueError, match=field):
                sample(3, master_seed, [index])
        assert np.array_equal(sample(3, np.int64(3), [np.uint8(1)]), sample(3, 3, [1]))
    with pytest.raises(ValueError, match="num_sites"):
        sample_rpps(1, 0, [0])
    for sample in (sample_rpps, sample_haar):
        with pytest.raises(ValueError, match="num_sites must be an integer"):
            sample(3.0, 0, [0])
        assert np.array_equal(sample(np.int64(3), 0, [0]), sample(3, 0, [0]))


@pytest.mark.parametrize("sample", [sample_rpps, sample_haar])
def test_a_row_does_not_depend_on_its_batch(sample):
    # what keeps samples.csv the same bytes whatever the worker count and batch size
    for L in (2, 3, 6, 9):
        for samples in (range(5), range(3, 11), [9, 2, 40, 2, 0], [7]):
            rows = sample(L, 13, samples)
            assert rows.shape == (len(samples), 2**L) and rows.dtype == np.complex128
            for row, m in zip(rows, samples):
                assert np.array_equal(row, sample(L, 13, [m])[0]), (L, m)
    assert sample(4, 13, []).shape == (0, 16) and sample(4, 13, []).dtype == np.complex128


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
        for i, gen in enumerate(_bond_generators(spec.L, *model_terms(spec)), start=1):
            total += ref.embed_pair_matrix(gen, i, spec.L)
        assert np.max(np.abs(total - matrix)) <= 1e-13


@pytest.mark.parametrize("tau", [0.7, 10.0])
def test_single_step_matches_expm_oracle(tau):
    spec = ModelSpec(kind="mixed_ising", L=5, J=1.0, h_x=1.0, h_z=1.0)
    terms = build_hamiltonian(spec)
    h_odd = np.zeros((2**5, 2**5), dtype=complex)
    h_even = np.zeros_like(h_odd)
    for i, gen in enumerate(_bond_generators(terms.L, terms.bonds, terms.fields), start=1):
        block = ref.embed_pair_matrix(gen, i, 5)
        if i % 2 == 1:
            h_odd += block
        else:
            h_even += block
    state = sample_rpps(5, 2, [0])[0]
    # even sublayer acts first
    want = scipy.linalg.expm(-1j * tau * h_odd) @ (
        scipy.linalg.expm(-1j * tau * h_even) @ state
    )
    (got,) = scramble(state[None], build_trotter_circuit(spec, tau=tau, n_reps=1))
    assert np.max(np.abs(got - want)) <= 1e-12


def test_scramble_zero_reps_returns_same_amplitudes():
    # no step: the rows come back as they went in
    state = sample_rpps(6, 4, [1])[0]
    out = scramble(state[None], build_trotter_circuit(MIXED, tau=10.0, n_reps=0))
    assert np.array_equal(out, state[None])


def test_scramble_preserves_norm():
    # the gates are unitary: each row leaves the brick at its norm, to rounding
    rows = sample_rpps(8, 6, [0, 1, 2])
    spec = ModelSpec(kind="mixed_ising", L=8, J=1.0, h_x=1.0, h_z=1.0)
    out = scramble(rows, build_trotter_circuit(spec, tau=10.0, n_reps=16))
    for row in out:
        assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-13)
        assert abs(np.log(np.linalg.norm(row))) <= 1e-10


def test_scramble_preserves_inner_products():
    spec = ModelSpec(kind="mixed_ising", L=6, J=1.0, h_x=1.0, h_z=1.0)
    circuit = build_trotter_circuit(spec, tau=10.0, n_reps=4)
    a = sample_rpps(6, 9, [0])[0]
    b = sample_haar(6, 9, [1])[0]
    before = np.vdot(a, b)
    a_out, b_out = scramble(np.array([a, b]), circuit)
    after = np.vdot(a_out, b_out)
    assert abs(after) == pytest.approx(abs(before), abs=1e-10)


def test_scrambled_entropy_approaches_haar_mean():
    L = 12
    spec = ModelSpec(kind="mixed_ising", L=L, J=1.0, h_x=1.0, h_z=1.0)
    circuit = build_trotter_circuit(spec, tau=10.0, n_reps=2 * L)
    n = 100
    rows = scramble(sample_rpps(L, 31, range(n)), circuit)
    scrambled = entanglement_entropy(rows)
    haar = entanglement_entropy(sample_haar(L, 32, range(n)))
    assert abs(scrambled.mean() - haar.mean()) <= 0.1 * haar.mean()


def test_scramble_size_mismatch_raises():
    for n_reps in (0, 1):
        circuit = build_trotter_circuit(MIXED, tau=1.0, n_reps=n_reps)
        with pytest.raises(ValueError, match="circuit built for 6 sites"):
            scramble(sample_rpps(8, 0, [0]), circuit)


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
        ([eye] * 2, True, "n_reps must be an integer >= 0"),
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
    (got,) = scramble((amps / np.linalg.norm(amps))[None], circuit)
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
