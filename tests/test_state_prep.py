"""Random initial states and the Trotter scrambling circuit."""

import dataclasses

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
    BOOTSTRAP_INDICES,
    HAAR_GAUSSIANS,
    MAX_TAU,
    RPPS_PHASES,
    TrotterCircuit,
    build_trotter_circuit,
    sample_haar,
    sample_rpps,
    scramble,
    uniforms,
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
    # order, up before down, then a kron chain from the common modulus
    L = 6
    phases = np.exp(2j * np.pi * uniforms(11, RPPS_PHASES, [4], 2 * L)).reshape(L, 2)
    expected = np.array([2.0 ** (-L / 2)], dtype=complex)
    for i in range(L):
        expected = np.kron(phases[i], expected)
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


_MASK, _GAMMA = 2**64 - 1, 0x9E3779B97F4A7C15


def _splitmix_finaliser(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _draw(seed, domain, index, j):
    """Draw j of stream (seed, domain, index) in Python integers, from the definition in uniforms' docstring."""
    h = 0
    for part in seed:
        count = -(-part.bit_length() // 64)
        for word in [count, *((part >> 64 * i) & _MASK for i in range(count))]:
            h = _splitmix_finaliser((h + word + _GAMMA) & _MASK)
    h = _splitmix_finaliser((h + domain + _GAMMA) & _MASK)
    return _splitmix_finaliser((h + (index * 2**32 + j + 1) * _GAMMA) & _MASK)


def test_stream_known_answers():
    # the finaliser is SplitMix64's: the generator seeded with 0 starts with these outputs
    assert [_splitmix_finaliser(k * _GAMMA & _MASK) for k in (1, 2, 3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    # frozen draws of fixed (seed, domain, index, j): the stream of every sample and resample
    for seed, domain, index, j, bits, double in (
        ((42,), RPPS_PHASES, 0, 0, 0xFBEAD1C72E8AFD34, 0.9840518103870116),
        ((42,), RPPS_PHASES, 7, 3, 0xE3425264FB4FC36B, 0.8877307411706274),
        ((0,), HAAR_GAUSSIANS, 1, 1023, 0x26C4EDB88DD18CED, 0.15144239192688336),
        ((2**64 + 3,), RPPS_PHASES, 5, 2, 0x8F268B405C3ADE1D, 0.5591818840150425),
        ((42, 12), BOOTSTRAP_INDICES, 3999, 15, 0xC19CECF77C1A6282, 0.756300745411957),
        ((2**32 - 1,), HAAR_GAUSSIANS, 2**32 - 1, 0, 0x1DFB242A8BF0683A, 0.1171133617280603),
    ):
        assert _draw(seed, domain, index, j) == bits
        assert (bits >> 11) * 2.0**-53 == double
        row = uniforms(seed if len(seed) > 1 else seed[0], domain, [index], j + 1)
        assert row.shape == (1, j + 1) and row.dtype == np.float64 and row[0, j] == double
    assert uniforms((42,), RPPS_PHASES, [7], 4)[0, 3] == 0.8877307411706274  # a seed and its 1-tuple
    assert uniforms(42, RPPS_PHASES, [], 3).shape == (0, 3)


def test_stream_moments_and_lag_correlations():
    # 2**20 draws of 2**16 samples: uniform mean and variance, no lag-1 correlation
    # between a sample's draws or between neighbouring samples (5 standard errors)
    u = uniforms(7, RPPS_PHASES, range(2**16), 16)
    assert abs(u.mean() - 0.5) <= 5 * np.sqrt(1 / 12 / u.size)
    assert abs(12 * u.var() - 1) <= 5 * 12 * np.sqrt((1 / 80 - 1 / 144) / u.size)
    for a, b in ((u[:, :-1], u[:, 1:]), (u[:-1], u[1:])):
        assert abs(np.corrcoef(a.ravel(), b.ravel())[0, 1]) <= 5 / np.sqrt(a.size)
    assert 0.0 <= u.min() and u.max() < 1.0
    # Haar rows: sqrt(N) times an amplitude has real and imaginary parts of mean 0 and
    # variance 1/2, uncorrelated, and E|a|^4 = 2N / (N + 1) of normalized Gaussians
    N = 2**8
    a = np.sqrt(N) * sample_haar(8, 7, range(2**12)).ravel()
    for part in (a.real, a.imag):
        assert abs(part.mean()) <= 5 * np.sqrt(0.5 / a.size)
        assert abs(part.var() - 0.5) <= 5 * np.sqrt(0.5 / a.size)
    assert abs(np.mean(a.real * a.imag)) <= 5 * np.sqrt(0.25 / a.size)
    assert abs(np.mean(np.abs(a) ** 4) - 2 * N / (N + 1)) <= 5 * np.sqrt(20 / a.size)


def test_seed_validation():
    for sample in (sample_rpps, sample_haar):
        for master_seed, index, field in ((-1, 0, "master_seed"), (0, -2, "sample_index"),
                                          (True, 0, "master_seed"), (1.5, 0, "master_seed"),
                                          (0, 2.0, "sample_index"), (0, False, "sample_index"),
                                          ("3", 0, "master_seed"), (0, 2**32, "sample_index")):
            with pytest.raises(ValueError, match=field):
                sample(3, master_seed, [index])
        assert np.array_equal(sample(3, np.int64(3), [np.uint8(1)]), sample(3, 3, [1]))
        # every seed >= 0 stays valid, and one past 2**64 is not its low word
        assert not np.allclose(sample(3, 2**64 + 3, [1]), sample(3, 3, [1]))
        assert sample(3, 2**200, [2**32 - 1]).shape == (1, 8)
    with pytest.raises(ValueError, match="num_sites"):
        sample_rpps(1, 0, [0])
    for sample in (sample_rpps, sample_haar):
        with pytest.raises(ValueError, match="num_sites must be an integer"):
            sample(3.0, 0, [0])
        assert np.array_equal(sample(np.int64(3), 0, [0]), sample(3, 0, [0]))
    for seed in (-1, True, 1.0, (1, -1)):
        with pytest.raises(ValueError, match="seed"):
            uniforms(seed, RPPS_PHASES, [0], 2)


@pytest.mark.parametrize("sample", [sample_rpps, sample_haar])
def test_a_row_does_not_depend_on_its_batch(sample):
    # what keeps samples.csv the same bytes whatever the worker count and batch size
    for L in (2, 3, 6, 9, 10):
        for samples in (range(5), range(3, 11), [9, 2, 40, 2, 0], [7], range(21)):
            rows = sample(L, 13, samples)
            assert rows.shape == (len(samples), 2**L) and rows.dtype == np.complex128
            for row, m in zip(rows, samples):
                assert np.array_equal(row, sample(L, 13, [m])[0]), (L, m)


@pytest.mark.parametrize("sample", [sample_rpps, sample_haar])
def test_an_empty_index_list_draws_no_rows(sample):
    for L in (2, 4, 7):
        rows = sample(L, 13, [])
        assert rows.shape == (0, 2**L) and rows.dtype == np.complex128


def test_vectorized_ufuncs_ignore_a_rows_place():
    # The samplers' elementwise ufuncs run SIMD loops over a whole (B, n) table, with
    # a masked or scalar tail: each row must come out with the bits it has alone, at
    # any row length and any place in the table (the batch test above relies on it).
    table = uniforms(5, RPPS_PHASES, range(19), 67)
    for n in (1, 3, 4, 7, 8, 9, 16, 17, 31, 67):
        part = table[:, :n]
        for f in (np.log, np.sqrt, np.exp, np.cos, np.sin, np.tan, lambda x: np.exp(2j * np.pi * x)):
            whole, flat = f(part), f(np.ascontiguousarray(part).ravel()).reshape(part.shape)
            for i in range(len(part)):
                alone = f(part[i].copy())
                assert np.array_equal(whole[i], alone) and np.array_equal(flat[i], alone), (f, n, i)


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
