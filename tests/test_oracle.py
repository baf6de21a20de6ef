"""Dense reference operators, thermal averages, and exact evolution."""

import csv
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import dense_reference as ref
from oracle import DenseOperator, dense_build, exact_evolve, exact_thermal
from spintherm.hamiltonian import (
    ID2,
    SX,
    SZ,
    HamiltonianTerms,
    ModelSpec,
    apply_terms,
    build_hamiltonian,
)
from spintherm.state_prep import sample_haar

DATA = Path(__file__).parent / "data" / "thermal_reference.csv"


def random_terms(L, seed):
    rng = np.random.default_rng(seed)
    bonds = []
    for i in range(1, L):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        bonds.append((i, (raw + raw.conj().T) / 2.0))
    fields = []
    for i in (1, L):
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        fields.append((i, (raw + raw.conj().T) / 2.0))
    return HamiltonianTerms(L=L, bonds=bonds, fields=fields)


def matrix_from_apply(terms):
    dim = 2**terms.L
    out = np.empty((dim, dim), dtype=complex)
    for col in range(dim):
        unit = np.zeros(dim, dtype=complex)
        unit[col] = 1.0
        out[:, col] = apply_terms(terms, unit)
    return out


def test_dense_build_matches_apply_and_kron_reference():
    terms = random_terms(5, seed=14)
    built = dense_build(terms).matrix
    assert np.max(np.abs(built - matrix_from_apply(terms))) <= 1e-12
    expected = np.zeros_like(built)
    for i, mat in terms.bonds:
        expected += ref.embed_pair_matrix(mat, i, 5)
    for i, mat in terms.fields:
        expected += ref.embed_site(mat, i, 5)
    assert np.max(np.abs(built - expected)) <= 1e-12
    assert np.max(np.abs(built - built.conj().T)) <= 1e-12


def test_dense_build_empty_terms_is_zero():
    out = dense_build(HamiltonianTerms(L=3, bonds=[], fields=[]))
    assert not np.any(out.matrix)
    assert out.L == 3


def test_dense_build_respects_cap():
    terms = build_hamiltonian(ModelSpec(kind="heisenberg", L=6, J=1.0))
    with pytest.raises(ValueError, match="cap"):
        dense_build(terms, cap=5)


def test_exact_thermal_beta_zero_is_normalized_trace():
    # field sum(Sx + 0.4 I) has a nonzero trace that the average must hit
    terms = build_hamiltonian(ModelSpec(kind="heisenberg", L=4, J=1.0))
    obs = HamiltonianTerms(L=4, bonds=[], fields=[(i, SX + 0.4 * ID2) for i in range(1, 5)])
    want = sum(np.trace(m).real / 2.0 for _, m in obs.fields)
    assert exact_thermal(terms, obs, 0.0) == pytest.approx(want, abs=1e-12)


def test_exact_thermal_large_beta_reaches_ground_state():
    spec = ModelSpec(kind="heisenberg", L=4, J=1.0)
    terms = build_hamiltonian(spec)
    e0 = np.linalg.eigvalsh(ref.heisenberg_matrix(4)).min()
    assert exact_thermal(terms, terms, 100.0) == pytest.approx(e0, abs=1e-10)


def test_exact_thermal_against_direct_boltzmann_sum():
    spec = ModelSpec(kind="xxz_staggered", L=6, J=1.0, delta=5.0, h_stag=1.0)
    terms = build_hamiltonian(spec)
    matrix = ref.xxz_staggered_matrix(6, delta=5.0, h_stag=1.0)
    energies = np.linalg.eigvalsh(matrix)
    beta = 2.3
    boltz = np.exp(-beta * (energies - energies.min()))
    want = float(np.dot(energies, boltz) / boltz.sum())
    assert exact_thermal(terms, terms, beta) == pytest.approx(want, abs=1e-11)


def load_reference_rows():
    with DATA.open() as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("row", load_reference_rows(),
                         ids=lambda r: f"{r['kind']}-L{r['L']}")
def test_frozen_thermal_energies(row):
    spec = ModelSpec(
        kind=row["kind"],
        L=int(row["L"]),
        J=float(row["J"]),
        delta=float(row["delta"]),
        h_stag=float(row["h_stag"]),
        h_x=float(row["h_x"]),
        h_z=float(row["h_z"]),
    )
    terms = build_hamiltonian(spec)
    got = exact_thermal(terms, terms, float(row["beta"]))
    assert got == pytest.approx(float(row["value"]), abs=float(row["tolerance"]))


def test_exact_evolve_imag_time_matches_expm_with_offset():
    terms = build_hamiltonian(ModelSpec(kind="heisenberg", L=4, J=1.3))
    op = dense_build(terms)
    state = sample_haar(4, 2, [0])[0]
    theta = 1.7
    raw = scipy.linalg.expm(-theta * op.matrix) @ state
    nrm = np.linalg.norm(raw)
    out, log_norm = exact_evolve(op, state, theta)
    assert np.max(np.abs(out - raw / nrm)) <= 1e-12
    assert log_norm == pytest.approx(np.log(nrm), abs=1e-12)


def test_exact_evolve_theta_zero_and_semigroup():
    terms = build_hamiltonian(ModelSpec(kind="heisenberg", L=4, J=1.0))
    op = dense_build(terms)
    state = sample_haar(4, 3, [0])[0]
    still, still_log = exact_evolve(op, state, 0.0)
    assert np.max(np.abs(still - state)) <= 1e-12
    assert still_log == pytest.approx(0.0, abs=1e-12)
    once, once_log = exact_evolve(op, state, 1.0)
    half, half_log = exact_evolve(op, state, 0.6)
    twice, twice_log = exact_evolve(op, half, 0.4)
    assert np.max(np.abs(once - twice)) <= 1e-12
    assert once_log == pytest.approx(half_log + twice_log, abs=1e-12)


def test_exact_evolve_error_paths():
    terms = build_hamiltonian(ModelSpec(kind="heisenberg", L=4, J=1.0))
    op = dense_build(terms)
    state = sample_haar(4, 4, [0])[0]
    with pytest.raises(ValueError, match="theta"):
        exact_evolve(op, state, -1.0)
    with pytest.raises(ValueError, match="mismatch"):
        exact_evolve(op, sample_haar(5, 4, [0])[0], 1.0)
    with pytest.raises(ValueError):
        DenseOperator(np.eye(8), 4)


def test_trace_estimate_consistency():
    # 2**L <psi|O|psi> over Haar samples converges to Tr O
    L = 4
    obs = HamiltonianTerms(L=L, bonds=[], fields=[(i, SZ + 0.3 * ID2) for i in range(1, L + 1)])
    matrix = dense_build(obs).matrix
    exact = np.trace(matrix).real
    rng = np.random.default_rng(9)
    n = 100_000
    raw = rng.standard_normal((n, 2**L)) + 1j * rng.standard_normal((n, 2**L))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    vals = 2.0**L * np.einsum("mi,ij,mj->m", raw.conj(), matrix, raw).real
    stderr = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - exact) <= 5.0 * stderr
