"""Model catalog and matrix-free application."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from helpers import basis_state, expectation
from spintherm.hamiltonian import (
    SZ,
    HamiltonianTerms,
    _bond_generators,
    apply_terms,
    ModelSpec,
    build_hamiltonian,
)
from spintherm import hamiltonian, hilbert

CATALOG = [
    (ModelSpec(kind="heisenberg", L=2, J=1.3), lambda L: ref.heisenberg_matrix(L, J=1.3)),
    (
        ModelSpec(kind="xxz_staggered", L=2, J=1.1, delta=5.0, h_stag=0.7),
        lambda L: ref.xxz_staggered_matrix(L, J=1.1, delta=5.0, h_stag=0.7),
    ),
    (
        ModelSpec(kind="transverse_ising", L=2, J=0.9, h_x=1.2),
        lambda L: ref.transverse_ising_matrix(L, J=0.9, h_x=1.2),
    ),
    (
        ModelSpec(kind="mixed_ising", L=2, J=1.0, h_x=1.5, h_z=0.5),
        lambda L: ref.mixed_ising_matrix(L, J=1.0, h_x=1.5, h_z=0.5),
    ),
]


def matrix_from_apply(terms):
    """Materialize the operator column by column through apply_terms."""
    dim = 2**terms.L
    cols = []
    for b in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[b] = 1.0
        cols.append(apply_terms(terms, amps))
    return np.array(cols).T


def random_state(L, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**L) + 1j * rng.standard_normal(2**L)
    return amps / np.linalg.norm(amps)


def test_heisenberg_bond_spectrum():
    terms = build_hamiltonian(ModelSpec(kind="heisenberg", L=2, J=1.0))
    eigs = np.linalg.eigvalsh(matrix_from_apply(terms))
    assert np.allclose(eigs, [-0.75, 0.25, 0.25, 0.25], atol=1e-14)


def test_apply_h_heisenberg_basis_states():
    J = 1.0
    terms = build_hamiltonian(ModelSpec(kind="heisenberg", L=2, J=J))
    up = basis_state(2)
    assert np.allclose(apply_terms(terms, up), (J / 4.0) * up, atol=1e-15)
    singlet = np.zeros(4, dtype=complex)
    singlet[1] = 1.0 / np.sqrt(2.0)
    singlet[2] = -1.0 / np.sqrt(2.0)
    assert np.allclose(apply_terms(terms, singlet), -(3.0 * J / 4.0) * singlet, atol=1e-14)


@pytest.mark.parametrize("L", [2, 3, 4, 6, 8])
def test_catalog_matches_kron_reference(L):
    for spec, reference in CATALOG:
        spec = ModelSpec(**{**spec.__dict__, "L": L})
        got = matrix_from_apply(build_hamiltonian(spec))
        want = reference(L)
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_bond_and_field_coverage():
    terms = build_hamiltonian(ModelSpec(kind="xxz_staggered", L=5, J=1.0, delta=5.0, h_stag=1.0))
    assert [i for i, _ in terms.bonds] == [1, 2, 3, 4]
    assert [i for i, _ in terms.fields] == [1, 2, 3, 4, 5]
    # staggered sign: (-1)**i, site 1 negative
    assert np.allclose(terms.fields[0][1], -SZ, atol=1e-15)
    assert np.allclose(terms.fields[1][1], SZ, atol=1e-15)


def test_expectation_matches_dense_quadratic_form():
    for spec, reference in CATALOG:
        spec = ModelSpec(**{**spec.__dict__, "L": 6})
        terms = build_hamiltonian(spec)
        state = random_state(6, 17)
        want = float((state.conj() @ reference(6) @ state).real)
        assert expectation(terms, state) == pytest.approx(want, abs=1e-12)


def test_expectation_ignores_offset_and_norm():
    terms = build_hamiltonian(ModelSpec(kind="heisenberg", L=5))
    state = random_state(5, 3)
    scaled = 2.0 * state
    assert expectation(terms, scaled) == pytest.approx(expectation(terms, state), abs=1e-12)


def test_apply_h_is_hermitian_in_inner_products():
    terms = build_hamiltonian(ModelSpec(kind="mixed_ising", L=5, J=1.0, h_x=1.5, h_z=0.5))
    a = random_state(5, 8)
    b = random_state(5, 9)
    lhs = np.vdot(a, apply_terms(terms, b))
    rhs = np.conj(np.vdot(b, apply_terms(terms, a)))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_apply_h_linearity():
    terms = build_hamiltonian(ModelSpec(kind="heisenberg", L=4))
    a = random_state(4, 30)
    b = random_state(4, 31)
    want = 0.3 * apply_terms(terms, a) + 1.7j * apply_terms(terms, b)
    assert np.allclose(apply_terms(terms, 0.3 * a + 1.7j * b), want, atol=1e-13)


def test_model_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        ModelSpec(kind="xy_chain", L=4)
    with pytest.raises(ValueError, match="L must"):
        ModelSpec(kind="heisenberg", L=1)
    with pytest.raises(ValueError, match="L must be an integer"):
        ModelSpec(kind="heisenberg", L=3.0)
    assert ModelSpec(kind="heisenberg", L=np.int64(3)).L == 3
    with pytest.raises(ValueError, match="J must"):
        ModelSpec(kind="heisenberg", L=4, J=0.0)


def test_terms_validation():
    good = np.eye(4)
    with pytest.raises(ValueError, match="Hermitian"):
        HamiltonianTerms(L=3, bonds=[(1, good + 1j * np.diag([1, 0, 0, 0]))])
    with pytest.raises(ValueError, match="bond index"):
        HamiltonianTerms(L=3, bonds=[(3, good)])
    with pytest.raises(ValueError, match="field index"):
        HamiltonianTerms(L=3, fields=[(4, np.eye(2))])
    with pytest.raises(ValueError, match="shape"):
        HamiltonianTerms(L=3, bonds=[(1, np.eye(2))])
    with pytest.raises(ValueError, match="L must be an integer"):
        HamiltonianTerms(L=3.0, bonds=[(1, good)])
    assert len(HamiltonianTerms(L=np.int64(3), bonds=[(np.int64(2), good)]).compiled) == 1
    # a non-integer index is refused, not truncated onto a site
    with pytest.raises(ValueError, match="bond index"):
        HamiltonianTerms(L=3, bonds=[(1.5, hilbert.kron(SZ, SZ))])
    with pytest.raises(ValueError, match="field index"):
        HamiltonianTerms(L=3, fields=[(2.9, SZ)])
    # nor is a bool taken for site 1
    with pytest.raises(ValueError, match="field index"):
        HamiltonianTerms(L=3, fields=[(True, SZ)])
    with pytest.raises(ValueError, match="bond index"):
        HamiltonianTerms(L=3, bonds=[(True, good)])
    # the fold indexes a list: index 0 must not wrap round to the chain's end
    with pytest.raises(ValueError, match="bond index"):
        HamiltonianTerms(L=3, bonds=[(0, good)])
    with pytest.raises(ValueError, match="field index"):
        HamiltonianTerms(L=3, fields=[(0, SZ)])


@pytest.mark.parametrize("kind", ["bond", "field"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_terms_refuse_non_finite_entries(kind, bad):
    dim = 4 if kind == "bond" else 2
    mat = np.zeros((dim, dim), dtype=complex)
    mat[0, 0] = bad
    with pytest.raises(ValueError, match=f"{kind} matrix at 2 has non-finite entries"):
        HamiltonianTerms(L=3, **{kind + "s": [(2, mat)]})


@settings(max_examples=40, deadline=None)
@given(L=st.integers(2, 10), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_apply_terms_matches_dense_on_random_terms(L, data, seed):
    # L = 2, 3 hold no whole 4-site block; L = 6, 7, 10 leave bonds outside every block
    rng = np.random.default_rng(seed)

    def hermitian(dim):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return (a + a.conj().T) / 2.0

    bond_sites = data.draw(st.lists(st.integers(1, L - 1), max_size=L))
    field_sites = data.draw(st.lists(st.integers(1, L), max_size=L))
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
    assert np.allclose(apply_terms(terms, amps), dense @ amps, rtol=0.0, atol=1e-11)


@pytest.mark.parametrize("kind,unused", [
    ("heisenberg", ("delta", "h_stag", "h_x", "h_z")),
    ("xxz_staggered", ("h_x", "h_z")),
    ("transverse_ising", ("delta", "h_stag", "h_z")),
    ("mixed_ising", ("delta", "h_stag")),
])
def test_model_spec_rejects_couplings_its_kind_ignores(kind, unused):
    for name in unused:
        with pytest.raises(ValueError, match=f"{name} not used by kind '{kind}'"):
            ModelSpec(kind=kind, L=4, **{name: 0.5})
        ModelSpec(kind=kind, L=4, **{name: 0.0})
    with pytest.raises(ValueError, match="finite"):
        ModelSpec(kind=kind, L=4, J=float("nan"))


def _hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


# Fields reach the state only folded into bond generators (half to each bond
# of an interior site, all of it to the one bond of an end site), so these
# check that split against single-site embeddings.


def test_apply_terms_field_only_targets_expected_bit():
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for L in (2, 3, 5):
        for site in range(1, L + 1):
            up = np.zeros(2**L, dtype=complex)
            up[0] = 1.0
            out = apply_terms(HamiltonianTerms(L=L, fields=[(site, flip)]), up)
            expected = np.zeros(2**L, dtype=complex)
            expected[1 << (site - 1)] = 1.0
            assert np.array_equal(out, expected)


def test_apply_terms_field_only_matches_embedding():
    rng = np.random.default_rng(5)
    mat = _hermitian(rng, 2)
    amps = rng.standard_normal(2**6) + 1j * rng.standard_normal(2**6)
    for site in range(1, 7):
        terms = HamiltonianTerms(L=6, fields=[(site, mat)])
        expected = ref.embed_site(mat, site, 6) @ amps
        assert np.allclose(apply_terms(terms, amps), expected, atol=1e-13)
        # each bond touching the site carries its share: half at an interior site
        touching = [b for b in (site - 1, site) if 1 <= b <= 5]
        for bond, gen in enumerate(_bond_generators(terms.L, terms.bonds, terms.fields), start=1):
            share = 1.0 / len(touching) if bond in touching else 0.0
            want = share * ref.embed_site(mat, site, 6)
            assert np.allclose(ref.embed_pair_matrix(gen, bond, 6), want, atol=1e-14)


def test_bond_generators_fold_catalog_fields_bit_for_bit():
    # Reference: sum the fields of each site first, then share the sum out.
    # With one field per site, as in every catalog model, one pass over the
    # fields must give the same bits; every compiled H and gate starts here.
    def presummed(L, bonds, fields):
        per_site = {}
        for i, mat in fields:
            per_site[i] = per_site.get(i, np.zeros((2, 2), dtype=complex)) + mat
        per_bond = {i: np.zeros((4, 4), dtype=complex) for i in range(1, L)}
        for i, mat in bonds:
            per_bond[i] = per_bond[i] + mat
        for i, f in per_site.items():
            if i == 1:
                per_bond[1] = per_bond[1] + hilbert.kron(f, hamiltonian.ID2)
            elif i == L:
                per_bond[L - 1] = per_bond[L - 1] + hilbert.kron(hamiltonian.ID2, f)
            else:
                per_bond[i - 1] = per_bond[i - 1] + 0.5 * hilbert.kron(hamiltonian.ID2, f)
                per_bond[i] = per_bond[i] + 0.5 * hilbert.kron(f, hamiltonian.ID2)
        return [per_bond[i] for i in range(1, L)]

    for spec, _ in CATALOG:
        for L in range(2, 10):
            terms = hamiltonian.model_terms(dataclasses.replace(spec, L=L))
            gens, want = _bond_generators(L, *terms), presummed(L, *terms)
            assert len(gens) == len(want) == L - 1
            assert all(np.array_equal(g, w) for g, w in zip(gens, want)), (spec.kind, L)


@settings(max_examples=60, deadline=None)
@given(L=st.integers(2, 8), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_apply_terms_field_only_matches_dense_on_random_terms(L, data, seed):
    site = data.draw(st.integers(1, L))
    rng = np.random.default_rng(seed)
    mat = _hermitian(rng, 2)
    amps = rng.standard_normal(2**L) + 1j * rng.standard_normal(2**L)
    expected = ref.embed_site(mat, site, L) @ amps
    out = apply_terms(HamiltonianTerms(L=L, fields=[(site, mat)]), amps)
    assert np.allclose(out, expected, rtol=0.0, atol=1e-12)


def test_terms_are_frozen():
    terms = build_hamiltonian(ModelSpec(kind="mixed_ising", L=4, J=1.0, h_x=1.0, h_z=0.5))
    assert isinstance(terms.bonds, tuple) and isinstance(terms.fields, tuple)
    # the three bonds of a 4-site chain make one 16x16 block
    assert [(b.site, b.width) for b in terms.compiled] == [(1, 4)]
    for name in ("L", "bonds", "fields", "compiled"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(terms, name, getattr(terms, name))
    # the stored matrices are read-only copies, so the compiled form cannot go stale
    with pytest.raises(ValueError, match="read-only"):
        terms.bonds[0][1][0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        terms.fields[0][1][0, 0] = 2.0
    mat = np.diag([1.0, 0.0]).astype(complex)
    HamiltonianTerms(L=2, fields=[(1, mat)])
    mat[0, 0] = 3.0  # the caller's array stays writable


def test_apply_terms_is_one_kernel_call_per_bond_and_compiles_nothing(monkeypatch):
    terms = build_hamiltonian(ModelSpec(kind="xxz_staggered", L=9, J=1.0, delta=2.0, h_stag=0.5))
    amps = np.random.default_rng(3).standard_normal(2**9) + 0j
    calls = {"apply_two_site": 0, "compile_block": 0, "kron": 0, "ascontiguousarray": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(hamiltonian, "apply_two_site")
    counted(hilbert, "compile_block")
    counted(np, "kron")
    counted(np, "ascontiguousarray")
    out = apply_terms(terms, amps)
    apply_terms(terms, out)
    # at L = 9: the blocks on sites 1-5 and 5-9, one call each
    assert calls == {"apply_two_site": 2 * 2, "compile_block": 0, "kron": 0, "ascontiguousarray": 0}
    assert np.allclose(out, ref.xxz_staggered_matrix(9, delta=2.0, h_stag=0.5) @ amps, atol=1e-12)
