"""Amplitude rows, inner products, the half-chain entropy, and the site kernels."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from helpers import basis_state
from spintherm.hilbert import (
    BLOCK_SITES,
    apply_two_site,
    compile_block,
    compile_chain,
    entanglement_entropy,
    row_norms,
)


def random_state(L, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**L) + 1j * rng.standard_normal(2**L)
    return amps / np.linalg.norm(amps)


def test_inner_on_basis_states():
    up = basis_state(3)
    flipped = basis_state(3, down_sites=(2,))
    assert np.vdot(up, up) == pytest.approx(1.0)
    assert np.vdot(up, flipped) == pytest.approx(0.0)


def test_inner_matches_explicit_sum():
    a = random_state(5, 11)
    b = random_state(5, 12)
    expected = sum(np.conj(x) * y for x, y in zip(a, b))
    assert np.vdot(a, b) == pytest.approx(expected, abs=1e-13)
    # <a|a> is the squared norm and real
    assert np.vdot(a, a) == pytest.approx(np.linalg.norm(a) ** 2, abs=1e-13)
    assert abs(np.vdot(a, a).imag) <= 1e-14


def test_schmidt_product_state_is_pure():
    for L in range(2, 7):
        for down in ((), (1,), (1, L), tuple(range(1, L + 1, 2))):
            assert entanglement_entropy(basis_state(L, down_sites=down)) == pytest.approx(0.0, abs=1e-14)


def test_schmidt_bell_pair():
    # (|up,up> + |down,down>)/sqrt(2) on sites i, i+1, every other site up: ln 2 only when
    # the pair straddles the cut after site floor(L/2)
    for L in range(2, 8):
        for i in range(1, L):
            amps = np.zeros(2**L, dtype=complex)
            amps[0] = amps[3 << (i - 1)] = 1.0 / np.sqrt(2.0)
            want = np.log(2.0) if i == L // 2 else 0.0
            assert entanglement_entropy(amps) == pytest.approx(want, abs=1e-14), (L, i)


def test_schmidt_matches_reduced_density_matrix():
    # -sum lam ln lam over the reduced density matrix of sites 1..floor(L/2), odd L included
    for L in range(2, 10):
        state = random_state(L, 21 + L)
        lam = ref.reduced_density_eigs(state, L // 2, L)
        lam = lam[lam > 0.0]
        ent = entanglement_entropy(state)
        assert ent == pytest.approx(-np.sum(lam * np.log(lam)), abs=1e-10), L
        assert 0.0 <= ent <= (L // 2) * np.log(2.0) + 1e-12


def test_entropy_does_not_depend_on_the_norm_or_phase():
    for L in (2, 5, 8, 11):
        rows = np.array([random_state(L, seed) for seed in range(4)])
        ent = entanglement_entropy(rows)
        for c in (0.5, 2.0, 1j, 3 - 4j):
            assert np.max(np.abs(entanglement_entropy(c * rows) - ent)) <= 1e-14, (L, c)


def test_state_vector_validation():
    # a state is a row of 2**L amplitudes, L >= 2; its norm must be nonzero and finite
    for shape in ((), (2,), (5,), (3, 6), (1, 0)):
        with pytest.raises(ValueError, match="is not"):
            entanglement_entropy(np.zeros(shape, dtype=complex))
    # the entropy refuses such a row itself, before LAPACK's SVD sees it
    for rows in (np.zeros((2, 4)), np.array([[1.0, 0, 0, 0], [np.inf, 0, 0, 0]]), np.full((1, 4), np.nan),
                 np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]])):
        for check in (row_norms, entanglement_entropy):
            with pytest.raises(ValueError, match="^degenerate state"):
                check(rows)
    with pytest.raises(ValueError, match="rows"):
        row_norms(np.ones(4))


def test_basis_state_bit_convention():
    # site i occupies bit i-1: flipping site 3 of 4 lands on index 4
    state = basis_state(4, down_sites=(3,))
    assert state[4] == 1.0
    with pytest.raises(ValueError, match="outside"):
        basis_state(3, down_sites=(4,))


def test_apply_two_site_left_major_convention():
    # |up,up,...> -> |down,up,...> on the block: only its left site flips
    for width, cases in ((2, ((3, 1), (3, 2), (4, 3))), (4, ((4, 1), (6, 3), (9, 5)))):
        mat = np.zeros((1 << width, 1 << width), dtype=complex)
        mat[1 << (width - 1), 0] = 1.0  # the row whose major (left-site) bit is set
        for L, site in cases:
            up = np.zeros(2**L, dtype=complex)
            up[0] = 1.0
            out = apply_two_site(up, compile_block(mat, site, L))
            expected = np.zeros(2**L, dtype=complex)
            expected[1 << (site - 1)] = 1.0
            assert np.array_equal(out, expected)


def test_apply_two_site_matches_embedding():
    rng = np.random.default_rng(6)
    amps = rng.standard_normal(2**6) + 1j * rng.standard_normal(2**6)
    for site in range(1, 6):
        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        expected = ref.embed_pair_matrix(mat, site, 6) @ amps
        assert np.allclose(apply_two_site(amps, compile_block(mat, site, 6)), expected, atol=1e-12)
    for site in range(1, 4):
        mat = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        expected = ref.embed_block_matrix(mat, site, 6) @ amps
        assert np.allclose(apply_two_site(amps, compile_block(mat, site, 6)), expected, atol=1e-12)


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


@settings(max_examples=60, deadline=None)
@given(L=st.integers(2, 10), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_apply_two_site_matches_dense_on_random_terms(L, data, seed):
    # 4x4 bonds and 32x32 blocks at every site: the site-1 GEMM and the batched matmul
    width = data.draw(st.sampled_from([w for w in (2, BLOCK_SITES) if w <= L]))
    site = data.draw(st.integers(1, L - width + 1))
    rng = np.random.default_rng(seed)
    mat = random_hermitian(rng, 1 << width)
    amps = random_state(L, seed)
    expected = ref.embed_block_matrix(mat, site, L) @ amps
    assert np.allclose(apply_two_site(amps, compile_block(mat, site, L)), expected, rtol=0.0, atol=1e-12)


def test_apply_kernels_reject_bad_sites():
    amps = np.zeros(8, dtype=complex)
    with pytest.raises(ValueError, match=r"block site must be an integer in \[1, 2\], got 3"):
        compile_block(np.eye(4), 3, 3)
    with pytest.raises(ValueError, match="block site"):
        compile_block(np.eye(4), 0, 3)
    with pytest.raises(ValueError, match="block site"):
        compile_block(np.eye(16), 2, 4)
    with pytest.raises(ValueError, match="block site"):
        compile_block(np.eye(4), 2.0, 3)
    assert compile_block(np.eye(4), np.int64(2), 3).site == 2
    for shape in ((2, 2), (6, 6), (4, 8), (4,)):
        with pytest.raises(ValueError, match="shape"):
            compile_block(np.ones(shape), 1, 3)
    with pytest.raises(ValueError, match="does not match 4 sites"):
        apply_two_site(amps, compile_block(np.eye(4), 1, 4))


def test_compiled_bond_size_and_form():
    # one form at every site and width: the 2**width x 2**width operator in
    # memory order (rightmost site in the highest bit), read-only
    for L in (BLOCK_SITES, 12):
        for width in range(2, BLOCK_SITES + 1):
            dim = 1 << width
            mat = np.arange(dim * dim, dtype=float).reshape(dim, dim)
            order = tuple(reversed(range(width)))
            mem = mat.reshape((2,) * 2 * width).transpose(order + tuple(width + a for a in order)).reshape(dim, dim)
            for site in range(1, L - width + 2):
                block = compile_block(mat, site, L)
                assert (block.site, block.width, block.num_sites) == (site, width, L)
                assert np.array_equal(block.matrix, mem)
                assert block.matrix.flags.c_contiguous
                with pytest.raises(ValueError, match="read-only"):
                    block.matrix[0, 0] = 1.0


@pytest.mark.parametrize("L", range(2, 17))
def test_partition_bonds_covers_each_bond_once(L):
    # compile_chain's partition of the bonds: blocks of bonds s .. s+3 (sites
    # s .. s+4), s = 1, 5, 9, ..., in ascending s, the last one with the 1-3 left
    rng = np.random.default_rng(L)
    ops = [random_hermitian(rng, 4) for _ in range(L - 1)]
    fused = []

    def fuse(lifted):
        fused.append(lifted)
        return sum(lifted)

    compiled = compile_chain(ops, fuse)
    starts = list(range(1, L, BLOCK_SITES - 1))
    assert [(b.site, b.width) for b in compiled] == [(s, min(BLOCK_SITES, L - s + 1)) for s in starts]
    assert len(compiled) == -(-(L - 1) // 4)  # 3 at L = 12, 4 at L = 14
    # each lifted bond is its bond embedded in the block's left-major basis
    assert len(fused) == len(starts)
    for b, lifted in zip(compiled, fused):
        assert len(lifted) == b.width - 1
        for j, op in enumerate(lifted):
            want = ref.embed_pair_matrix(ops[b.site + j - 1], j + 1, b.width)
            assert np.array_equal(ref.embed_block_matrix(op, 1, b.width), want)
        assert np.array_equal(b.matrix, compile_block(sum(lifted), b.site, L).matrix)


def _random_unitary(rng):
    q, r = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("L", range(2, 17))
def test_compiled_chain_matches_bond_by_bond(L):
    # whatever the layout: the compiled H is the sum of its 4x4 bonds, and one
    # compiled Trotter step is its even bonds, then its odd bonds, one at a
    # time; and each row applied alone keeps the bits it has in the batch
    rng = np.random.default_rng(100 + L)
    terms = [random_hermitian(rng, 4) for _ in range(L - 1)]
    gates = [_random_unitary(rng) for _ in range(L - 1)]
    rows = rng.standard_normal((2, 2**L)) + 1j * rng.standard_normal((2, 2**L))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    bonds = range(1, L)

    compiled_h = compile_chain(terms, sum)
    compiled_step = compile_chain(gates, lambda lifted: reduce(np.matmul, lifted[0::2] + lifted[1::2]))

    def h(amps):
        return sum(apply_two_site(amps, block) for block in compiled_h)

    def step(amps):
        return reduce(apply_two_site, compiled_step, amps)

    want = sum(apply_two_site(rows, compile_block(terms[i - 1], i, L)) for i in bonds)
    got = h(rows)
    assert np.abs(got - want).max() <= 1e-12
    for row, batched in zip(rows, got):
        assert np.array_equal(h(row), batched)

    want = rows
    for i in [i for i in bonds if i % 2 == 0] + [i for i in bonds if i % 2 == 1]:
        want = apply_two_site(want, compile_block(gates[i - 1], i, L))
    got = step(rows)
    assert np.abs(got - want).max() <= 1e-12
    for row, batched in zip(rows, got):
        assert np.array_equal(step(row), batched)
