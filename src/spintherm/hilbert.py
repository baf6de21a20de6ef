"""State vectors and basis conventions for open spin-1/2 chains.

Basis convention used throughout the package: a chain of L sites is
stored as a flat array of 2**L complex amplitudes indexed by an integer
b whose bit (i - 1) holds the configuration of site i (sites are
1-based).  Bit value 0 means spin up (S^z = +1/2), bit value 1 means
spin down.  Site 1 is therefore the fastest-running index of the
amplitude array.  All logarithms are natural.

States are the rows of an amplitude array of shape (..., 2**L): one
state is a (2**L,) array, a batch of B states a (B, 2**L) one.  A routine
that changes norms returns its rows at unit norm together with the ln of
the norms it divided out, which keeps imaginary-time weights
exp(-beta*E) representable far beyond float range.

Every chain operator reaches a state through one kernel,
``apply_two_site``, which applies a block compiled once by
``compile_block``: a 2**k x 2**k matrix on k neighbouring sites (a 4x4
bond, or a 16x16 block of BLOCK_SITES = 4 sites) permuted to memory order
(the rightmost site in the highest bit).  On the low sites, where the
2**(site-1) amplitudes below the block are few, the compiled matrix is
``kron(mem, I_inner).T`` instead, so the contraction is one GEMM rather
than thousands of tiny ones.  That form needs at least two GEMM rows per
state: a single row would go to GEMV, and a state alone would then round
differently from the same state among the rows of a batch.

``compile_chain`` builds every chain operator from its L - 1 bond
operators and is the one place that knows the block layout and the order
of a step.  The bonds of sites s .. s+3, s = 1, 5, 9, ..., form a 4-site
block while it fits the chain, and the caller fuses each block's three
bonds into one matrix (H sums them, a Trotter step multiplies them).  The
entries come in application order: the even bonds outside every block,
the blocks, then the odd bonds past the last block; each group acts on
disjoint sites, so a step still applies its even bonds first.  The H
matvec and a Trotter step then pass over the state L - 1 - 2 (L // 4)
times instead of L - 1: 7 passes at L = 14, 5 at L = 12 (gate fusion as
in state-vector simulators: Haener & Steiger, SC'17; the qsim gate fuser).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "chain_length",
    "row_norms",
    "schmidt_spectrum",
    "BLOCK_SITES",
    "SMALL_SIDE",
    "kron",
    "CompiledBlock",
    "compile_block",
    "compile_chain",
    "apply_two_site",
]

# Sites per fused block.  It must be even: every block starts at an odd
# site, so its outer bonds are odd ones and a Trotter step can fold its
# odd gates and its inner even gates into one block.  At L = 12 and 14 (one
# BLAS thread, 2-core x86) 4-site blocks cut the time of the 2L-step brick
# by 30-50 % and of the H matvec by 15-35 %; a 6-site prototype was no
# faster.
BLOCK_SITES = 4

# Largest side 2**width * 2**(site-1) of a compiled matrix kept in the
# kron(mem, I_inner).T form.  At L = 12 and 14 (complex128, OpenBLAS on one
# thread of a 2-core x86 box) that form beats the batched matmul by 1.5-20x
# up to side 32, for 4x4 bonds and 16x16 blocks alike; it ties or loses at
# side 64 and loses by 2-150x beyond.
SMALL_SIDE = 32


def chain_length(amps: np.ndarray) -> int:
    """Chain length L of an amplitude array of shape (..., 2**L); ValueError unless L >= 2."""
    size = amps.shape[-1] if amps.ndim else 0
    L = size.bit_length() - 1
    if L < 2 or size != 1 << L:
        raise ValueError(f"amplitude array of shape {amps.shape} is not (..., 2**L) with L >= 2 sites")
    return L


def row_norms(rows: np.ndarray) -> np.ndarray:
    """|row| of each row of a (B, N) array; ValueError on a zero or non-finite norm.

    One np.linalg.norm per row: the same sum for a row alone or in a batch.
    """
    if rows.ndim != 2:
        raise ValueError(f"expected a (B, N) array of rows, got shape {rows.shape}")
    nrm = np.array([np.linalg.norm(row) for row in rows])
    if not (np.isfinite(nrm).all() and nrm.all()):
        raise ValueError("degenerate state: zero norm or non-finite amplitudes")
    return nrm


def schmidt_spectrum(amps: np.ndarray, cut_after: int) -> np.ndarray:
    """Squared Schmidt coefficients of each row of ``amps`` (..., 2**L) across the cut after site ``cut_after``.

    The left block holds sites 1..cut_after, the right block the rest.
    Returns, per row, the descending eigenvalues of either reduced density
    matrix; they sum to the squared norm of the row (1 for a unit row).
    One stacked SVD serves every row.
    """
    L = chain_length(amps)
    if not 1 <= cut_after <= L - 1:
        raise ValueError(f"cut_after must be in [1, {L - 1}], got {cut_after}")
    # Left sites live in the low bits, so the row index of the reshape
    # enumerates the right block.
    mat = amps.reshape(amps.shape[:-1] + (2 ** (L - cut_after), 2**cut_after))
    svals = np.linalg.svd(mat, compute_uv=False)
    return svals**2


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices as one broadcast product, without np.kron's per-call overhead."""
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(rows, cols)


@dataclass(frozen=True, eq=False)
class CompiledBlock:
    """An operator on sites site .. site+width-1, stored ready for apply_two_site.

    ``matrix`` is read-only: the 2**width x 2**width operator in memory
    order, or kron(mem, I_inner).T, a square of side 2**width * inner with
    inner = 2**(site-1), when that side is at most SMALL_SIDE and half the
    state.
    """

    site: int
    width: int
    num_sites: int
    matrix: np.ndarray


def compile_block(mat: np.ndarray, site: int, num_sites: int) -> CompiledBlock:
    """Compile an operator on the sites site, site+1, ... of an L-site chain.

    ``mat`` is a 2**width x 2**width matrix (a 4x4 bond, a 16x16 block of
    BLOCK_SITES sites, ...); its shape gives the width.  It is given in the
    product basis |s_site, s_site+1, ...> with the leftmost site as the
    major index (a bond's index is 2*s_site + s_site+1).
    """
    mat = np.asarray(mat, dtype=np.complex128)
    dim = mat.shape[0] if mat.ndim == 2 else 0
    width = dim.bit_length() - 1
    if width < 2 or mat.shape != (dim, dim) or dim != 1 << width:
        raise ValueError(f"block matrix has shape {mat.shape}, expected (2**k, 2**k) with k >= 2")
    if not 1 <= site <= num_sites - width + 1:
        raise ValueError(f"block on sites {site}..{site + width - 1} outside chain of {num_sites} sites")
    # Storage puts the rightmost site in the highest bit: reverse the site order once.
    order = tuple(reversed(range(width)))
    mem = mat.reshape((2,) * 2 * width).transpose(order + tuple(width + a for a in order)).reshape(dim, dim)
    inner_dim = 1 << (site - 1)
    if dim * inner_dim <= min(SMALL_SIDE, 1 << (num_sites - 1)):
        mem = kron(mem.T, np.eye(inner_dim))  # = kron(mem, I_inner).T
    matrix = np.ascontiguousarray(mem)
    matrix.setflags(write=False)
    return CompiledBlock(site, width, num_sites, matrix)


# Identities on the j sites left or right of a bond inside a block (side 2**j).
_EYES = [np.eye(1 << j, dtype=np.complex128) for j in range(BLOCK_SITES - 1)]


def compile_chain(ops, fuse) -> tuple[CompiledBlock, ...]:
    """Compile the 4x4 operators of bonds 1..L-1 (``ops[i - 1]`` on bond i) of an L-site chain.

    ``fuse(lifted)`` returns the matrix of one block on sites s ..
    s+BLOCK_SITES-1, given the operators ``lifted[j]`` of its bonds s + j
    lifted to the block's 2**BLOCK_SITES-dim basis (site s major), so
    ``lifted[0::2]`` are its odd bonds and ``lifted[1::2]`` its even one.
    Returns the compiled entries in application order (module docstring).
    """
    num_sites = len(ops) + 1
    covered = num_sites - num_sites % BLOCK_SITES  # sites 1..covered lie in blocks
    blocks = [
        (s, fuse([kron(kron(_EYES[j], ops[s - 1 + j]), _EYES[BLOCK_SITES - 2 - j]) for j in range(BLOCK_SITES - 1)]))
        for s in range(1, covered, BLOCK_SITES)
    ]
    outside = [(i, op) for i, op in enumerate(ops, start=1) if i % BLOCK_SITES == 0 or i >= covered]
    order = [b for b in outside if b[0] % 2 == 0] + blocks + [b for b in outside if b[0] % 2 == 1]
    return tuple(compile_block(mat, i, num_sites) for i, mat in order)


def apply_two_site(amps: np.ndarray, block: CompiledBlock) -> np.ndarray:
    """Apply a compiled block to every row of an amplitude array, shape (..., 2**L); returns a new array.

    The name is kept from when every block was a two-site bond: it is the
    one kernel through which every chain operator reaches a state.  Both
    forms fold the leading axes into the rows of one product.
    """
    if amps.ndim == 0 or amps.shape[-1] != 1 << block.num_sites:
        raise ValueError(
            f"amplitude array of shape {amps.shape} does not match {block.num_sites} sites"
        )
    dim = 1 << block.width
    inner_dim = 1 << (block.site - 1)
    if dim * inner_dim <= min(SMALL_SIDE, 1 << (block.num_sites - 1)):
        return (amps.reshape(-1, dim * inner_dim) @ block.matrix).reshape(amps.shape)
    return np.matmul(block.matrix, amps.reshape(-1, dim, inner_dim)).reshape(amps.shape)
