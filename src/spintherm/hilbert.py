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
``compile_block``: a 2**k x 2**k matrix on k neighbouring sites (up to a
32x32 block of BLOCK_SITES = 5 sites) permuted to memory order (the
rightmost site in the highest bit).  That matrix is the one compiled form;
the kernel picks the contraction from the block's site (``apply_two_site``).
Every local matrix handed in (a bond or field term, a bond gate) passes
one check, ``checked_matrix``.

``compile_chain`` builds every chain operator from its L - 1 bond
operators and is the one place that knows the block layout and the order
of a step.  Block j holds the four bonds s .. s+3 (sites s .. s+4), s = 1,
5, 9, ..., and the last block the 1-3 bonds left; neighbouring blocks share
a site.  The caller fuses each block's bonds into one matrix: H sums them,
a Trotter step multiplies them with the block's even bonds acting first.
The blocks are applied in ascending s.  Each starts at an odd bond, so
every even gate still acts before the odd gates that touch its sites, and
the step is the even-then-odd step exactly.  The H matvec and a Trotter
step then pass over the state ceil((L - 1) / 4) times instead of L - 1: 2
at L = 8, 3 at L = 10 and 12, 4 at L = 14 and 16 (gate fusion as in
state-vector simulators: Haener & Steiger, SC'17; the qsim gate fuser).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "chain_length",
    "row_norms",
    "schmidt_spectrum",
    "BLOCK_SITES",
    "kron",
    "checked_matrix",
    "CompiledBlock",
    "compile_block",
    "compile_chain",
    "apply_two_site",
]

# Sites per fused block, BLOCK_SITES - 1 = 4 bonds.  The bond count must be
# even: then every block starts at an odd bond and a step can apply the
# blocks one after another.  At L = 8 to 16 (one BLAS thread, 2-core x86)
# these 32x32 blocks cut the H matvec by 19-46 % and a Trotter step by
# 17-45 % against 4-site blocks with the bonds between them applied alone.
# 6-site blocks (64x64) were no faster: they cost 64 complex MACs per
# amplitude, twice a 5-site block.
BLOCK_SITES = 5


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


def checked_matrix(name: str, mat, dim: int) -> np.ndarray:
    """A read-only complex128 copy of ``mat``; ValueError naming ``name`` unless it is dim x dim and finite."""
    mat = np.array(mat, dtype=np.complex128)
    if mat.shape != (dim, dim):
        raise ValueError(f"{name} has shape {mat.shape}, expected ({dim}, {dim})")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} has non-finite entries")
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True, eq=False)
class CompiledBlock:
    """An operator on sites site .. site+width-1, stored ready for apply_two_site.

    ``matrix`` is read-only: the 2**width x 2**width operator in memory
    order (rightmost site in the highest bit).
    """

    site: int
    width: int
    num_sites: int
    matrix: np.ndarray


def compile_block(mat: np.ndarray, site: int, num_sites: int) -> CompiledBlock:
    """Compile an operator on the sites site, site+1, ... of an L-site chain.

    ``mat`` is a 2**width x 2**width matrix (a 4x4 bond, ..., a 32x32 block
    of BLOCK_SITES sites); its shape gives the width.  It is given in the
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
    matrix = mat.reshape((2,) * 2 * width).transpose(order + tuple(width + a for a in order)).reshape(dim, dim)
    matrix.setflags(write=False)
    return CompiledBlock(site, width, num_sites, matrix)


def compile_chain(ops, fuse) -> tuple[CompiledBlock, ...]:
    """Compile the 4x4 operators of bonds 1..L-1 (``ops[i - 1]`` on bond i) of an L-site chain.

    ``fuse(lifted)`` returns the matrix of one block on sites s .. s+n,
    given the operators ``lifted[j]`` of its n <= BLOCK_SITES - 1 bonds
    s + j lifted to the block's 2**(n+1)-dim basis (site s major), so
    ``lifted[0::2]`` are its odd bonds and ``lifted[1::2]`` its even ones.
    Returns the ceil((L - 1) / 4) compiled blocks in application order,
    ascending s (module docstring).
    """
    num_sites, bonds = len(ops) + 1, BLOCK_SITES - 1
    blocks = []
    for s in range(1, num_sites, bonds):
        block = ops[s - 1 : s - 1 + bonds]
        lifted = [kron(kron(np.eye(1 << j), op), np.eye(1 << (len(block) - 1 - j))) for j, op in enumerate(block)]
        blocks.append(compile_block(fuse(lifted), s, num_sites))
    return tuple(blocks)


def apply_two_site(amps: np.ndarray, block: CompiledBlock) -> np.ndarray:
    """Apply a compiled block to every row of an amplitude array, shape (..., 2**L); returns a new array.

    The name is kept from when every block was a two-site bond: it is the
    one kernel through which every chain operator reaches a state.  A block
    on site 1 that is narrower than the chain is one GEMM over the rows of
    ``amps.reshape(-1, dim)``, where a batched matmul over its inner index
    of 1 would be thousands of tiny products.  Being narrower gives at
    least two GEMM rows per state: a single row would go to GEMV, and a
    state alone would then round differently from the same state among the
    rows of a batch.  Every other block, a whole-chain one included, is a
    batched matmul over the 2**(site-1) amplitudes below it.
    """
    if amps.ndim == 0 or amps.shape[-1] != 1 << block.num_sites:
        raise ValueError(
            f"amplitude array of shape {amps.shape} does not match {block.num_sites} sites"
        )
    dim = 1 << block.width
    if block.site == 1 and block.width < block.num_sites:
        return (amps.reshape(-1, dim) @ block.matrix.T).reshape(amps.shape)
    return np.matmul(block.matrix, amps.reshape(-1, dim, 1 << (block.site - 1))).reshape(amps.shape)
