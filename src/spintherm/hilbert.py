"""State vectors and basis conventions for open spin-1/2 chains.

Basis convention used throughout the package: a chain of L sites is
stored as a flat array of 2**L complex amplitudes indexed by an integer
b whose bit (i - 1) holds the configuration of site i (sites are
1-based).  Bit value 0 means spin up (S^z = +1/2), bit value 1 means
spin down.  Site 1 is therefore the fastest-running index of the
amplitude array.  All logarithms are natural.

A StateVector keeps its amplitudes near unit norm and tracks the true
magnitude separately in ``log_norm_offset``: the represented vector is
exp(log_norm_offset) * amplitudes.  This keeps imaginary-time weights
exp(-beta*E) representable far beyond float range.

Every chain operator reaches a state through one kernel,
``apply_two_site``, which applies a bond compiled once by
``compile_bond``: a 4x4 matrix on sites (i, i+1) permuted to memory
order (site i+1 in the higher bit).  On the low sites, where the 2**(i-1)
amplitudes below the bond are few, the compiled matrix is
``kron(mem, I_inner).T`` instead, so the contraction is one
(outer, 4*inner) @ (4*inner, 4*inner) product rather than thousands of
tiny 4x4 ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StateVector",
    "normalize",
    "schmidt_spectrum",
    "CompiledBond",
    "compile_bond",
    "apply_two_site",
]

# Largest inner dimension 2**(site-1) stored in the kron(mem, I_inner).T
# form.  At L = 12 and 14 (complex128, OpenBLAS on one thread of a 2-core
# x86 box) that form beats the stacked 4x4 matmul by 2-15x for inner <= 8
# and loses by 1.3-4x from 16 on.
SMALL_INNER = 8


@dataclass
class StateVector:
    """Amplitudes of a pure state plus a logarithmic scale factor.

    Attributes
    ----------
    amplitudes : np.ndarray
        Complex array of length 2**num_sites.
    log_norm_offset : float
        Natural log of the scale carried outside the amplitudes.
    num_sites : int
        Chain length L >= 2.
    """

    amplitudes: np.ndarray
    log_norm_offset: float
    num_sites: int

    def __post_init__(self) -> None:
        if self.num_sites < 2:
            raise ValueError(f"num_sites must be >= 2, got {self.num_sites}")
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (2**self.num_sites,):
            raise ValueError(
                f"amplitude array of shape {self.amplitudes.shape} does not match "
                f"2**{self.num_sites} sites"
            )
        if not np.isfinite(self.log_norm_offset):
            raise ValueError("log_norm_offset must be finite")


def normalize(state: StateVector) -> StateVector:
    """Return a unit-norm copy, folding the norm into log_norm_offset.

    Raises ValueError on a zero (degenerate) state.
    """
    nrm = float(np.linalg.norm(state.amplitudes))
    if nrm == 0.0 or not np.isfinite(nrm):
        raise ValueError("degenerate state: cannot normalize zero or non-finite norm")
    return StateVector(
        state.amplitudes / nrm,
        state.log_norm_offset + np.log(nrm),
        state.num_sites,
    )


def schmidt_spectrum(state: StateVector, cut_after: int) -> np.ndarray:
    """Squared Schmidt coefficients across the cut after site ``cut_after``.

    The left block holds sites 1..cut_after, the right block the rest.
    Returns the descending eigenvalues of either reduced density matrix;
    they sum to the squared norm of the amplitudes (1 for a normalized
    state).
    """
    L = state.num_sites
    if not 1 <= cut_after <= L - 1:
        raise ValueError(f"cut_after must be in [1, {L - 1}], got {cut_after}")
    # Left sites live in the low bits, so the row index of the reshape
    # enumerates the right block.
    mat = state.amplitudes.reshape(2 ** (L - cut_after), 2**cut_after)
    svals = np.linalg.svd(mat, compute_uv=False)
    return svals**2


@dataclass(frozen=True, eq=False)
class CompiledBond:
    """A 4x4 operator on sites (site, site+1), stored ready for apply_two_site.

    ``matrix`` is read-only: the operator in memory order when the inner
    dimension 2**(site-1) exceeds SMALL_INNER, else kron(mem, I_inner).T,
    a square of side 4 * 2**(site-1).
    """

    site: int
    num_sites: int
    matrix: np.ndarray


def compile_bond(mat4: np.ndarray, site: int, num_sites: int) -> CompiledBond:
    """Compile a 4x4 operator on sites (site, site+1) of an L-site chain.

    ``mat4`` is given in the two-site basis |s_site, s_site+1> ordered
    with the left site as the major index (index 2*s_site + s_site+1).
    """
    if not 1 <= site <= num_sites - 1:
        raise ValueError(f"bond ({site},{site + 1}) outside chain of {num_sites} sites")
    mat4 = np.asarray(mat4, dtype=np.complex128)
    if mat4.shape != (4, 4):
        raise ValueError(f"bond matrix has shape {mat4.shape}, expected (4, 4)")
    # Storage puts site+1 in the higher bit: permute to that ordering once.
    mem = mat4.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    inner_dim = 1 << (site - 1)
    if inner_dim <= SMALL_INNER:
        # kron(mem, I).T = kron(mem.T, I), spelled as a broadcast product
        eye = np.eye(inner_dim)
        mem = (mem.T[:, None, :, None] * eye[None, :, None, :]).reshape(4 * inner_dim, 4 * inner_dim)
    matrix = np.ascontiguousarray(mem)
    matrix.setflags(write=False)
    return CompiledBond(site, num_sites, matrix)


def apply_two_site(amps: np.ndarray, bond: CompiledBond) -> np.ndarray:
    """Apply a compiled bond to a flat amplitude array; returns a new array."""
    if amps.shape != (1 << bond.num_sites,):
        raise ValueError(
            f"amplitude array of shape {amps.shape} does not match {bond.num_sites} sites"
        )
    inner_dim = 1 << (bond.site - 1)
    if inner_dim <= SMALL_INNER:
        return (amps.reshape(-1, 4 * inner_dim) @ bond.matrix).reshape(amps.shape)
    return np.matmul(bond.matrix, amps.reshape(-1, 4, inner_dim)).reshape(amps.shape)
