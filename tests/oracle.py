"""Dense ground truth for small chains.

Everything here builds the full 2**L x 2**L matrix and diagonalizes it
exactly, which is the one thing the production path never does.  It
exists to pin down correctness: exact thermal averages, exact real and
imaginary time evolution, and entrywise matrix comparisons.  Guarded by
a size cap (default L <= 12) so nobody dense-builds a large chain by
accident.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spintherm.hamiltonian import HamiltonianTerms

__all__ = [
    "DENSE_CAP",
    "DenseOperator",
    "dense_build",
    "exact_thermal",
    "exact_evolve",
]

DENSE_CAP = 12


@dataclass
class DenseOperator:
    """A Hermitian operator materialized as a full matrix."""

    matrix: np.ndarray
    L: int

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=np.complex128)
        dim = 2**self.L
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {self.matrix.shape} does not match L={self.L}")


def _embed_site(mat2: np.ndarray, site: int, L: int) -> np.ndarray:
    # Later sites occupy higher bits, so they sit on the left of the kron chain.
    return np.kron(np.eye(2 ** (L - site)), np.kron(mat2, np.eye(2 ** (site - 1))))


def _embed_bond(mat4: np.ndarray, site: int, L: int) -> np.ndarray:
    # Reorder |s_i s_i+1> (left-major) to the storage order where site+1
    # holds the higher bit.
    mem = mat4.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    return np.kron(np.eye(2 ** (L - site - 1)), np.kron(mem, np.eye(2 ** (site - 1))))


def dense_build(terms: HamiltonianTerms, cap: int = DENSE_CAP) -> DenseOperator:
    """Sum the Kronecker embeddings of every bond and field term."""
    if terms.L > cap:
        raise ValueError(f"refusing dense build at L={terms.L} (cap {cap})")
    dim = 2**terms.L
    out = np.zeros((dim, dim), dtype=np.complex128)
    for i, mat in terms.bonds:
        out += _embed_bond(np.asarray(mat, dtype=np.complex128), i, terms.L)
    for i, mat in terms.fields:
        out += _embed_site(np.asarray(mat, dtype=np.complex128), i, terms.L)
    return DenseOperator(out, terms.L)


def exact_thermal(
    hamiltonian: HamiltonianTerms,
    observable: HamiltonianTerms,
    beta: float,
    cap: int = DENSE_CAP,
) -> float:
    """Tr(O e^{-beta H}) / Tr(e^{-beta H}) by exact diagonalization.

    The spectrum is shifted by its extreme value before exponentiating,
    so large beta cannot overflow.
    """
    if beta < 0.0 or not np.isfinite(beta):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    h = dense_build(hamiltonian, cap=cap)
    o = dense_build(observable, cap=cap)
    energies, vecs = np.linalg.eigh(h.matrix)
    diag_o = np.einsum("ij,jk,ki->i", vecs.conj().T, o.matrix, vecs).real
    boltz = np.exp(-beta * (energies - energies.min()))
    return float(np.dot(diag_o, boltz) / boltz.sum())


def exact_evolve(op: DenseOperator, amps: np.ndarray, theta: float, kind: str) -> tuple[np.ndarray, float]:
    """Exact e^{-i theta H} (kind='real_time') or e^{-theta H} ('imag_time') of one (2**L,) state.

    Built from the full eigensystem.  Returns the evolved amplitudes and
    the ln of the norm divided out of them: imaginary time renormalizes
    and returns the exact log norm; real time is unitary and returns 0.
    """
    if amps.shape != (2**op.L,):
        raise ValueError(f"size mismatch: operator on {op.L} sites, state of shape {amps.shape}")
    if kind not in ("real_time", "imag_time"):
        raise ValueError(f"kind must be 'real_time' or 'imag_time', got {kind!r}")
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    energies, vecs = np.linalg.eigh(op.matrix)
    rotated = vecs.conj().T @ amps
    if kind == "real_time":
        return vecs @ (np.exp(-1j * theta * energies) * rotated), 0.0
    if theta < 0.0:
        raise ValueError(f"imag_time requires theta >= 0, got {theta}")
    # Factor out the dominant Boltzmann weight so theta ~ hundreds stays finite.
    shift = float(np.min(theta * energies))
    out = vecs @ (np.exp(-(theta * energies - shift)) * rotated)
    nrm = float(np.linalg.norm(out))
    if nrm == 0.0:
        raise ValueError("degenerate state: evolved norm vanished")
    return out / nrm, np.log(nrm) - shift
