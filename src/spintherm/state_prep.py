"""Initial-state sampling and Trotter scrambling circuits.

Two families of random initial states are provided: full Haar-random
vectors (normalized complex Gaussians) and random-phase product states,
where each site carries independent uniform phases on its up and down
components.  Product states carry zero entanglement; applying a few
layers of two-site Trotter gates built from a nonintegrable chain
scrambles them toward volume-law entanglement while keeping the
preparation cost at L - 1 gates per step.  Each gate passes the one
local-matrix check, ``hilbert.checked_matrix``, and a step is compiled
once by ``hilbert.compile_chain``, so the brick and the H matvec run
through the same kernel.  ``scramble`` runs the brick on the rows of a
(B, 2**L) array in lockstep, one kernel call per compiled entry for all B
rows; the run command takes B from L (cli.BATCH_AMPLITUDES).  A sampler
returns one state as a (2**L,) array; stacked, the draws are such rows.

Randomness is derived per sample from (master_seed, sample_index)
through numpy's SeedSequence, so sample m is the same bit pattern no
matter which worker draws it or in which order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .hamiltonian import ModelSpec, bond_generators, model_terms
from .hilbert import CompiledBlock, apply_two_site, checked_matrix, compile_chain, row_norms

__all__ = [
    "MAX_TAU",
    "SampleSeed",
    "TrotterCircuit",
    "sample_rpps",
    "sample_haar",
    "build_trotter_circuit",
    "scramble",
]


@dataclass(frozen=True)
class SampleSeed:
    """Deterministic per-sample RNG root.

    The generator is a pure function of (master_seed, sample_index):
    distinct indices give statistically independent streams and the
    same index always reproduces the same stream.
    """

    master_seed: int
    sample_index: int

    def __post_init__(self) -> None:
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.sample_index < 0:
            raise ValueError("sample_index must be nonnegative")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.sample_index,))
        )


def sample_rpps(num_sites: int, seed: SampleSeed) -> np.ndarray:
    """Random-phase product state: (e^{i a_i}|up> + e^{i b_i}|down>)/sqrt(2).

    Consumes exactly 2*num_sites uniform phases (site order, up before
    down).  The result, a (2**L,) complex128 array, is unit-normalized with
    every amplitude of modulus 2**(-L/2), and has zero entanglement across
    every cut.
    """
    if num_sites < 2:
        raise ValueError(f"num_sites must be >= 2, got {num_sites}")
    rng = seed.generator()
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(num_sites, 2))
    local = np.exp(1j * phases) / np.sqrt(2.0)
    amps = np.ones(1, dtype=np.complex128)
    for site in local:
        amps = (site[:, None] * amps).ravel()  # the new site occupies the next-higher bit
    return amps


def sample_haar(num_sites: int, seed: SampleSeed) -> np.ndarray:
    """Haar-random state: 2**L complex standard Gaussians, normalized, as a (2**L,) array."""
    if num_sites < 2:
        raise ValueError(f"num_sites must be >= 2, got {num_sites}")
    rng = seed.generator()
    parts = rng.standard_normal((2, 2**num_sites))
    amps = parts[0] + 1j * parts[1]
    return amps / row_norms(amps[None])[0]


# Largest gate time tau a circuit accepts.  The paper's scramblers run at
# tau of order 1 to 10; at 1e300 the gate phase tau * lambda has a float
# spacing far above 2 pi, so the gates are arbitrary unitaries.  At 1e6 the
# phase is off by about 1e-10 rad with couplings of order 1, and by about
# 1e-3 rad with couplings at hamiltonian.MAX_COUPLING.
MAX_TAU = 1e6


@dataclass(frozen=True, eq=False)
class TrotterCircuit:
    """First-order Trotter steps U = exp(-i tau H_odd) exp(-i tau H_even), n_reps of them.

    ``bond_gates[i - 1]`` is the 4x4 gate on bond (i, i+1), left-major; it
    absorbs the field terms of its two sites (``hamiltonian.bond_generators``).
    It needs at least one gate, each passing ``hilbert.checked_matrix`` as a
    4x4, and an integer n_reps >= 0; the ValueError otherwise names the
    fault.  The object is immutable, and ``gates`` holds one step compiled
    at construction by ``hilbert.compile_chain``: ceil((L - 1) / 4) blocks
    of up to four gates, each fused with its even gates acting first.
    """

    bond_gates: tuple[np.ndarray, ...]
    n_reps: int
    gates: tuple[CompiledBlock, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        bond_gates = tuple(checked_matrix(f"bond gate at {i}", g, 4) for i, g in enumerate(self.bond_gates, start=1))
        if not bond_gates:
            raise ValueError("circuit needs at least one bond gate")
        if not (isinstance(self.n_reps, (int, np.integer)) and self.n_reps >= 0):
            raise ValueError(f"n_reps must be an integer >= 0, got {self.n_reps!r}")
        object.__setattr__(self, "bond_gates", bond_gates)
        fused = compile_chain(bond_gates, lambda lifted: reduce(np.matmul, lifted[0::2] + lifted[1::2]))
        object.__setattr__(self, "gates", fused)


def build_trotter_circuit(spec: ModelSpec, tau: float, n_reps: int) -> TrotterCircuit:
    """Exponentiate the per-bond generators into the bond gates.

    Each gate is V exp(-i tau lam) V^dag from the exact eigensystem of
    its Hermitian 4x4 generator, so unitarity holds to rounding.
    """
    if not 0.0 <= tau <= MAX_TAU:
        raise ValueError(f"tau must be in [0, {MAX_TAU:g}], got {tau}")
    gates = []
    for gen in bond_generators(spec.L, *model_terms(spec)):
        lam, vec = np.linalg.eigh(gen)
        gates.append((vec * np.exp(-1j * tau * lam)) @ vec.conj().T)
    return TrotterCircuit(gates, n_reps)


def scramble(rows: np.ndarray, circuit: TrotterCircuit) -> tuple[np.ndarray, np.ndarray]:
    """Run n_reps Trotter steps (even bonds first within each step) on every row of ``rows``, shape (B, 2**L).

    The rows step in lockstep: each kernel call applies one compiled entry
    of ``circuit.gates`` to all of them, and a row's amplitudes do not
    depend on the rows beside it.  Returns the rows re-normalized and the ln
    of their norms; the drift is rounding-level since every gate is unitary.
    """
    num_sites = circuit.gates[0].num_sites
    if rows.shape[-1] != 1 << num_sites:
        raise ValueError(f"circuit built for {num_sites} sites, rows of shape {rows.shape}")
    for _ in range(circuit.n_reps):
        for gate in circuit.gates:
            rows = apply_two_site(rows, gate)
    nrm = row_norms(rows)
    return rows / nrm[:, None], np.log(nrm)
