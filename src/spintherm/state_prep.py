"""Initial-state sampling and Trotter scrambling circuits.

Two families of random initial states are provided: full Haar-random
vectors (normalized complex Gaussians) and random-phase product states,
where each site carries independent uniform phases on its up and down
components.  Product states carry zero entanglement; applying a few
layers of two-site Trotter gates built from a nonintegrable chain
scrambles them toward volume-law entanglement while keeping the
preparation cost at L - 1 gates per step.  When the circuit is built,
``hilbert.partition_bonds`` groups the gates of one step into 4-site
blocks, each block's two odd gates and inner even gate are multiplied
into one 16x16 block, and every block and left-over gate is compiled once
into the memory-order form of ``hilbert.compile_block``.  A step is then
7 passes over the state at L = 14 (5 at L = 12) instead of L - 1, and the
brick and the H matvec run through the same kernel.

Randomness is derived per sample from (master_seed, sample_index)
through numpy's SeedSequence, so sample m is the same bit pattern no
matter which worker draws it or in which order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .hamiltonian import ModelSpec, bond_generators, model_terms
from .hilbert import CompiledBlock, StateVector, apply_two_site, compile_block, normalize, partition_bonds

__all__ = [
    "SampleSeed",
    "TrotterCircuit",
    "sample_rpps",
    "sample_haar",
    "build_trotter_circuit",
    "apply_circuit",
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


def sample_rpps(num_sites: int, seed: SampleSeed) -> StateVector:
    """Random-phase product state: (e^{i a_i}|up> + e^{i b_i}|down>)/sqrt(2).

    Consumes exactly 2*num_sites uniform phases (site order, up before
    down).  The result is unit-normalized with every amplitude of
    modulus 2**(-L/2), and has zero entanglement across every cut.
    """
    if num_sites < 2:
        raise ValueError(f"num_sites must be >= 2, got {num_sites}")
    rng = seed.generator()
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(num_sites, 2))
    amps = np.ones(1, dtype=np.complex128)
    for i in range(num_sites):
        local = np.exp(1j * phases[i]) / np.sqrt(2.0)
        # New site occupies the next-higher bit.
        amps = np.kron(local, amps)
    return StateVector(amps, 0.0, num_sites)


def sample_haar(num_sites: int, seed: SampleSeed) -> StateVector:
    """Haar-random state: 2**L complex standard Gaussians, normalized."""
    if num_sites < 2:
        raise ValueError(f"num_sites must be >= 2, got {num_sites}")
    rng = seed.generator()
    parts = rng.standard_normal((2, 2**num_sites))
    amps = parts[0] + 1j * parts[1]
    nrm = np.linalg.norm(amps)
    if nrm == 0.0:
        raise ValueError("degenerate state: zero-norm Gaussian draw")
    return StateVector(amps / nrm, 0.0, num_sites)


@dataclass(frozen=True, eq=False)
class TrotterCircuit:
    """One first-order Trotter step, U = exp(-i tau H_odd) exp(-i tau H_even).

    ``odd_layer`` holds the (i, gate) pairs on bonds (1,2), (3,4), ...; the
    even layer those on (2,3), (4,5), ....  Each gate absorbs the
    single-site field terms of its two sites, split half-half between the
    two bonds touching an interior site and in full at the chain ends (see
    ``hamiltonian.bond_generators``), so the layer generators sum exactly
    to the full Hamiltonian.  Applying the circuit repeats the even layer
    then the odd layer ``n_reps`` times.

    The layers hold odd and even bonds respectively, each bond at most
    once; a bond in neither layer is the identity.  The object is
    immutable: the layers are tuples of read-only gates, and ``gates``
    holds one step compiled at construction for a chain of one site more
    than the highest bond, grouped by ``hilbert.partition_bonds`` and in
    application order: the even gates outside every 4-site block (those
    straddling two blocks, and any past the last block), then per block
    the product odd . odd . (inner even) as one 16x16 block, then any odd
    gate past the last block.  The gates of one layer act on disjoint
    bonds and commute, so this order still applies the even layer first.
    """

    odd_layer: tuple[tuple[int, np.ndarray], ...]
    even_layer: tuple[tuple[int, np.ndarray], ...]
    tau: float
    n_reps: int
    gates: tuple[CompiledBlock, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        odd, even = (tuple((int(i), _read_only(gate)) for i, gate in layer)
                     for layer in (self.odd_layer, self.even_layer))
        object.__setattr__(self, "odd_layer", odd)
        object.__setattr__(self, "even_layer", even)
        by_bond = dict(odd + even)
        if len(by_bond) < len(odd + even) or any(i % 2 == 0 for i, _ in odd) or any(i % 2 for i, _ in even):
            raise ValueError("odd_layer must hold odd bonds and even_layer even ones, each bond once")
        num_sites = max(by_bond, default=0) + 1
        even_out, blocks, odd_out = partition_bonds([by_bond.get(i, _EYE4) for i in range(1, num_sites)])
        fused = [(s, reduce(np.matmul, lifted[0::2] + lifted[1::2])) for s, lifted in blocks]
        gates = tuple(compile_block(gate, i, num_sites) for i, gate in even_out + fused + odd_out)
        object.__setattr__(self, "gates", gates)


_EYE4 = np.eye(4, dtype=np.complex128)


def _read_only(mat) -> np.ndarray:
    mat = np.array(mat, dtype=np.complex128)
    mat.setflags(write=False)
    return mat


def build_trotter_circuit(spec: ModelSpec, tau: float, n_reps: int) -> TrotterCircuit:
    """Exponentiate the per-bond generators into the two gate layers.

    Each gate is V exp(-i tau lam) V^dag from the exact eigensystem of
    its Hermitian 4x4 generator, so unitarity holds to rounding.
    """
    if tau < 0.0 or not np.isfinite(tau):
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    if n_reps < 0:
        raise ValueError(f"n_reps must be >= 0, got {n_reps}")
    odd: list[tuple[int, np.ndarray]] = []
    even: list[tuple[int, np.ndarray]] = []
    for i, gen in bond_generators(spec.L, *model_terms(spec)):
        lam, vec = np.linalg.eigh(gen)
        gate = (vec * np.exp(-1j * tau * lam)) @ vec.conj().T
        (odd if i % 2 == 1 else even).append((i, gate))
    return TrotterCircuit(odd_layer=odd, even_layer=even, tau=tau, n_reps=n_reps)


def apply_circuit(state: StateVector, circuit: TrotterCircuit) -> StateVector:
    """Run n_reps Trotter steps (even layer first within each step).

    Each step applies the compiled ``circuit.gates`` in order.  The result
    is re-normalized; the drift is rounding-level since every gate is
    unitary.
    """
    if not circuit.gates:
        raise ValueError("circuit has no gates")
    num_sites = circuit.gates[0].num_sites
    if num_sites != state.num_sites:
        raise ValueError(f"circuit built for {num_sites} sites, state has {state.num_sites}")
    if circuit.n_reps == 0:
        return StateVector(state.amplitudes.copy(), state.log_norm_offset, state.num_sites)
    amps = state.amplitudes
    for _ in range(circuit.n_reps):
        for gate in circuit.gates:
            amps = apply_two_site(amps, gate)
    return normalize(StateVector(amps, state.log_norm_offset, state.num_sites))
