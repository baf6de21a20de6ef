"""Initial-state sampling and Trotter scrambling circuits.

Two families of random initial states are provided: full Haar-random
vectors (normalized complex Gaussians) and random-phase product states,
where each site carries independent uniform phases on its up and down
components.  Product states carry zero entanglement; applying a few
layers of two-site Trotter gates built from a nonintegrable chain
scrambles them toward volume-law entanglement while keeping the
preparation cost at L - 1 gates per layer.

Randomness is derived per sample from (master_seed, sample_index)
through numpy's SeedSequence, so sample m is the same bit pattern no
matter which worker draws it or in which order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import ID2, HamiltonianTerms, ModelSpec, build_hamiltonian
from .hilbert import StateVector, apply_two_site, normalize

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


@dataclass
class TrotterCircuit:
    """One first-order Trotter step, U = exp(-i tau H_odd) exp(-i tau H_even).

    ``odd_layer`` holds the gates on bonds (1,2), (3,4), ...; the even
    layer those on (2,3), (4,5), ....  Each gate absorbs the single-site
    field terms of its two sites, split half-half between the two bonds
    touching an interior site and in full at the chain ends, so the
    layer generators sum exactly to the full Hamiltonian.  Applying the
    circuit repeats the even layer then the odd layer ``n_reps`` times.
    """

    odd_layer: list[tuple[int, np.ndarray]]
    even_layer: list[tuple[int, np.ndarray]]
    tau: float
    n_reps: int


def _field_on_sites(terms: HamiltonianTerms) -> dict[int, np.ndarray]:
    per_site: dict[int, np.ndarray] = {}
    for i, mat in terms.fields:
        per_site[i] = per_site.get(i, np.zeros((2, 2), dtype=np.complex128)) + mat
    return per_site


def bond_generators(terms: HamiltonianTerms) -> list[tuple[int, np.ndarray]]:
    """Per-bond 4x4 generators whose embeddings sum to the full operator.

    Bond (i, i+1) takes its own coupling plus half the field of each
    interior endpoint and the whole field of a chain-end endpoint.
    """
    L = terms.L
    per_site = _field_on_sites(terms)
    per_bond: dict[int, np.ndarray] = {i: np.zeros((4, 4), dtype=np.complex128) for i in range(1, L)}
    for i, mat in terms.bonds:
        per_bond[i] = per_bond[i] + mat
    for i, f in per_site.items():
        if i == 1:
            per_bond[1] = per_bond[1] + np.kron(f, ID2)
        elif i == L:
            per_bond[L - 1] = per_bond[L - 1] + np.kron(ID2, f)
        else:
            per_bond[i - 1] = per_bond[i - 1] + 0.5 * np.kron(ID2, f)
            per_bond[i] = per_bond[i] + 0.5 * np.kron(f, ID2)
    return [(i, per_bond[i]) for i in range(1, L)]


def build_trotter_circuit(spec: ModelSpec, tau: float, n_reps: int) -> TrotterCircuit:
    """Exponentiate the per-bond generators into the two gate layers.

    Each gate is V exp(-i tau lam) V^dag from the exact eigensystem of
    its Hermitian 4x4 generator, so unitarity holds to rounding.
    """
    if tau < 0.0 or not np.isfinite(tau):
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    if n_reps < 0:
        raise ValueError(f"n_reps must be >= 0, got {n_reps}")
    terms = build_hamiltonian(spec)
    odd: list[tuple[int, np.ndarray]] = []
    even: list[tuple[int, np.ndarray]] = []
    for i, gen in bond_generators(terms):
        lam, vec = np.linalg.eigh(gen)
        gate = (vec * np.exp(-1j * tau * lam)) @ vec.conj().T
        (odd if i % 2 == 1 else even).append((i, gate))
    return TrotterCircuit(odd_layer=odd, even_layer=even, tau=tau, n_reps=n_reps)


def apply_circuit(state: StateVector, circuit: TrotterCircuit) -> StateVector:
    """Run n_reps Trotter steps (even layer first within each step).

    Gates within a layer act on disjoint bonds and are applied in
    ascending bond order.  The result is re-normalized; the drift is
    rounding-level since every gate is unitary.
    """
    gates = circuit.odd_layer + circuit.even_layer
    if not gates:
        raise ValueError("circuit has no gates")
    max_bond = max(i for i, _ in gates)
    if max_bond != state.num_sites - 1:
        raise ValueError(
            f"circuit built for {max_bond + 1} sites, state has {state.num_sites}"
        )
    if circuit.n_reps == 0:
        return StateVector(state.amplitudes.copy(), state.log_norm_offset, state.num_sites)
    amps = state.amplitudes
    for _ in range(circuit.n_reps):
        for i, gate in circuit.even_layer:
            amps = apply_two_site(amps, gate, i, state.num_sites)
        for i, gate in circuit.odd_layer:
            amps = apply_two_site(amps, gate, i, state.num_sites)
    return normalize(StateVector(amps, state.log_norm_offset, state.num_sites))
