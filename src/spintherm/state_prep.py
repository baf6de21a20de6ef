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
returns such rows, one per sample index it is given.

Randomness is derived per sample from (master_seed, sample_index)
through numpy's SeedSequence, so sample m is the same bit pattern no
matter which worker draws it, in which batch or in which order.  Every
random draw in the package, the bootstrap's too, comes from a generator
of ``seeded_generator``, which loads only the parts of numpy.random it
uses.
"""

from __future__ import annotations

import os
import random
import sys
import types
from dataclasses import dataclass, field
from functools import cache, reduce
from typing import TYPE_CHECKING

import numpy as np

from .hamiltonian import ModelSpec, _bond_generators, model_terms
from .hilbert import CompiledBlock, apply_two_site, checked_int, checked_matrix, compile_chain, row_norms

if TYPE_CHECKING:
    from numpy.random import Generator

__all__ = [
    "MAX_TAU",
    "seeded_generator",
    "TrotterCircuit",
    "sample_rpps",
    "sample_haar",
    "build_trotter_circuit",
    "scramble",
]


def seeded_generator(entropy, spawn_key=()) -> Generator:
    """numpy's Generator(PCG64(SeedSequence(entropy, spawn_key=spawn_key))): default_rng's stream, bit for bit.

    numpy.random.default_rng itself is not called: reaching it through numpy
    imports the whole of numpy.random.
    """
    generator, pcg64, seed_sequence = _generator_classes()
    return generator(pcg64(seed_sequence(entropy, spawn_key=spawn_key)))


@cache
def _generator_classes() -> tuple[type, type, type]:
    """numpy.random's Generator, PCG64 and SeedSequence, loaded without the rest of numpy.random.

    Its __init__ also loads the legacy RandomState, MT19937, Philox and SFC64
    (0.7 MB resident), and its ``secrets`` import loads hmac, hashlib and
    libcrypto (3.6 MB) for unseeded generators; no run uses any of them.
    So unless numpy.random is loaded, the three modules are imported under a
    stand-in package on numpy's random/ directory and, unless ``secrets`` is
    loaded, a stand-in whose ``randbits`` is the real one's,
    SystemRandom().getrandbits.  Both are removed after, with the
    numpy.random submodules loaded under them: a later import of either runs
    the real module, and numpy.random's binds its submodules again, the
    three among them (a Cython module imported again is the one already made).
    """
    if "numpy.random" in sys.modules:
        rnd = sys.modules["numpy.random"]
        return rnd.Generator, rnd.PCG64, rnd.SeedSequence
    stand_ins = {name: types.ModuleType(name) for name in ("numpy.random", "secrets") if name not in sys.modules}
    stand_ins["numpy.random"].__path__ = [os.path.join(np.__path__[0], "random")]
    if "secrets" in stand_ins:
        stand_ins["secrets"].randbits = random.SystemRandom().getrandbits
    sys.modules.update(stand_ins)
    try:
        from numpy.random._generator import Generator
        from numpy.random._pcg64 import PCG64
        from numpy.random.bit_generator import SeedSequence
    finally:
        for name in [*stand_ins, *(m for m in sys.modules if m.startswith("numpy.random."))]:
            del sys.modules[name]
    return Generator, PCG64, SeedSequence


def _rows(num_sites: int, master_seed: int, samples, draw) -> np.ndarray:
    """The (B, 2**L) complex128 rows draw(generator) of the B sample indices ``samples``.

    Row i is drawn alone from seeded_generator(master_seed, (samples[i],)),
    so it does not depend on the rows beside it.  A ValueError names a bad
    num_sites, master_seed or sample_index.  The rows are stacked once all
    are drawn: an array made first would hold the batch through every draw.
    """
    checked_int("num_sites", num_sites, 2)
    master_seed = checked_int("master_seed", master_seed, 0)
    rows = [draw(seeded_generator(master_seed, (checked_int("sample_index", m, 0),))) for m in samples]
    return np.array(rows, dtype=np.complex128).reshape(len(rows), 2**num_sites)


def sample_rpps(num_sites: int, master_seed: int, samples) -> np.ndarray:
    """Random-phase product states (e^{i a_i}|up> + e^{i b_i}|down>)/sqrt(2), one row per sample index.

    Each row consumes exactly 2*num_sites uniform phases (site order, up
    before down); it is unit-normalized with every amplitude of modulus
    2**(-L/2), and has zero entanglement across every cut.
    """

    def draw(rng: Generator) -> np.ndarray:
        local = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(num_sites, 2))) / np.sqrt(2.0)
        amps = np.ones(1, dtype=np.complex128)
        for site in local:
            amps = (site[:, None] * amps).ravel()  # the new site occupies the next-higher bit
        return amps

    return _rows(num_sites, master_seed, samples, draw)


def sample_haar(num_sites: int, master_seed: int, samples) -> np.ndarray:
    """Haar-random states, one row per sample index: 2**L complex standard Gaussians, normalized."""

    def draw(rng: Generator) -> np.ndarray:
        parts = rng.standard_normal((2, 2**num_sites))
        amps = parts[0] + 1j * parts[1]
        return amps / row_norms(amps[None])[0]

    return _rows(num_sites, master_seed, samples, draw)


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
    absorbs the field terms of its two sites (``hamiltonian._bond_generators``).
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
        checked_int("n_reps", self.n_reps, 0)
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
    for gen in _bond_generators(spec.L, *model_terms(spec)):
        lam, vec = np.linalg.eigh(gen)
        gates.append((vec * np.exp(-1j * tau * lam)) @ vec.conj().T)
    return TrotterCircuit(gates, n_reps)


def scramble(rows: np.ndarray, circuit: TrotterCircuit) -> np.ndarray:
    """Run n_reps Trotter steps (even bonds first within each step) on every row of ``rows``, shape (B, 2**L).

    The rows step in lockstep: each kernel call applies one compiled entry
    of ``circuit.gates`` to all of them, and a row's amplitudes do not
    depend on the rows beside it.  Returns the stepped rows; every gate is
    unitary, so each keeps its norm to rounding.
    """
    num_sites = circuit.gates[0].num_sites
    if rows.shape[-1] != 1 << num_sites:
        raise ValueError(f"circuit built for {num_sites} sites, rows of shape {rows.shape}")
    for _ in range(circuit.n_reps):
        for gate in circuit.gates:
            rows = apply_two_site(rows, gate)
    return rows
