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
returns such rows, one per sample index it is given; ``sample_haar``
scales its stacked rows to unit norm in place (``hilbert._to_unit``).

Every random draw in the package, the bootstrap's too, is a value of one
counter-based stream, ``uniforms``: draw j of stream (seed, domain, index)
is a pure function of those four, the SplitMix64 finaliser of a counter
built from them (Steele, Lea & Flood, OOPSLA 2014).  So sample m is the
same bit pattern no matter which worker draws it, in which batch or in
which order, and no module of numpy.random is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .hamiltonian import ModelSpec, _bond_generators, model_terms
from .hilbert import CompiledBlock, _to_unit, apply_two_site, checked_int, checked_matrix, compile_chain, row_norms

__all__ = [
    "MAX_TAU",
    "uniforms",
    "TrotterCircuit",
    "sample_rpps",
    "sample_haar",
    "build_trotter_circuit",
    "scramble",
]

# A stream's domain: what its draws are for.
RPPS_PHASES, HAAR_GAUSSIANS, BOOTSTRAP_INDICES = 0, 1, 2
# SplitMix64's counter step (2**64 over the golden ratio), the step of 2**32 counters between the streams
# of one (seed, domain), and the finaliser's multipliers and shifts, as uint64: int operands cost more.
_GAMMA, _STREAM_STEP = np.uint64(0x9E3779B97F4A7C15), np.uint64((0x9E3779B97F4A7C15 << 32) % 2**64)
_M1, _M2, _S1, _S2, _S3 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB), *np.uint64([30, 27, 31])


def _mix(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64's finaliser (Stafford's variant 13) of each uint64 of the array z, in place, wrapping
    silently (numpy scalars would warn); ``scratch``, an array like z or None, holds the shifted copies."""
    shifted = np.right_shift(z, _S1, out=scratch)
    z ^= shifted
    z *= _M1
    z ^= np.right_shift(z, _S2, out=shifted)
    z *= _M2
    z ^= np.right_shift(z, _S3, out=shifted)
    return z


@lru_cache(maxsize=256)  # a run uses a few (seed, domain) pairs; a caller may use millions
def _start(seed: tuple[int, ...], domain: int) -> np.ndarray:
    """The (1,) state h of (seed, domain): from h = 0, h <- mix(h + w + GAMMA) for each word w of each
    seed part (its count of 64-bit words, then those words, least significant first), then the domain."""
    h = np.zeros(1, dtype=np.uint64)
    for part in seed:
        count = -(-part.bit_length() // 64)
        for word in (count, *((part >> 64 * i) & (2**64 - 1) for i in range(count))):
            h = _mix(h + word + _GAMMA)
    h = _mix(h + domain + _GAMMA)
    h.flags.writeable = False  # shared by every caller
    return h


def uniforms(seed, domain: int, indices, n: int) -> np.ndarray:
    """(len(indices), n) doubles in [0, 1): row i holds draws 0 .. n-1 of stream (seed, domain, indices[i]).

    Draw j of stream (seed, domain, m) is mix(h + (m 2**32 + j + 1) GAMMA): output m 2**32 + j + 1
    of the SplitMix64 generator (Steele, Lea & Flood, OOPSLA 2014) started at h = _start(seed, domain),
    mix being its finaliser; its double is its top 53 bits times 2**-53.  ``seed`` is an integer >= 0
    or a tuple of them; an index below 2**32 and n <= 2**32 keep every draw's counter its own.
    """
    seed = tuple(checked_int("seed", part, 0) for part in (seed if isinstance(seed, tuple) else (seed,)))
    # Two (B, n) arrays, as each fresh one costs page faults: u holds the steps (j + 1) GAMMA, then the mix's scratch.
    u = np.empty((len(indices), n))
    steps = u.view(np.uint64)[:1]
    steps.fill(_GAMMA)
    starts = np.asarray(indices, dtype=np.uint64) * _STREAM_STEP + _start(seed, domain)
    bits = _mix(starts[:, None] + np.cumsum(steps, axis=1, out=steps), u.view(np.uint64))
    bits >>= np.uint64(11)
    return np.multiply(bits, 2.0**-53, out=u)


def _checked(num_sites: int, master_seed: int, samples) -> list[int]:
    """The sample indices; a ValueError names a bad num_sites, master_seed or sample_index."""
    checked_int("num_sites", num_sites, 2)
    checked_int("master_seed", master_seed, 0)
    return [checked_int("sample_index", m, 0, 2**32 - 1) for m in samples]


def sample_rpps(num_sites: int, master_seed: int, samples) -> np.ndarray:
    """Random-phase product states (e^{i a_i}|up> + e^{i b_i}|down>)/sqrt(2), one row per sample index.

    Sample m's phases are 2 pi times draws 0 .. 2L-1 of stream (master_seed, RPPS_PHASES, m), site order,
    up before down.  Every amplitude has modulus 2**(-L/2), and every cut zero entanglement.
    """
    samples = _checked(num_sites, master_seed, samples)
    phases = np.exp(2j * np.pi * uniforms(master_seed, RPPS_PHASES, samples, 2 * num_sites))
    amps = np.full((len(samples), 1, 1), 2.0 ** (-num_sites / 2), dtype=np.complex128)
    for site in phases.reshape(len(samples), num_sites, 2, 1).transpose(1, 0, 2, 3):  # each (B, 2, 1)
        amps = (site * amps).reshape(len(samples), 1, 2 * amps.shape[-1])  # the new site takes the next-higher bit
    return amps.reshape(len(samples), 2**num_sites)


def sample_haar(num_sites: int, master_seed: int, samples) -> np.ndarray:
    """Haar-random states, one row per sample index: 2**L complex standard Gaussians, normalized.

    Amplitude j of sample m is the Box-Muller pair sqrt(-2 ln(1 - u_j)) e^{i theta}, theta = 2 pi u_{N+j} - pi,
    with N = 2**L and u_j draw j of stream (master_seed, HAAR_GAUSSIANS, m).  e^{i theta} is taken as
    (1 - t^2 + 2it) / (1 + t^2), t = tan(theta / 2): numpy vectorizes float64 tan, not cos and sin.
    """
    samples = _checked(num_sites, master_seed, samples)
    size = 2**num_sites
    u = uniforms(master_seed, HAAR_GAUSSIANS, samples, 2 * size)
    radius, t = u[:, :size], u[:, size:]  # in place, as in uniforms
    np.sqrt(np.multiply(np.log(np.subtract(1.0, radius, out=radius), out=radius), -2.0, out=radius), out=radius)
    np.tan(np.multiply(np.subtract(t, 0.5, out=t), np.pi, out=t), out=t)
    rows = np.empty((len(samples), size), dtype=np.complex128)
    square = np.multiply(t, t, out=rows.real)
    radius /= np.add(square, 1.0, out=rows.imag)
    np.multiply(radius, np.subtract(1.0, square, out=square), out=rows.real)
    np.multiply(np.multiply(radius, 2.0, out=radius), t, out=rows.imag)
    return _to_unit(rows, row_norms(rows))


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
