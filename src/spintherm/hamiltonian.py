"""Bond/field representation of open-chain spin-1/2 Hamiltonians.

Operators are kept as a catalog of local terms: 4x4 matrices on bonds
(i, i+1) and 2x2 matrices on single sites, each passing the one
local-matrix check, ``hilbert.checked_matrix``.  At construction the
terms are folded into L - 1 bond generators (each field split between the
bonds touching its site, see bond_generators) and compiled once by
``hilbert.compile_chain``, which sums the generators of each block of
four bonds.  Applying the operator is then one kernel call per compiled
entry; the full 2**L x 2**L matrix is never formed.
Spin operators are S = sigma/2 and couplings are measured in units of
the exchange J, so inverse temperatures are in 1/J.

Model catalog (all open boundary, L >= 2 sites), one formula for every
kind:

    H = sum_{i<L} b_{i,i+1} + sum_{i<=L} (h_x Sx_i + (h_z + (-1)**i h_stag) Sz_i)

with the bond b = J (Sx Sx + Sy Sy + delta' Sz Sz) for ``heisenberg``
(delta' = 1) and ``xxz_staggered`` (delta' = delta), and b = J Sz Sz for
``transverse_ising`` and ``mixed_ising``.  Each kind reads some of the
COUPLINGS and forces the rest to 0: heisenberg J; xxz_staggered J, delta
and h_stag (sign -1 on site 1); transverse_ising J and h_x; mixed_ising
J, h_x and h_z.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hilbert import CompiledBlock, apply_two_site, checked_matrix, compile_chain, kron

__all__ = [
    "SX",
    "SY",
    "SZ",
    "ID2",
    "MODEL_KINDS",
    "COUPLINGS",
    "MAX_COUPLING",
    "ModelSpec",
    "HamiltonianTerms",
    "bond_generators",
    "build_hamiltonian",
    "model_terms",
    "apply_terms",
]

SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=np.complex128)
SY = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=np.complex128)
SZ = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=np.complex128)
ID2 = np.eye(2, dtype=np.complex128)

# A ModelSpec's couplings, in the order config files and run.cfg list them; each
# kind reads the ones _KIND_FIELDS names and forces the others to 0.
COUPLINGS = ("J", "delta", "h_stag", "h_x", "h_z")
_KIND_FIELDS = {
    "heisenberg": ("J",),
    "xxz_staggered": ("J", "delta", "h_stag"),
    "transverse_ising": ("J", "h_x"),
    "mixed_ising": ("J", "h_x", "h_z"),
}
MODEL_KINDS = tuple(_KIND_FIELDS)

# Largest |coupling| a ModelSpec accepts.  Every catalog model the paper
# runs has couplings of order 1 to 5; at 1e300 the Lanczos recurrence of
# the beta walk overflows.  1e6 leaves the walk's sums and beta * E far
# inside float range at any beta up to imagtime.MAX_BETA.
MAX_COUPLING = 1e6


@dataclass(frozen=True)
class ModelSpec:
    """Parameters selecting a catalog Hamiltonian; immutable and hashable.

    ``heisenberg`` reads J; ``xxz_staggered`` J, delta and h_stag;
    ``transverse_ising`` J and h_x; ``mixed_ising`` J, h_x and h_z.  A
    nonzero value in a coupling the kind does not read (e.g. ``delta`` for
    the Heisenberg chain) raises ValueError instead of being ignored, and
    so does a coupling that is not finite or exceeds MAX_COUPLING in
    magnitude.
    """

    kind: str
    L: int
    J: float = 1.0
    delta: float = 0.0
    h_stag: float = 0.0
    h_x: float = 0.0
    h_z: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}, expected one of {MODEL_KINDS}")
        if self.L < 2:
            raise ValueError(f"L must be >= 2, got {self.L}")
        if self.J == 0.0:
            raise ValueError("J must be nonzero")
        too_large = [
            f"{name} = {getattr(self, name)!r}"
            for name in COUPLINGS
            if not abs(getattr(self, name)) <= MAX_COUPLING
        ]
        if too_large:
            bound = f"finite and at most {MAX_COUPLING:g} in magnitude"
            raise ValueError(f"couplings must be {bound}, got {', '.join(too_large)}")
        unused = [name for name in COUPLINGS if name not in _KIND_FIELDS[self.kind] and getattr(self, name) != 0.0]
        if unused:
            raise ValueError(f"{', '.join(unused)} not used by kind {self.kind!r}; leave unset")


@dataclass(frozen=True, eq=False)
class HamiltonianTerms:
    """Local-term form of a Hermitian operator on an L-site chain.

    ``bonds`` holds (i, mat4) pairs acting on sites (i, i+1) in the
    |s_i, s_i+1> product basis with the left site as the major index;
    ``fields`` holds (i, mat2) single-site pairs.  Every i must be an
    integer, every matrix finite and Hermitian; the ValueError names the term.

    The object is immutable: the terms are stored as tuples of read-only
    copies, and ``compiled`` is built from them at construction by
    ``hilbert.compile_chain`` with each block's generators summed, so it
    always matches the terms.
    """

    L: int
    bonds: tuple[tuple[int, np.ndarray], ...] = ()
    fields: tuple[tuple[int, np.ndarray], ...] = ()
    compiled: tuple[CompiledBlock, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.L < 2:
            raise ValueError(f"L must be >= 2, got {self.L}")
        bonds = tuple(_checked_term("bond", i, mat, self.L - 1, 4) for i, mat in self.bonds)
        fields = tuple(_checked_term("field", i, mat, self.L, 2) for i, mat in self.fields)
        object.__setattr__(self, "bonds", bonds)
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "compiled", compile_chain(bond_generators(self.L, bonds, fields), sum))


def _checked_term(kind: str, i, mat, last: int, dim: int) -> tuple[int, np.ndarray]:
    if isinstance(i, bool) or not (isinstance(i, (int, np.integer)) and 1 <= i <= last):
        raise ValueError(f"{kind} index {i!r} is not an integer in [1, {last}]")
    mat = checked_matrix(f"{kind} matrix at {i}", mat, dim)
    if np.max(np.abs(mat - mat.conj().T)) > 1e-14 * max(1.0, np.max(np.abs(mat))):
        raise ValueError(f"{kind} matrix at {i} is not Hermitian")
    return int(i), mat


def bond_generators(L: int, bonds, fields) -> list[np.ndarray]:
    """The 4x4 generators of bonds 1..L-1 (item i - 1 on bond i), whose embeddings sum to the terms.

    ``bonds`` and ``fields`` are (i, matrix) pairs as in HamiltonianTerms;
    an index off the chain raises ValueError.  Bond (i, i+1) takes its own
    couplings, then, in the order given, each field on its sites: the whole
    field at a chain end, half of it to each bond elsewhere.  All L - 1
    bonds are returned, zero generators included.
    """
    if not (all(1 <= i < L for i, _ in bonds) and all(1 <= i <= L for i, _ in fields)):
        raise ValueError(f"term index off the {L}-site chain")
    gens = [np.zeros((4, 4), dtype=np.complex128) for _ in range(L - 1)]
    for i, mat in bonds:
        gens[i - 1] = gens[i - 1] + mat
    for i, f in fields:
        share = 1.0 if i in (1, L) else 0.5
        if i > 1:
            gens[i - 2] = gens[i - 2] + share * kron(ID2, f)
        if i < L:
            gens[i - 1] = gens[i - 1] + share * kron(f, ID2)
    return gens


def build_hamiltonian(spec: ModelSpec) -> HamiltonianTerms:
    """The compiled operator of a catalog model."""
    return HamiltonianTerms(spec.L, *model_terms(spec))


def model_terms(spec: ModelSpec) -> tuple[list[tuple[int, np.ndarray]], list[tuple[int, np.ndarray]]]:
    """The (bonds, fields) term lists of a catalog model, compiling nothing; zero fields are left out."""
    if spec.kind in ("heisenberg", "xxz_staggered"):
        delta = spec.delta if spec.kind == "xxz_staggered" else 1.0
        bond = spec.J * (kron(SX, SX) + kron(SY, SY) + delta * kron(SZ, SZ))
    else:
        bond = spec.J * kron(SZ, SZ)
    fields = ((i, spec.h_x * SX + (spec.h_z + (-1) ** i * spec.h_stag) * SZ) for i in range(1, spec.L + 1))
    return [(i, bond) for i in range(1, spec.L)], [(i, f) for i, f in fields if np.any(f)]


def apply_terms(terms: HamiltonianTerms, amps: np.ndarray) -> np.ndarray:
    """The operator applied to every row of an amplitude array, shape (..., 2**L); returns a new array.

    One kernel call per entry of ``terms.compiled``.
    """
    first, *rest = terms.compiled
    out = apply_two_site(amps, first)
    for bond in rest:
        out += apply_two_site(amps, bond)
    return out
