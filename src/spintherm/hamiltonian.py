"""Bond/field representation of open-chain spin-1/2 Hamiltonians.

Operators are kept as a catalog of local terms: 4x4 matrices on bonds
(i, i+1) and 2x2 matrices on single sites.  At construction the terms are
folded into L - 1 bond generators (each field split between the bonds
touching its site, see bond_generators) and each generator is compiled
once into the memory-order form of ``hilbert.compile_bond``.  Applying the
operator is then L - 1 calls of the one two-site kernel; the full
2**L x 2**L matrix is never formed.
Spin operators are S = sigma/2 and couplings are measured in units of
the exchange J, so inverse temperatures are in 1/J.

Model catalog (all open boundary, L >= 2 sites):

``heisenberg``
    J * sum_i (Sx Sx + Sy Sy + Sz Sz) on neighboring sites.
``xxz_staggered``
    J * sum_i (Sx Sx + Sy Sy + delta Sz Sz) plus a staggered field
    h_stag * (-1)**i * Sz_i (sign -1 on site 1).
``transverse_ising``
    J * sum_i Sz Sz plus a uniform h_x * Sx_i field.
``mixed_ising``
    J * sum_i Sz Sz plus uniform h_x * Sx_i + h_z * Sz_i fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hilbert import CompiledBond, apply_two_site, compile_bond

__all__ = [
    "SX",
    "SY",
    "SZ",
    "ID2",
    "MODEL_KINDS",
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

_KIND_FIELDS = {
    "heisenberg": ("J",),
    "xxz_staggered": ("J", "delta", "h_stag"),
    "transverse_ising": ("J", "h_x"),
    "mixed_ising": ("J", "h_x", "h_z"),
}
MODEL_KINDS = tuple(_KIND_FIELDS)


@dataclass
class ModelSpec:
    """Parameters selecting a catalog Hamiltonian.

    ``heisenberg`` reads J; ``xxz_staggered`` J, delta and h_stag;
    ``transverse_ising`` J and h_x; ``mixed_ising`` J, h_x and h_z.  A
    nonzero value in a coupling the kind does not read (e.g. ``delta`` for
    the Heisenberg chain) raises ValueError instead of being ignored.
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
        if not np.all(np.isfinite([self.J, self.delta, self.h_stag, self.h_x, self.h_z])):
            raise ValueError("couplings must be finite")
        unused = [
            name
            for name in ("delta", "h_stag", "h_x", "h_z")
            if name not in _KIND_FIELDS[self.kind] and getattr(self, name) != 0.0
        ]
        if unused:
            raise ValueError(f"{', '.join(unused)} not used by kind {self.kind!r}; leave unset")


@dataclass(frozen=True, eq=False)
class HamiltonianTerms:
    """Local-term form of a Hermitian operator on an L-site chain.

    ``bonds`` holds (i, mat4) pairs acting on sites (i, i+1) in the
    |s_i, s_i+1> product basis with the left site as the major index;
    ``fields`` holds (i, mat2) single-site pairs.  Every matrix must be
    finite and Hermitian; the ValueError otherwise names the term.

    The object is immutable: the terms are stored as tuples of read-only
    copies, and ``compiled`` holds the L - 1 bond generators compiled at
    construction, so it always matches the terms.
    """

    L: int
    bonds: tuple[tuple[int, np.ndarray], ...] = ()
    fields: tuple[tuple[int, np.ndarray], ...] = ()
    compiled: tuple[CompiledBond, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.L < 2:
            raise ValueError(f"L must be >= 2, got {self.L}")
        bonds = tuple(_checked_term("bond", i, mat, self.L - 1, 4) for i, mat in self.bonds)
        fields = tuple(_checked_term("field", i, mat, self.L, 2) for i, mat in self.fields)
        object.__setattr__(self, "bonds", bonds)
        object.__setattr__(self, "fields", fields)
        compiled = tuple(compile_bond(gen, i, self.L) for i, gen in bond_generators(self.L, bonds, fields))
        object.__setattr__(self, "compiled", compiled)


def _checked_term(kind: str, i: int, mat, last: int, dim: int) -> tuple[int, np.ndarray]:
    if not 1 <= i <= last:
        raise ValueError(f"{kind} index {i} outside [1, {last}]")
    mat = np.array(mat, dtype=np.complex128)
    if mat.shape != (dim, dim):
        raise ValueError(f"{kind} matrix at {i} has shape {mat.shape}, expected ({dim}, {dim})")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{kind} matrix at {i} has non-finite entries")
    if np.max(np.abs(mat - mat.conj().T)) > 1e-14 * max(1.0, np.max(np.abs(mat))):
        raise ValueError(f"{kind} matrix at {i} is not Hermitian")
    mat.setflags(write=False)
    return int(i), mat


def bond_generators(L: int, bonds, fields) -> list[tuple[int, np.ndarray]]:
    """Per-bond 4x4 generators whose embeddings sum to the operator of the terms.

    ``bonds`` and ``fields`` are (i, matrix) pairs as in HamiltonianTerms.
    Bond (i, i+1) takes its own coupling plus half the field of each
    interior endpoint and the whole field of a chain-end endpoint.  All
    L - 1 bonds are returned, zero generators included.
    """
    per_site: dict[int, np.ndarray] = {}
    for i, mat in fields:
        per_site[i] = per_site.get(i, np.zeros((2, 2), dtype=np.complex128)) + mat
    per_bond = {i: np.zeros((4, 4), dtype=np.complex128) for i in range(1, L)}
    for i, mat in bonds:
        per_bond[i] = per_bond[i] + mat
    for i, f in per_site.items():
        if i == 1:
            per_bond[1] = per_bond[1] + _pair(f, ID2)
        elif i == L:
            per_bond[L - 1] = per_bond[L - 1] + _pair(ID2, f)
        else:
            per_bond[i - 1] = per_bond[i - 1] + 0.5 * _pair(ID2, f)
            per_bond[i] = per_bond[i] + 0.5 * _pair(f, ID2)
    return [(i, per_bond[i]) for i in range(1, L)]


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron(a, b) of two 2x2 matrices, without np.kron's per-call overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def build_hamiltonian(spec: ModelSpec) -> HamiltonianTerms:
    """The compiled operator of a catalog model."""
    return HamiltonianTerms(spec.L, *model_terms(spec))


def model_terms(spec: ModelSpec) -> tuple[list[tuple[int, np.ndarray]], list[tuple[int, np.ndarray]]]:
    """The (bonds, fields) term lists of a catalog model, compiling nothing."""
    J = spec.J
    bonds: list[tuple[int, np.ndarray]] = []
    fields: list[tuple[int, np.ndarray]] = []
    if spec.kind == "heisenberg":
        mat = J * (_pair(SX, SX) + _pair(SY, SY) + _pair(SZ, SZ))
        bonds = [(i, mat) for i in range(1, spec.L)]
    elif spec.kind == "xxz_staggered":
        mat = J * (_pair(SX, SX) + _pair(SY, SY) + spec.delta * _pair(SZ, SZ))
        bonds = [(i, mat) for i in range(1, spec.L)]
        for i in range(1, spec.L + 1):
            f = spec.h_stag * (-1) ** i * SZ
            if np.any(f):
                fields.append((i, f))
    elif spec.kind == "transverse_ising":
        mat = J * _pair(SZ, SZ)
        bonds = [(i, mat) for i in range(1, spec.L)]
        f = spec.h_x * SX
        if np.any(f):
            fields = [(i, f) for i in range(1, spec.L + 1)]
    elif spec.kind == "mixed_ising":
        mat = J * _pair(SZ, SZ)
        bonds = [(i, mat) for i in range(1, spec.L)]
        f = spec.h_x * SX + spec.h_z * SZ
        if np.any(f):
            fields = [(i, f) for i in range(1, spec.L + 1)]
    return bonds, fields


def apply_terms(terms: HamiltonianTerms, amps: np.ndarray) -> np.ndarray:
    """The operator applied to a flat amplitude array; returns a new array.

    One two-site kernel call per compiled bond generator, L - 1 in all.
    """
    first, *rest = terms.compiled
    out = apply_two_site(amps, first)
    for bond in rest:
        out += apply_two_site(amps, bond)
    return out
