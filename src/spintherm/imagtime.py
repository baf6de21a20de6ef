"""Imaginary-time evolution and beta walks by Lanczos (Gauss) quadrature.

k Lanczos steps from psi / |psi| give a k x k tridiagonal T_k with Ritz
pairs (theta_j, q_j), theta ascending.  Gauss quadrature reads a quadratic
form as <psi|f(H)|psi> ~ |psi|^2 sum_j q_j[0]^2 f(theta_j), exact for
polynomials of degree 2k - 1.  Every weight q_j[0]^2 is positive, so

    ln <psi|e^{-beta H}|psi> = ln |psi|^2 - beta theta_0
                               + ln sum_j q_j[0]^2 e^{-beta (theta_j - theta_0)}

is the log of a sum of positive terms, none above 1: no cancellation and
no overflow at any beta.  <H>_beta is the same sum with theta_j inserted.
The beta walk reads both at every beta of the grid after each step and
stops when no value changes by more than 1e-14 max(1, |value|), or when
the Krylov space is exhausted.  evolve returns
|psi| V_k e^{-theta (T_k - theta_0)} e_1 (V_k the Lanczos vectors) and
folds ln |psi| - theta theta_0 into the log-norm offset.

The Ritz values are the part of the spectrum the state sees, so no bound
on the spectrum is estimated and nothing is restarted.  The vectors are
not reorthogonalized: both the quadrature and the Krylov exponential
converge in finite precision all the same (Meurant & Strakos, Acta
Numerica 15 (2006); Druskin, Greenbaum & Knizhnerman, SIAM J. Sci.
Comput. 19 (1998)).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .hamiltonian import HamiltonianTerms, apply_terms
from .hilbert import StateVector

__all__ = [
    "MAX_BETA_POINTS",
    "MAX_BETA",
    "BetaGrid",
    "evolve",
    "evolve_with_checkpoints",
]

MAX_BETA_POINTS = 10_000

# Largest inverse temperature a BetaGrid accepts, in 1/J.  The paper's
# grids end at beta J = 3; at 1e308, beta * E overflows and the walk's
# ln-norms are no longer finite.  Together with hamiltonian.MAX_COUPLING,
# beta * |E| stays far inside float range.
MAX_BETA = 1e6


@dataclass(frozen=True)
class BetaGrid:
    """Ascending positive inverse-temperature checkpoints (units 1/J), at most MAX_BETA."""

    checkpoints: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.checkpoints) == 0:
            raise ValueError("beta grid must not be empty")
        if len(self.checkpoints) > MAX_BETA_POINTS:
            raise ValueError(f"beta grid has {len(self.checkpoints)} points, more than {MAX_BETA_POINTS}")
        prev = 0.0
        for b in self.checkpoints:
            if not np.isfinite(b) or b <= prev:
                raise ValueError(f"beta grid must be positive and strictly increasing, got {self.checkpoints}")
            if b > MAX_BETA:
                raise ValueError(f"beta {b!r} is above {MAX_BETA:g}")
            prev = b

    @classmethod
    def uniform(cls, start: float, stop: float, step: float) -> "BetaGrid":
        """Inclusive grid start, start+step, ..., stop (values rounded to 10 dp)."""
        if not (step > 0.0 and stop >= start):
            raise ValueError(f"need step > 0 and stop >= start, got {start}:{stop}:{step}")
        span = (stop - start) / step
        if not span < MAX_BETA_POINTS:
            raise ValueError(f"{start}:{stop}:{step} has {span + 1:.0f} points, more than {MAX_BETA_POINTS}")
        return cls(tuple(round(start + k * step, 10) for k in range(round(span) + 1)))


def _norm(state: StateVector, terms: HamiltonianTerms) -> float:
    """|amplitudes| of a state the operator acts on; ValueError on a size mismatch or zero norm."""
    if terms.L != state.num_sites:
        raise ValueError(f"size mismatch: operator on {terms.L} sites, state on {state.num_sites}")
    nrm = float(np.linalg.norm(state.amplitudes))
    if nrm == 0.0:
        raise ValueError("degenerate state: zero norm")
    return nrm


def _lanczos(terms: HamiltonianTerms, unit: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Lanczos on the operator from a unit vector, without reorthogonalization.

    After step k yields (v_k, theta, q): the k-th Lanczos vector and the
    Ritz pairs of T_k (theta ascending, q[:, j] the eigenvector of
    theta[j]).  Ends when the Krylov space is exhausted: the next vector
    would be below 1e-12 of |H v_k|, or k reached the dimension.
    """
    vec, prev = unit, None
    alphas: list[float] = []
    offs: list[float] = []
    while True:
        w = apply_terms(terms, vec)
        alphas.append(float(np.vdot(vec, w).real))
        yield (vec, *np.linalg.eigh(np.diag(alphas) + np.diag(offs, -1)))
        w -= alphas[-1] * vec
        if prev is not None:
            w -= offs[-1] * prev
        off = math.sqrt(np.vdot(w, w).real)
        if off <= 1e-12 * math.hypot(alphas[-1], *offs[-1:]) or len(alphas) == unit.size:
            return
        offs.append(off)
        prev, vec = vec, w / off


def evolve(state: StateVector, terms: HamiltonianTerms, theta: float) -> StateVector:
    """Return exp(-theta H)|state> with the norm folded into the offset.

    theta >= 0 (in 1/J).  theta = 0 returns an unchanged copy.  Lanczos
    steps run until no coefficient of the result in the Lanczos basis
    changes by more than 1e-14 of the coefficient vector's norm.
    """
    if theta < 0.0 or not np.isfinite(theta):
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    nrm = _norm(state, terms)
    if theta == 0.0:
        return StateVector(state.amplitudes.copy(), state.log_norm_offset, state.num_sites)
    basis, last = [], np.zeros(0)
    for vec, ritz, q in _lanczos(terms, state.amplitudes / nrm):
        basis.append(vec)
        coef = q @ (q[0] * np.exp(-theta * (ritz - ritz[0])))  # e^{-theta (T_k - theta_0)} e_1
        if np.max(np.abs(coef - np.append(last, 0.0))) <= 1e-14 * np.linalg.norm(coef):
            break
        last = coef
    out = sum(c * vec for c, vec in zip(coef, basis))
    sq = float(np.vdot(out, out).real)
    log_norm = state.log_norm_offset + math.log(nrm) + 0.5 * math.log(sq) - theta * ritz[0]
    return StateVector(out / math.sqrt(sq), log_norm, state.num_sites)


def evolve_with_checkpoints(
    state: StateVector,
    terms: HamiltonianTerms,
    grid: BetaGrid,
) -> list[tuple[float, float, float]]:
    """(beta, ln <psi|e^{-beta H}|psi>, <H>_beta) at every beta of the grid.

    The log norm is measured relative to the input state's offset.  One
    Lanczos run serves the whole grid; it builds no filtered state.
    """
    nrm = _norm(state, terms)
    betas = np.array(grid.checkpoints)
    minus_betas, log_sq_norm = -betas[:, None], 2.0 * math.log(nrm)
    last = None
    for _, ritz, q in _lanczos(terms, state.amplitudes / nrm):
        boltz = q[0] ** 2 * np.exp(minus_betas * (ritz - ritz[0]))  # (beta, Ritz pair) quadrature terms
        total = boltz.sum(axis=1)
        values = np.concatenate((log_sq_norm - betas * ritz[0] + np.log(total), boltz @ ritz / total))
        if last is not None and (abs(values - last) <= 1e-14 * np.maximum(1.0, abs(values))).all():
            break
        last = values
    log_sq, energy = np.split(values, 2)
    return [(b, float(s), float(e)) for b, s, e in zip(grid.checkpoints, log_sq, energy)]
