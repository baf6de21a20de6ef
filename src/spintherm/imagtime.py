"""Beta walks by Lanczos (Gauss) quadrature.

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
the Krylov space is exhausted.  No filtered state is built: the run
scores a sample through these two values alone.

The recurrence runs on the rows of a (B, 2**L) array in lockstep, as the
finite-temperature Lanczos method runs independent random vectors
(Jaklic & Prelovsek, PRB 49, 5065 (1994)).  A step is one H application
to every running row, a dot per row, one stacked eigh of the B
tridiagonals and a vectorised read-out; a row leaves at its own stop
step, and its values do not depend on the rows beside it.  The run
command takes B from L (cli.BATCH_AMPLITUDES).

The Ritz values are the part of the spectrum the state sees, so no bound
on the spectrum is estimated and nothing is restarted.  The vectors are
not reorthogonalized: the quadrature converges in finite precision all
the same (Meurant & Strakos, Acta Numerica 15 (2006)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import HamiltonianTerms, apply_terms
from .hilbert import row_norms

__all__ = [
    "MAX_BETA_POINTS",
    "MAX_BETA",
    "BetaGrid",
    "walk",
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
        object.__setattr__(self, "checkpoints", tuple(self.checkpoints))  # hashable, whatever sequence was given
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


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a_i|b_i> for each row pair, one vdot per row: the same sum for a row alone or in a batch."""
    return np.array([np.vdot(x, y).real for x, y in zip(a, b)])


def _lanczos(terms: HamiltonianTerms, units: np.ndarray, betas: np.ndarray, log_sq_norms: np.ndarray) -> list:
    """Walk values of each unit row of ``units`` (B, N): Lanczos in lockstep, without reorthogonalization.

    After step k, each running row reads its ln-norms and energies at
    every beta (2K values) from the Ritz pairs of T_k.  A row stops when no
    value moved by more than 1e-14 max(1, |value|) since its last step, or
    when its Krylov space is exhausted: the next vector would be below
    1e-12 of |H v_k|, or k = N.  Returns each row's values at its stop
    step.  The loop is a function of its own so that its return frees the
    three (b, N) Lanczos arrays before walk stacks the values; inlined in
    walk, they would live until walk returns.
    """
    size, rows, final = units.shape[1], np.arange(len(units)), [None] * len(units)
    vec, prev, off, last = units, None, None, None
    del units  # held by vec alone, it is freed once the walk moves past it
    tri = np.zeros((len(rows), 32, 32))  # each row's T_k in its leading k x k, lower triangle
    k = 0
    while True:
        w = apply_terms(terms, vec)
        if k == tri.shape[1]:
            tri = np.pad(tri, ((0, 0), (0, k), (0, k)))
        alpha = _dots(vec, w)
        tri[:, k, k] = alpha
        if k:
            tri[:, k, k - 1] = off
        k += 1
        ritz, q = np.linalg.eigh(tri[:, :k, :k])  # ritz (b, k) ascending, q[i, :, j] the eigenvector of ritz[i, j]
        boltz = q[:, :1] ** 2 * np.exp(-betas[:, None] * (ritz - ritz[:, :1])[:, None])  # (row, beta, Ritz pair)
        total = boltz.sum(axis=2)
        values = np.concatenate(
            (log_sq_norms[rows, None] - betas * ritz[:, :1] + np.log(total),
             np.matmul(boltz, ritz[:, :, None])[:, :, 0] / total), axis=1)
        stop = np.zeros(len(rows), dtype=bool)
        if last is not None:
            stop = (abs(values - last) <= 1e-14 * np.maximum(1.0, abs(values))).all(axis=1)
        if not stop.all():
            w -= alpha[:, None] * vec
            if prev is not None:
                w -= off[:, None] * prev
            grown = np.sqrt(_dots(w, w))
            stop |= (grown <= 1e-12 * np.hypot(alpha, 0.0 if off is None else off)) | (k == size)
        for i in np.flatnonzero(stop):
            final[rows[i]] = values[i]
        if stop.all():
            return final
        if stop.any():  # the rest run on without the stopped rows
            keep = ~stop
            rows, vec, w, grown, values, tri = rows[keep], vec[keep], w[keep], grown[keep], values[keep], tri[keep]
        w /= grown[:, None]  # in place: the next vector is w itself, so no old w lives through the next matvec
        prev, vec, off, last = vec, w, grown, values


def walk(rows: np.ndarray, terms: HamiltonianTerms, grid: BetaGrid) -> tuple[np.ndarray, np.ndarray]:
    """ln <psi|e^{-beta H}|psi> and <H>_beta of every row psi of ``rows`` (B, 2**L), each (B, K).

    The rows walk in lockstep, one Lanczos run each for the whole grid, and
    each stops at its own step; a row's values do not depend on the rows
    beside it.  Builds no filtered state.  ValueError on a size mismatch
    or a zero or non-finite norm.
    """
    if rows.shape[-1] != 1 << terms.L:
        raise ValueError(f"size mismatch: operator on {terms.L} sites, state on {rows.shape[-1].bit_length() - 1}")
    nrm = row_norms(rows)
    betas = np.array(grid.checkpoints)
    log_sq_norms = np.array([2.0 * math.log(n) for n in nrm])
    values = np.array(_lanczos(terms, rows / nrm[:, None], betas, log_sq_norms))
    return values[:, : len(betas)], values[:, len(betas) :]
