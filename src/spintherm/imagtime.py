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
the Krylov space is exhausted.  evolve builds
|psi| V_k e^{-theta (T_k - theta_0)} e_1 (V_k the Lanczos vectors) and
returns it at unit norm with the ln of its norm, which holds
ln |psi| - theta theta_0.

One recurrence serves both, on the rows of a (B, 2**L) array in lockstep,
as the finite-temperature Lanczos method runs independent random vectors
(Jaklic & Prelovsek, PRB 49, 5065 (1994)).  A step is one H application
to every running row, a dot per row, one stacked eigh of the B
tridiagonals and a vectorised read-out; a row leaves at its own stop
step, and its values do not depend on the rows beside it.  The run
command takes B from L (cli.BATCH_AMPLITUDES).

The Ritz values are the part of the spectrum the state sees, so no bound
on the spectrum is estimated and nothing is restarted.  The vectors are
not reorthogonalized: both the quadrature and the Krylov exponential
converge in finite precision all the same (Meurant & Strakos, Acta
Numerica 15 (2006); Druskin, Greenbaum & Knizhnerman, SIAM J. Sci.
Comput. 19 (1998)).
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
    "evolve",
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


def _norms(rows: np.ndarray, terms: HamiltonianTerms) -> np.ndarray:
    """|amplitudes| of each row the operator acts on; ValueError on a size mismatch or a zero or non-finite norm."""
    if rows.shape[-1] != 1 << terms.L:
        raise ValueError(f"size mismatch: operator on {terms.L} sites, state on {rows.shape[-1].bit_length() - 1}")
    return row_norms(rows)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a_i|b_i> for each row pair, one vdot per row: the same sum for a row alone or in a batch."""
    return np.array([np.vdot(x, y).real for x, y in zip(a, b)])


def _lanczos(terms: HamiltonianTerms, units: np.ndarray, read, basis=None) -> list:
    """Lanczos on each unit row of ``units`` (B, N) in lockstep, without reorthogonalization.

    After step k, ``read(rows, ritz, q)`` gets the indices ``rows`` of the
    b rows still running and their Ritz pairs of T_k (ritz (b, k)
    ascending, q[i, :, j] the eigenvector of ritz[i, j]) and returns
    (values, scale), values (b, n).  A row stops when no value moved by
    more than 1e-14 scale since its last step, or when its Krylov space is
    exhausted: the next vector would be below 1e-12 of |H v_k|, or k = N.
    Returns each row's (values, ritz) at its stop step.  With ``basis``, B
    lists, each row's Lanczos vectors are appended to its list.
    """
    rows, final = np.arange(len(units)), [None] * len(units)
    vec, prev, off, last = units, None, None, None
    tri = np.zeros((len(units), 32, 32))  # each row's T_k in its leading k x k, lower triangle
    k = 0
    while True:
        w = apply_terms(terms, vec)
        if basis is not None:
            for row, v in zip(rows, vec):
                basis[row].append(v)
        if k == tri.shape[1]:
            tri = np.pad(tri, ((0, 0), (0, k), (0, k)))
        alpha = _dots(vec, w)
        tri[:, k, k] = alpha
        if k:
            tri[:, k, k - 1] = off
        k += 1
        ritz, q = np.linalg.eigh(tri[:, :k, :k])
        values, scale = read(rows, ritz, q)
        stop = np.zeros(len(rows), dtype=bool)
        if last is not None:
            if last.shape[1] < values.shape[1]:  # evolve's coefficients gain one per step
                last = np.pad(last, ((0, 0), (0, 1)))
            stop = (abs(values - last) <= 1e-14 * scale).all(axis=1)
        if not stop.all():
            w -= alpha[:, None] * vec
            if prev is not None:
                w -= off[:, None] * prev
            grown = np.sqrt(_dots(w, w))
            stop |= (grown <= 1e-12 * np.hypot(alpha, 0.0 if off is None else off)) | (k == units.shape[1])
        for i in np.flatnonzero(stop):
            final[rows[i]] = (values[i], ritz[i])
        if stop.all():
            return final
        if stop.any():  # the rest run on without the stopped rows
            keep = ~stop
            rows, vec, w, grown, values, tri = rows[keep], vec[keep], w[keep], grown[keep], values[keep], tri[keep]
        prev, vec, off, last = vec, w / grown[:, None], grown, values


def evolve(rows: np.ndarray, terms: HamiltonianTerms, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(-theta H) applied to every row of ``rows`` (B, 2**L): the rows at unit norm and the ln of their norms.

    theta >= 0 (in 1/J); theta = 0 returns a copy of the rows and zeros.
    Lanczos steps run until no coefficient of a row's result in its
    Lanczos basis changes by more than 1e-14 of the coefficient vector's
    norm.
    """
    if theta < 0.0 or not np.isfinite(theta):
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    nrm = _norms(rows, terms)
    if theta == 0.0:
        return rows.copy(), np.zeros(len(rows))

    def read(live, ritz, q):  # e^{-theta (T_k - theta_0)} e_1
        coef = np.matmul(q, (q[:, 0] * np.exp(-theta * (ritz - ritz[:, :1])))[:, :, None])[:, :, 0]
        return coef, np.linalg.norm(coef, axis=1, keepdims=True)

    basis = [[] for _ in rows]
    out, log_norms = np.empty(rows.shape, dtype=np.complex128), np.empty(len(rows))
    for i, (coef, ritz) in enumerate(_lanczos(terms, rows / nrm[:, None], read, basis)):
        row = sum(c * vec for c, vec in zip(coef, basis[i]))
        sq = float(np.vdot(row, row).real)
        out[i] = row / math.sqrt(sq)
        log_norms[i] = math.log(nrm[i]) + 0.5 * math.log(sq) - theta * ritz[0]
    return out, log_norms


def walk(rows: np.ndarray, terms: HamiltonianTerms, grid: BetaGrid) -> tuple[np.ndarray, np.ndarray]:
    """ln <psi|e^{-beta H}|psi> and <H>_beta of every row psi of ``rows`` (B, 2**L), each (B, K).

    The rows walk in lockstep, one Lanczos run each for the whole grid, and
    each stops at its own step; a row's values do not depend on the rows
    beside it.  Builds no filtered state.
    """
    nrm = _norms(rows, terms)
    betas = np.array(grid.checkpoints)
    minus_betas, log_sq_norm = -betas[:, None], np.array([2.0 * math.log(n) for n in nrm])

    def read(live, ritz, q):  # (row, beta, Ritz pair) quadrature terms
        boltz = q[:, :1] ** 2 * np.exp(minus_betas * (ritz - ritz[:, :1])[:, None])
        total = boltz.sum(axis=2)
        values = np.concatenate(
            (log_sq_norm[live, None] - betas * ritz[:, :1] + np.log(total),
             np.matmul(boltz, ritz[:, :, None])[:, :, 0] / total), axis=1)
        return values, np.maximum(1.0, abs(values))

    values = np.array([v for v, _ in _lanczos(terms, rows / nrm[:, None], read)])
    return values[:, : len(betas)], values[:, len(betas) :]
