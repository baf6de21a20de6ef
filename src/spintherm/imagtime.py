"""Imaginary-time evolution by Chebyshev expansion.

With H rescaled to H~ in [-1, 1] by a spectral interval [lo, hi],
e^{-theta H} = e^{-theta lo} sum_n c_n T_n(H~), where t = theta (hi - lo)/2
and c_n = (2 - [n = 0]) (-1)^n e^{-t} I_n(t) (numpy only, cut below 1e-18).
evolve sums that series on a state.  The beta walk builds no state: the
moments mu_n = <psi|T_n(H~)|psi> of one recurrence (k matvecs give mu_0 ...
mu_2k) give ln <psi|e^{-beta H}|psi> and, as x T_n = (T_n+1 + T_n-1)/2,
<H>_beta at every beta of the grid (the kernel polynomial method).

A moment above mu_0 (or a T_n(H~)|psi> longer than |psi>) shows weight
outside [lo, hi]: the sample is redone on +-spectral_bound, which holds the
spectrum.  Sums are exact to about 1e-15 mu_0, so below PRECISION_FLOOR mu_0
the walk restarts from the state filtered to the last beta it read (evolve
halves theta), which keeps errors near 1e-11 at any beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hamiltonian import HamiltonianTerms, apply_terms, spectral_bound, spectral_interval
from .hilbert import StateVector

__all__ = [
    "MAX_BETA_POINTS",
    "BetaGrid",
    "evolve",
    "evolve_with_checkpoints",
]

MAX_BETA_POINTS = 10_000
PRECISION_FLOOR = 1e-4


@dataclass(frozen=True)
class BetaGrid:
    """Ascending positive inverse-temperature checkpoints (units 1/J)."""

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


def _bessel(t: np.ndarray, rows: int) -> np.ndarray:
    """e^{-t} I_n(t) for n < rows (rows n, columns t), by Miller's algorithm.

    The ratios I_n / I_n-1 = 1 / (2n/t + I_n+1 / I_n) run down from far above
    rows and t, and I_0 + 2 sum_n I_n = e^t fixes the scale: nothing overflows."""
    ratio = tail = np.zeros_like(t)
    ratios = []
    for n in range(rows + int(2.0 * t.max()) + 40, 0, -1):
        with np.errstate(divide="ignore", over="ignore"):  # t -> 0 gives ratio 0: I_n(0) = [n = 0]
            ratio = 1.0 / (2.0 * n / t + ratio)
        tail = ratio * (1.0 + tail)  # sum_{k >= n} I_k / I_{n-1}
        if n < rows:
            ratios.append(ratio)
    return np.cumprod([np.ones_like(t), *ratios[::-1]], axis=0) / (1.0 + 2.0 * tail)


@lru_cache(maxsize=16)
def _coefficients(ts: tuple[float, ...]) -> np.ndarray:
    """The coefficients c_n(t) of e^{-t(x + 1)}, one column per t, cut below 1e-18.

    Far out they grow with t, so the largest t sets the cut.  Cached: every
    sample of a run walks the same grid on the same interval."""
    t = np.array(ts)
    peak = _bessel(t.max(keepdims=True), int(2.0 * t.max()) + 40)[:, 0]
    coef = 2.0 * _bessel(t, max(2, int(np.nonzero(peak > 1e-18)[0][-1]) + 1))
    coef[0] /= 2.0
    coef[1::2] *= -1.0
    coef.setflags(write=False)
    return coef


def _scaled(terms: HamiltonianTerms, lo: float, hi: float):
    """x -> H~ x, with H rescaled so that [lo, hi] maps onto [-1, 1]."""
    half, mid = (hi - lo) / 2.0, (hi + lo) / 2.0
    return lambda x: (apply_terms(terms, x) - mid * x) / half


def _moments(terms: HamiltonianTerms, amps: np.ndarray, lo: float, hi: float, top: int) -> np.ndarray:
    """mu_0 ... mu_top of <a|T_n(H~)|a>, by mu_2k = 2|phi_k|^2 - mu_0 and mu_2k+1 = 2<phi_k+1|phi_k> - mu_1."""
    scaled = _scaled(terms, lo, hi)
    prev, cur = amps, scaled(amps)
    mu = [float(np.vdot(amps, amps).real), float(np.vdot(amps, cur).real)]
    while len(mu) <= top:
        mu.append(2.0 * float(np.vdot(cur, cur).real) - mu[0])
        if len(mu) > top:
            break
        prev, cur = cur, 2.0 * scaled(cur) - prev
        mu.append(2.0 * float(np.vdot(cur, prev).real) - mu[1])
    return np.array(mu)


def evolve(
    state: StateVector,
    terms: HamiltonianTerms,
    theta: float,
    interval: tuple[float, float] | None = None,
) -> StateVector:
    """Return exp(-theta H)|state> with the norm folded into the offset.

    theta >= 0 (in 1/J).  theta = 0 returns an unchanged copy.  interval
    is a (lo, hi) holding the spectrum, spectral_interval(terms) if None.
    """
    if terms.L != state.num_sites:
        raise ValueError(f"size mismatch: operator on {terms.L} sites, state on {state.num_sites}")
    if theta < 0.0 or not np.isfinite(theta):
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    if theta == 0.0:
        return StateVector(state.amplitudes.copy(), state.log_norm_offset, state.num_sites)
    lo, hi = interval or spectral_interval(terms)
    scaled = _scaled(terms, lo, hi)
    coef = _coefficients((theta * (hi - lo) / 2.0,))[:, 0]
    prev, cur = state.amplitudes, scaled(state.amplitudes)
    acc = coef[0] * prev + coef[1] * cur
    for c in coef[2:]:
        prev, cur = cur, 2.0 * scaled(cur) - prev
        acc += c * cur
    sq_in, sq = (float(np.vdot(a, a).real) for a in (state.amplitudes, acc))
    if float(np.vdot(cur, cur).real) > (1.0 + 1e-9) * sq_in:  # |T_n| > 1: weight outside [lo, hi]
        bound = spectral_bound(terms)
        return evolve(state, terms, theta, (-bound, bound))
    if sq < PRECISION_FLOOR * sq_in:
        return evolve(evolve(state, terms, theta / 2.0, (lo, hi)), terms, theta / 2.0, (lo, hi))
    return StateVector(acc / math.sqrt(sq), state.log_norm_offset + 0.5 * math.log(sq) - theta * lo, state.num_sites)


def evolve_with_checkpoints(
    state: StateVector,
    terms: HamiltonianTerms,
    grid: BetaGrid,
    interval: tuple[float, float] | None = None,
) -> list[tuple[float, float, float]]:
    """(beta, ln <psi|e^{-beta H}|psi>, <H>_beta) at every beta of the grid.

    The log norm is measured relative to the input state's offset.
    interval is a (lo, hi) holding the spectrum, spectral_interval(terms)
    if None; pass it to walk many states of one operator.
    """
    if terms.L != state.num_sites:
        raise ValueError(f"size mismatch: operator on {terms.L} sites, state on {state.num_sites}")
    lo, hi = interval or spectral_interval(terms)
    rows: list[tuple[float, float, float]] = []
    current, base = state, 0.0  # the walk reads betas from e^{-base H / 2}|state>
    while len(rows) < len(grid.checkpoints):
        betas = np.array(grid.checkpoints[len(rows):])
        coef = _coefficients(tuple((betas - base) * (hi - lo) / 2.0))
        mu = _moments(terms, current.amplitudes, lo, hi, coef.shape[0])
        if np.max(np.abs(mu)) > (1.0 + 1e-9) * mu[0]:
            bound = spectral_bound(terms)
            lo, hi = -bound, bound
            continue
        n = np.arange(coef.shape[0])
        weight = mu[n] @ coef  # <psi|e^{-(beta - base)(H - lo)}|psi>
        with_x = (mu[n + 1] + mu[np.abs(n - 1)]) / 2.0 @ coef  # the same with H~ inserted
        energy = (hi + lo) / 2.0 + (hi - lo) / 2.0 * with_x / weight
        read = int(np.cumprod(weight >= PRECISION_FLOOR * mu[0]).sum())  # betas before the first lost sum
        log_sq = 2.0 * (current.log_norm_offset - state.log_norm_offset) - (betas - base) * lo
        rows += [(float(b), s + math.log(w), float(e)) for b, s, w, e in zip(betas[:read], log_sq, weight, energy)]
        if read < len(betas):
            target = betas[read - 1] if read else betas[0]  # at beta - base = 0 the sum is mu_0
            current = evolve(current, terms, (target - base) / 2.0, (lo, hi))
            base = target
    return rows
