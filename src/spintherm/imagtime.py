"""Imaginary-time evolution by truncated-Taylor substepping.

exp(-theta H)|psi> is built as a product of short substeps, each summed
as a Taylor series of the trace-shifted operator H - mu with
mu = Tr H / 2**L.  The substep length is chosen so that
theta_sub * spectral_bound <= substep_cap, which keeps the series free
of catastrophic cancellation; after each substep the state is
renormalized and the discarded norm accumulates in log_norm_offset, so
ln <psi|e^{-beta H}|psi> stays available as 2 * (offset - offset_in)
far outside float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import HamiltonianTerms, apply_terms, expectation, spectral_bound, trace_mean
from .hilbert import StateVector

__all__ = [
    "PropagatorConfig",
    "BetaGrid",
    "OrderExhaustedError",
    "evolve",
    "evolve_with_checkpoints",
]


class OrderExhaustedError(RuntimeError):
    """Taylor series failed to reach tolerance within max_order terms."""

    def __init__(self, max_order: int, residual: float):
        super().__init__(
            f"order exhausted: residual {residual:.3e} after {max_order} Taylor terms; "
            "lower substep_cap or raise max_order"
        )
        self.max_order = max_order
        self.residual = residual


@dataclass(frozen=True)
class PropagatorConfig:
    """Truncation knobs for the Taylor propagator."""

    tolerance: float = 1e-12
    max_order: int = 64
    substep_cap: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.tolerance <= 1e-6:
            raise ValueError(f"tolerance must be in (0, 1e-6], got {self.tolerance}")
        if self.max_order < 8:
            raise ValueError(f"max_order must be >= 8, got {self.max_order}")
        if self.substep_cap <= 0.0:
            raise ValueError(f"substep_cap must be positive, got {self.substep_cap}")


@dataclass(frozen=True)
class BetaGrid:
    """Ascending positive inverse-temperature checkpoints (units 1/J)."""

    checkpoints: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.checkpoints) == 0:
            raise ValueError("beta grid must not be empty")
        prev = 0.0
        for b in self.checkpoints:
            if not np.isfinite(b) or b <= prev:
                raise ValueError(f"beta grid must be positive and strictly increasing, got {self.checkpoints}")
            prev = b

    @classmethod
    def uniform(cls, start: float, stop: float, step: float) -> "BetaGrid":
        """Inclusive grid start, start+step, ..., stop (values rounded to 10 dp)."""
        if step <= 0.0 or stop < start:
            raise ValueError(f"need step > 0 and stop >= start, got {start}:{stop}:{step}")
        count = int(round((stop - start) / step))
        return cls(tuple(round(start + k * step, 10) for k in range(count + 1)))

    def index_of(self, beta: float) -> int:
        for k, b in enumerate(self.checkpoints):
            if abs(b - beta) <= 1e-9:
                return k
        raise ValueError(f"beta {beta} is not on the grid {self.checkpoints}")


def _taylor_substep(apply_shifted, amps: np.ndarray, step: float, cfg: PropagatorConfig) -> np.ndarray:
    acc = amps.copy()
    term = amps
    ratio = math.inf
    for k in range(1, cfg.max_order + 1):
        term = (-step / k) * apply_shifted(term)
        acc += term
        ratio = float(np.linalg.norm(term) / np.linalg.norm(acc))
        if ratio <= cfg.tolerance:
            return acc
    raise OrderExhaustedError(cfg.max_order, ratio)


def evolve(
    state: StateVector,
    terms: HamiltonianTerms,
    theta: float,
    cfg: PropagatorConfig = PropagatorConfig(),
) -> StateVector:
    """Return exp(-theta H)|state> with the norm folded into the offset.

    theta >= 0 (in 1/J).  theta = 0 returns an unchanged copy.
    """
    if terms.L != state.num_sites:
        raise ValueError(f"size mismatch: operator on {terms.L} sites, state on {state.num_sites}")
    return _evolve(state, terms, theta, cfg, trace_mean(terms), spectral_bound(terms))


def _evolve(
    state: StateVector,
    terms: HamiltonianTerms,
    theta: float,
    cfg: PropagatorConfig,
    mu: float,
    bound: float,
) -> StateVector:
    """evolve() with the operator's trace mean and spectral bound supplied by the caller."""
    if theta < 0.0 or not np.isfinite(theta):
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    if theta == 0.0:
        return StateVector(state.amplitudes.copy(), state.log_norm_offset, state.num_sites)

    n_sub = max(1, math.ceil(theta * bound / cfg.substep_cap))
    step = theta / n_sub

    L = terms.L

    def apply_shifted(a: np.ndarray) -> np.ndarray:
        out = apply_terms(terms, a)
        if mu != 0.0:
            out -= mu * a
        return out

    amps = state.amplitudes
    offset = state.log_norm_offset
    for _ in range(n_sub):
        amps = _taylor_substep(apply_shifted, amps, step, cfg)
        nrm = float(np.linalg.norm(amps))
        if nrm == 0.0 or not np.isfinite(nrm):
            raise ValueError("degenerate state: norm vanished during evolution")
        amps = amps / nrm
        offset += np.log(nrm) - step * mu
    return StateVector(amps, offset, L)


def evolve_with_checkpoints(
    state: StateVector,
    terms: HamiltonianTerms,
    grid: BetaGrid,
    observable: HamiltonianTerms,
    cfg: PropagatorConfig = PropagatorConfig(),
) -> list[tuple[float, float, float]]:
    """Walk the beta grid once, reusing the state between checkpoints.

    At each beta the state is exp(-(beta/2) H)|psi>; the returned rows
    are (beta, log <psi|e^{-beta H}|psi>, <O>_beta) with the log norm
    measured relative to the input state's offset.
    """
    if terms.L != state.num_sites or observable.L != state.num_sites:
        raise ValueError("size mismatch between state, operator, and observable")
    base_offset = state.log_norm_offset
    rows: list[tuple[float, float, float]] = []
    half_prev = 0.0
    current = state
    mu, bound = trace_mean(terms), spectral_bound(terms)
    for beta in grid.checkpoints:
        current = _evolve(current, terms, beta / 2.0 - half_prev, cfg, mu, bound)
        half_prev = beta / 2.0
        log_sq_norm = 2.0 * (current.log_norm_offset - base_offset)
        rows.append((beta, log_sq_norm, expectation(observable, current)))
    return rows
