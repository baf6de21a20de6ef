"""Sample-weight bookkeeping, efficiency, and error bars.

Thermal averages over M random initial states come in two flavors: the
weighted estimator sum_m w_m O_m with w_m proportional to the sampled
norms <psi_m|e^{-beta H}|psi_m>, and the norm-free simple mean of the
O_m.  The weights are formed in log space, so exponent spreads of
hundreds are handled without overflow.  How evenly the weights spread
is summarized by the entropy I = -sum w ln w and the efficiency
eta = e^I / M, which is 1 for uniform weights and 1/M when one sample
dominates; eta close to 1 means the simple mean is as good as the
weighted one.

All states are sampled unit-normalized, so trace estimates built from
them carry the common prefactor 2**L exposed by trace_prefactor().
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .hilbert import StateVector, schmidt_spectrum

__all__ = [
    "SampleRecord",
    "EfficiencyReport",
    "weights",
    "efficiency",
    "weighted_expectation",
    "simple_expectation",
    "entanglement_entropy",
    "bootstrap_sigma",
    "trace_prefactor",
]


@dataclass
class SampleRecord:
    """Per-sample results along a beta grid.

    ``log_sq_norm[k]`` is ln <psi|e^{-beta_k H}|psi> for the (unit
    normalized) initial state, ``obs_value[k]`` the normalized
    observable expectation at that beta, and ``init_entropy`` the
    half-chain entanglement entropy of the initial state in nats.
    """

    sample_index: int
    betas: np.ndarray
    log_sq_norm: np.ndarray
    obs_value: np.ndarray
    init_entropy: float

    def __post_init__(self) -> None:
        self.betas = np.asarray(self.betas, dtype=np.float64)
        self.log_sq_norm = np.asarray(self.log_sq_norm, dtype=np.float64)
        self.obs_value = np.asarray(self.obs_value, dtype=np.float64)
        if not (self.betas.shape == self.log_sq_norm.shape == self.obs_value.shape):
            raise ValueError("betas, log_sq_norm, and obs_value must have matching shapes")
        if not np.all(np.isfinite(self.log_sq_norm)) or not np.all(np.isfinite(self.obs_value)):
            raise ValueError("records must be finite")
        if not np.isfinite(self.init_entropy) or self.init_entropy < -1e-12:
            raise ValueError(f"init_entropy must be a nonnegative real, got {self.init_entropy}")


@dataclass(frozen=True)
class EfficiencyReport:
    """Weight-entropy summary for one (L, beta) sample set."""

    eta: float
    entropy: float
    num_samples: int
    sigma: float
    n_resamples: int


def _beta_column(records: Sequence[SampleRecord], beta: float) -> int:
    if len(records) == 0:
        raise ValueError("no records")
    ref = records[0].betas
    for r in records[1:]:
        if r.betas.shape != ref.shape or not np.allclose(r.betas, ref, atol=1e-12, rtol=0.0):
            raise ValueError("records do not share a beta grid")
    hits = np.nonzero(np.abs(ref - beta) <= 1e-9)[0]
    if hits.size == 0:
        raise ValueError(f"beta {beta} is not on the record grid")
    return int(hits[0])


def _softmax(logs: np.ndarray) -> np.ndarray:
    w = np.exp(logs - np.max(logs))
    return w / w.sum()


def weights(records: Sequence[SampleRecord], beta: float) -> np.ndarray:
    """Normalized norm-weights w_m at one checkpoint, computed in log space.

    Always sums to 1 and stays positive for any finite log norms; the
    common scale of the log norms cancels.
    """
    col = _beta_column(records, beta)
    logs = np.array([r.log_sq_norm[col] for r in records])
    return _softmax(logs)


def _entropy_eta(w: np.ndarray) -> tuple[float, float]:
    nz = w[w > 0.0]
    ent = float(-np.sum(nz * np.log(nz)))
    return ent, float(np.exp(ent) / w.size)


def efficiency(w: Sequence[float], n_resamples: int = 0, seed=0) -> EfficiencyReport:
    """Weight entropy I, efficiency eta = e^I / M, and a bootstrap sigma.

    With n_resamples = 0 the sigma is skipped (reported as 0).  The
    bootstrap redraws M records with replacement and rebuilds the
    weights from their logs, so it needs strictly positive input
    weights; zero weights are legal only when n_resamples = 0.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty 1-d sequence")
    if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be nonnegative and sum to 1")
    ent, eta = _entropy_eta(w)
    sigma = 0.0
    if n_resamples > 0:
        if np.any(w == 0.0):
            raise ValueError("bootstrap requires strictly positive weights")
        logs = np.log(w)
        sigma = bootstrap_sigma(
            logs,
            lambda draw: _entropy_eta(_softmax(draw))[1],
            n_resamples,
            seed,
        )
    return EfficiencyReport(eta=eta, entropy=ent, num_samples=int(w.size), sigma=sigma, n_resamples=n_resamples)


def weighted_expectation(records: Sequence[SampleRecord], beta: float) -> float:
    """Norm-weighted thermal average sum_m w_m O_m at one checkpoint."""
    col = _beta_column(records, beta)
    w = weights(records, beta)
    obs = np.array([r.obs_value[col] for r in records])
    return float(np.dot(w, obs))


def simple_expectation(records: Sequence[SampleRecord], beta: float) -> float:
    """Norm-free thermal average: the plain mean of the O_m."""
    col = _beta_column(records, beta)
    obs = np.array([r.obs_value[col] for r in records])
    return float(obs.mean())


def entanglement_entropy(state: StateVector) -> float:
    """Half-chain von Neumann entropy in nats (cut after site floor(L/2)).

    Bounded by floor(L/2) * ln 2; zero for any product state.
    """
    lam = schmidt_spectrum(state, state.num_sites // 2)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log(lam)))


def bootstrap_sigma(
    values: Sequence,
    statistic: Callable,
    n_resamples: int,
    seed=0,
) -> float:
    """Standard deviation of a statistic over bootstrap resamples.

    Each resample draws len(values) entries with replacement and
    reevaluates ``statistic`` on them; the spread of those evaluations
    estimates the sampling error of the statistic on the original set.
    Deterministic for a fixed seed.
    """
    n = len(values)
    if n == 0:
        raise ValueError("cannot bootstrap an empty sample set")
    if n_resamples < 2:
        raise ValueError(f"n_resamples must be >= 2, got {n_resamples}")
    rng = np.random.default_rng(seed)
    arr = values if isinstance(values, np.ndarray) else None
    stats = np.empty(n_resamples)
    for r in range(n_resamples):
        idx = rng.integers(0, n, size=n)
        if arr is not None:
            stats[r] = statistic(arr[idx])
        else:
            stats[r] = statistic([values[i] for i in idx])
    return float(np.std(stats))


def trace_prefactor(num_sites: int) -> float:
    """Hilbert-space dimension 2**L.

    Initial states are unit-normalized, so E[<psi|O|psi>] = Tr O / 2**L
    and trace estimates must be scaled by this constant.
    """
    return float(2**num_sites)
