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

Every estimator reads the samples along the last axis of its input: a
row of M log norms or observables gives the point value, and a (rows, M)
stack of resamples gives one value per row.  bootstrap_sigma hands a
statistic a whole block of resamples at once, so each statistic has one
implementation for both.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .hilbert import StateVector, schmidt_spectrum

__all__ = [
    "weights",
    "efficiency",
    "weighted_expectation",
    "simple_expectation",
    "entanglement_entropy",
    "bootstrap_sigma",
]

# Indices drawn per bootstrap block (2**14 // M resamples of M samples): it
# bounds the memory of one block, whatever M and n_resamples are.
BOOTSTRAP_BLOCK = 2**14


def _samples(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise ValueError("no samples: the last axis is empty")
    return arr


def weights(logs) -> np.ndarray:
    """Normalized norm-weights w_m from the log norms on the last axis.

    Each row sums to 1 and stays positive for any finite log norms; the
    common scale of a row's log norms cancels.
    """
    logs = _samples(logs)
    w = np.exp(logs - logs.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def efficiency(logs):
    """Efficiency eta = e^I / M of the norm-weights of the log norms on the last axis.

    I = -sum w ln w is the entropy of the weights; eta is 1 for uniform
    weights and 1/M when one sample carries all the weight.
    """
    w = weights(logs)
    ent = -np.sum(w * np.log(w, out=np.zeros_like(w), where=w > 0.0), axis=-1)
    return np.exp(ent) / w.shape[-1]


def weighted_expectation(logs, obs):
    """Norm-weighted thermal average sum_m w_m O_m along the last axis.

    A float for one row of logs and observables, one value per row for
    a stack of rows.
    """
    w = weights(logs)
    # A row times a column is np.dot of the pair, the same BLAS sum bit for
    # bit, for one row or a stack; einsum or (w * obs).sum() sum in another order.
    return np.matmul(w[..., None, :], np.asarray(obs, dtype=np.float64)[..., :, None])[..., 0, 0]


def simple_expectation(obs):
    """Norm-free thermal average: the plain mean of the O_m on the last axis."""
    return _samples(obs).mean(axis=-1)


def entanglement_entropy(state: StateVector) -> float:
    """Half-chain von Neumann entropy in nats (cut after site floor(L/2)).

    Bounded by floor(L/2) * ln 2; zero for any product state.
    """
    lam = schmidt_spectrum(state, state.num_sites // 2)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log(lam)))


def bootstrap_sigma(values, statistic: Callable, n_resamples: int, seed=0) -> float:
    """Standard deviation of a statistic over bootstrap resamples.

    Each resample draws len(values) entries of ``values`` (samples on the
    first axis) with replacement; the spread of the statistic over the
    resamples estimates its sampling error on the original set.  The
    resamples come in blocks of about BOOTSTRAP_BLOCK indices, drawn as
    one (rows, M) index array, which is the same random stream as one
    draw per resample.  ``statistic`` gets the (rows, M, ...) block and
    must return one value per row.  Deterministic for a fixed seed.
    """
    values = np.asarray(values)
    n = len(values) if values.ndim else 0
    if n == 0:
        raise ValueError("cannot bootstrap an empty sample set")
    if n_resamples < 2:
        raise ValueError(f"n_resamples must be >= 2, got {n_resamples}")
    rng = np.random.default_rng(seed)
    rows = max(1, BOOTSTRAP_BLOCK // n)
    stats = []
    for done in range(0, n_resamples, rows):
        block = min(rows, n_resamples - done)
        draws = statistic(values[rng.integers(0, n, size=(block, n))])
        if np.shape(draws) != (block,):
            raise ValueError(
                f"statistic must return one value per resample, shape ({block},), got {np.shape(draws)}"
            )
        stats.append(draws)
    return float(np.std(np.concatenate(stats)))
