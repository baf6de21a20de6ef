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
stack of rows gives one value per row.  bootstrap_sigma calls them only
for a resample whose weights all underflow: every statistic is a ratio
of sums over the drawn samples, so one table of per-sample terms, summed
over each resample's draws, gives the error bars of all betas from one
stream of resamples.
"""

from __future__ import annotations

import numpy as np

from .hilbert import chain_length, schmidt_spectrum
from .state_prep import numpy_random

__all__ = [
    "weights",
    "efficiency",
    "weighted_expectation",
    "simple_expectation",
    "entanglement_entropy",
    "bootstrap_sigma",
]

# Table entries gathered per bootstrap block (at least one resample of M
# rows): it bounds the memory of one block, whatever M, K and n_resamples are.
BOOTSTRAP_BLOCK = 2**13


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


def entanglement_entropy(amps):
    """Half-chain von Neumann entropy in nats (cut after site floor(L/2)) of each row of ``amps`` (..., 2**L).

    A float for one state, one value per row for a stack.  Bounded by
    floor(L/2) * ln 2; zero for any product state.
    """
    lam = schmidt_spectrum(amps, chain_length(amps) // 2)
    ent = []
    for row in lam.reshape(-1, lam.shape[-1]):
        row = row[row > 0.0]  # summed alone: the padded row would group the pairwise sum differently
        ent.append(-np.sum(row * np.log(row)))
    return np.reshape(ent, lam.shape[:-1])[()]


def bootstrap_sigma(logs, obs, n_resamples: int, seed, s_ini):
    """Bootstrap sigmas of eta, the weighted and simple energies per beta, and the mean S_ini.

    ``logs`` and ``obs`` are (K, M), one row per beta, and ``s_ini`` is (M,).
    The resamples are the rows of one (n_resamples, M) index draw from
    default_rng(seed) (numpy.random, through ``state_prep.numpy_random``),
    taken in blocks; a drawn sample keeps its values at every beta.  Returns
    the standard deviations over the resamples: (eta_sigma[K],
    weighted_sigma[K], simple_sigma[K], s_ini_sigma).
    """
    logs, obs, s_ini = (np.asarray(a, dtype=np.float64) for a in (logs, obs, s_ini))
    if logs.ndim != 2 or logs.shape[1] == 0 or obs.shape != logs.shape or s_ini.shape != logs.shape[1:]:
        raise ValueError(f"need (K, M >= 1) logs and obs and (M,) s_ini, got {logs.shape}, {obs.shape}, {s_ini.shape}")
    if n_resamples < 2:
        raise ValueError(f"n_resamples must be >= 2, got {n_resamples}")
    k, n = logs.shape
    d = logs - logs.max(axis=1, keepdims=True)
    e = np.exp(d)
    table = np.concatenate([e, d * e, e * obs, obs, s_ini[None]]).T.copy()
    rng = numpy_random().default_rng(seed)
    rows = max(1, BOOTSTRAP_BLOCK // table.size)
    moments = np.zeros((2, 3 * k + 1))
    for done in range(0, n_resamples, rows):
        idx = rng.integers(0, n, size=(min(rows, n_resamples - done), n))
        sums = table[idx].sum(axis=1)
        z, de, eo = sums[:, :k], sums[:, k : 2 * k], sums[:, 2 * k : 3 * k]
        with np.errstate(divide="ignore", invalid="ignore"):  # eta = e^I / M with I = ln Z - sum(d e) / Z
            x = np.concatenate([np.exp(np.log(z) - de / z) / n, eo / z, sums[:, 3 * k :] / n], axis=1)
        # Every drawn weight underflowed (ln-norm spread above ~708): the row-wise estimators rescale.
        r, j = np.nonzero(z < np.finfo(np.float64).tiny)
        if r.size:
            x[r, j] = efficiency(logs[j[:, None], idx[r]])
            x[r, k + j] = weighted_expectation(logs[j[:, None], idx[r]], obs[j[:, None], idx[r]])
        if done == 0:
            center = x[0]  # deviations from one resample keep the variance free of cancellation
        y = x - center
        moments += [y.sum(axis=0), (y * y).sum(axis=0)]
    mean, square = moments / n_resamples
    sigma = np.sqrt(np.maximum(square - mean * mean, 0.0))
    return sigma[:k], sigma[k : 2 * k], sigma[2 * k : 3 * k], float(sigma[3 * k])
