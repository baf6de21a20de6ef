"""Small state helpers shared by the tests."""

import numpy as np

from spintherm.estimators import efficiency, simple_expectation, weighted_expectation
from spintherm.hamiltonian import HamiltonianTerms, apply_terms


def basis_state(num_sites: int, down_sites: tuple[int, ...] = ()) -> np.ndarray:
    """Computational basis state with the given 1-based sites flipped down, the rest up."""
    for i in down_sites:
        if not 1 <= i <= num_sites:
            raise ValueError(f"site {i} outside chain of {num_sites} sites")
    amps = np.zeros(2**num_sites, dtype=np.complex128)
    amps[sum(1 << (i - 1) for i in set(down_sites))] = 1.0
    return amps


def expectation(terms: HamiltonianTerms, amps: np.ndarray) -> float:
    """<psi|H|psi> / <psi|psi> of one (2**L,) state, matrix-free."""
    return float(np.vdot(amps, apply_terms(terms, amps)).real / np.vdot(amps, amps).real)


def bootstrap_reference(logs, obs, s_ini, n_resamples: int, seed):
    """bootstrap_sigma's four sigmas from an explicit loop of the row-wise estimators, one resample at a time.

    The resamples are the rows of one default_rng(seed).integers(0, M, (n_resamples, M))
    draw.  The spread is taken of the deviations from the full-sample values, the same
    standard deviation, so that a set of identical resamples gives exactly 0.
    """
    logs, obs, s_ini = (np.asarray(a, dtype=np.float64) for a in (logs, obs, s_ini))
    k, n = logs.shape

    def statistics(lg, ob, s):
        return np.concatenate(
            [efficiency(lg), weighted_expectation(lg, ob), simple_expectation(ob), [simple_expectation(s)]]
        )

    full = statistics(logs, obs, s_ini)
    draws = np.random.default_rng(seed).integers(0, n, size=(n_resamples, n))
    sigma = np.std([statistics(logs[:, i], obs[:, i], s_ini[i]) - full for i in draws], axis=0)
    return sigma[:k], sigma[k : 2 * k], sigma[2 * k : 3 * k], sigma[3 * k]
