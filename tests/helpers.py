"""Small state helpers shared by the tests."""

import numpy as np

from spintherm.hamiltonian import HamiltonianTerms, apply_terms
from spintherm.hilbert import StateVector


def basis_state(num_sites: int, down_sites: tuple[int, ...] = ()) -> StateVector:
    """Computational basis state with the given 1-based sites flipped down, the rest up."""
    for i in down_sites:
        if not 1 <= i <= num_sites:
            raise ValueError(f"site {i} outside chain of {num_sites} sites")
    amps = np.zeros(2**num_sites, dtype=np.complex128)
    amps[sum(1 << (i - 1) for i in set(down_sites))] = 1.0
    return StateVector(amps, 0.0, num_sites)


def expectation(terms: HamiltonianTerms, state: StateVector) -> float:
    """<psi|H|psi> / <psi|psi> of the stored amplitudes, matrix-free."""
    amps = state.amplitudes
    return float(np.vdot(amps, apply_terms(terms, amps)).real / np.vdot(amps, amps).real)
