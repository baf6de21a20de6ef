"""Finite-temperature spin-1/2 chain observables from random product states.

The package samples random initial states (Haar vectors or random-phase
product states scrambled by a few Trotter layers), reads each one's
<psi|exp(-beta H)|psi> and energy by Lanczos quadrature without building a
filtered state, and averages observables with norm weights.  See the
module docstrings for conventions; README.md for the command-line interface.

Importing the package sets OPENBLAS_NUM_THREADS (OpenBLAS, numpy's
bundled scipy-openblas too), OMP_NUM_THREADS (OpenMP builds) and
MKL_NUM_THREADS (Intel MKL) to 1 where unset: the worker count is the one
parallelism control, and a multithreaded BLAS changes output bits with the
core count.  It does nothing if numpy was imported first, and nothing for
other builds (Accelerate).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .estimators import (  # noqa: E402
    bootstrap_sigma,
    efficiency,
    simple_expectation,
    weighted_expectation,
    weights,
)
from .hamiltonian import HamiltonianTerms, ModelSpec, build_hamiltonian
from .hilbert import entanglement_entropy
from .imagtime import BetaGrid, walk
from .state_prep import (
    TrotterCircuit,
    build_trotter_circuit,
    sample_haar,
    sample_rpps,
    scramble,
)

__version__ = "0.1.0"

__all__ = [
    "ModelSpec",
    "HamiltonianTerms",
    "build_hamiltonian",
    "TrotterCircuit",
    "sample_rpps",
    "sample_haar",
    "build_trotter_circuit",
    "scramble",
    "BetaGrid",
    "walk",
    "weights",
    "efficiency",
    "weighted_expectation",
    "simple_expectation",
    "entanglement_entropy",
    "bootstrap_sigma",
    "__version__",
]
