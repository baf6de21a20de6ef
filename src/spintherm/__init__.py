"""Finite-temperature spin-1/2 chain observables from random product states.

The package samples random initial states (Haar vectors or random-phase
product states scrambled by a few Trotter layers), filters them with
exp(-beta H / 2) applied matrix-free, and averages observables with
norm weights.  See the module docstrings for conventions; README.md for
the command-line interface.
"""

from .estimators import (
    bootstrap_sigma,
    efficiency,
    entanglement_entropy,
    simple_expectation,
    weighted_expectation,
    weights,
)
from .hamiltonian import HamiltonianTerms, ModelSpec, build_hamiltonian
from .hilbert import StateVector, normalize, schmidt_spectrum
from .imagtime import BetaGrid, evolve, evolve_with_checkpoints
from .state_prep import (
    SampleSeed,
    TrotterCircuit,
    apply_circuit,
    build_trotter_circuit,
    sample_haar,
    sample_rpps,
)

__version__ = "0.1.0"

__all__ = [
    "StateVector",
    "normalize",
    "schmidt_spectrum",
    "ModelSpec",
    "HamiltonianTerms",
    "build_hamiltonian",
    "SampleSeed",
    "TrotterCircuit",
    "sample_rpps",
    "sample_haar",
    "build_trotter_circuit",
    "apply_circuit",
    "BetaGrid",
    "evolve",
    "evolve_with_checkpoints",
    "weights",
    "efficiency",
    "weighted_expectation",
    "simple_expectation",
    "entanglement_entropy",
    "bootstrap_sigma",
    "__version__",
]
