"""Weight, efficiency, and bootstrap estimators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from spintherm.estimators import (
    BOOTSTRAP_BLOCK,
    bootstrap_sigma,
    efficiency,
    entanglement_entropy,
    simple_expectation,
    weighted_expectation,
    weights,
)
from helpers import basis_state
from spintherm.hilbert import StateVector
from spintherm.state_prep import SampleSeed, sample_haar, sample_rpps


def test_weights_uniform_logs():
    assert np.allclose(weights([0.3] * 5), 0.2, atol=1e-15)


def test_weights_known_ratio():
    assert np.allclose(weights([np.log(3.0), 0.0]), [0.75, 0.25], atol=1e-15)


def test_weights_shift_invariance():
    rng = np.random.default_rng(0)
    logs = rng.normal(size=12)
    a = weights(logs)
    b = weights(logs + 300.0)
    assert np.allclose(a, b, atol=1e-15)


def test_weights_survive_large_log_spread():
    logs = np.linspace(-350.0, 350.0, 8)
    w = weights(logs)
    assert np.all(w >= 0.0)
    assert np.all(np.isfinite(w))
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.argmax(w) == 7


def test_estimators_refuse_empty_input():
    for empty in ([], np.zeros((3, 0)), 0.5):
        with pytest.raises(ValueError, match="no samples"):
            weights(empty)
        with pytest.raises(ValueError, match="no samples"):
            weighted_expectation(empty, empty)
        with pytest.raises(ValueError, match="no samples"):
            simple_expectation(empty)


def test_estimators_act_row_by_row():
    rng = np.random.default_rng(3)
    logs = rng.normal(scale=5.0, size=(6, 40))
    obs = rng.normal(size=(6, 40))
    assert weights(logs).shape == (6, 40)
    assert efficiency(logs).shape == weighted_expectation(logs, obs).shape == simple_expectation(obs).shape == (6,)
    for row in range(6):
        assert np.array_equal(weights(logs)[row], weights(logs[row]))
        assert efficiency(logs)[row] == efficiency(logs[row])
        assert weighted_expectation(logs, obs)[row] == weighted_expectation(logs[row], obs[row])
        assert simple_expectation(obs)[row] == simple_expectation(obs[row])


def test_weights_match_dense_norm_ratios():
    # w_m must equal <psi_m|e^{-beta H}|psi_m> / sum_n <psi_n|...|psi_n>
    L, beta = 6, 1.7
    matrix = ref.heisenberg_matrix(L)
    energies, vectors = np.linalg.eigh(matrix)
    boltz = np.exp(-beta * (energies - energies[0]))
    norms = np.empty(16)
    logs = np.empty(16)
    for m in range(16):
        state = sample_haar(L, SampleSeed(50, m))
        coeffs = np.abs(vectors.conj().T @ state.amplitudes) ** 2
        norms[m] = np.sum(coeffs * boltz)
        logs[m] = np.log(norms[m]) - beta * energies[0]
    assert np.allclose(weights(logs), norms / norms.sum(), atol=1e-9)


def test_efficiency_uniform_weights():
    # equal log norms, whatever their common value, give uniform weights
    assert efficiency(np.full(32, -7.5)) == pytest.approx(1.0, abs=1e-12)


def test_efficiency_one_hot():
    # a spread beyond the float range leaves one nonzero weight, and zero
    # weights do not stop the bootstrap
    logs = np.full(8, -1000.0)
    logs[3] = 0.0
    assert efficiency(logs) == pytest.approx(1.0 / 8.0, abs=1e-12)
    assert np.isfinite(bootstrap_sigma(logs, efficiency, 50, seed=1))


def test_efficiency_bounds_on_random_weights():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = int(rng.integers(2, 200))
        logs = np.log(rng.exponential(size=m))
        eta = efficiency(logs)
        assert 1.0 / m - 1e-12 <= eta <= 1.0 + 1e-12
        w = weights(logs)
        assert -np.sum(w * np.log(w)) == pytest.approx(np.log(m * eta), abs=1e-10)


def test_efficiency_bootstrap_is_deterministic():
    rng = np.random.default_rng(8)
    logs = np.log(rng.exponential(size=64))
    a = bootstrap_sigma(logs, efficiency, 200, seed=(1, 2))
    b = bootstrap_sigma(logs, efficiency, 200, seed=(1, 2))
    c = bootstrap_sigma(logs, efficiency, 200, seed=(1, 3))
    assert a == b > 0.0
    assert a != c


def test_efficiency_input_validation():
    for empty in ([], np.zeros((3, 0)), 0.5):
        with pytest.raises(ValueError, match="no samples"):
            efficiency(empty)


def test_single_record_estimates_coincide():
    assert weighted_expectation([0.4], [2.5]) == simple_expectation([2.5]) == 2.5


def test_uniform_weights_make_estimates_equal():
    obs = np.array([1.0, -2.0, 0.5, 3.0])
    assert weighted_expectation(np.zeros(4), obs) == pytest.approx(obs.mean(), abs=1e-14)


def test_small_spread_keeps_estimates_close():
    rng = np.random.default_rng(11)
    obs = rng.normal(size=100)
    logs = rng.normal(scale=1e-6, size=100)
    diff = abs(weighted_expectation(logs, obs) - simple_expectation(obs))
    assert diff <= 1e-5


def test_entanglement_entropy_product_and_bell():
    assert entanglement_entropy(basis_state(6, down_sites=(2, 5))) == pytest.approx(0.0, abs=1e-14)
    bell = np.zeros(4, dtype=complex)
    bell[0b00] = bell[0b11] = 1.0 / np.sqrt(2.0)
    assert entanglement_entropy(StateVector(bell, 0.0, 2)) == pytest.approx(np.log(2.0), abs=1e-12)
    assert entanglement_entropy(sample_rpps(7, SampleSeed(0, 0))) <= 1e-10


def test_bootstrap_sigma_tracks_gaussian_standard_error():
    rng = np.random.default_rng(19)
    vals = rng.normal(size=1024)
    sigma = bootstrap_sigma(vals, simple_expectation, 2000, seed=5)
    expected = 1.0 / np.sqrt(1024.0)
    assert abs(sigma - expected) <= 0.15 * expected


def test_bootstrap_sigma_zero_for_constant_values():
    assert bootstrap_sigma(np.full(16, 3.3), simple_expectation, 50) <= 1e-12


def test_bootstrap_sigma_accepts_lists():
    vals = [float(k) for k in range(10)]
    sigma = bootstrap_sigma(vals, lambda draw: np.mean(draw, axis=-1), 100, seed=2)
    assert sigma > 0.0


def test_bootstrap_sigma_validation():
    with pytest.raises(ValueError):
        bootstrap_sigma(np.zeros(0), simple_expectation, 10)
    with pytest.raises(ValueError, match="n_resamples"):
        bootstrap_sigma(np.ones(5), simple_expectation, 1)


def _one_resample_at_a_time(values, statistic, n_resamples, seed):
    """Reference bootstrap: one index draw and one scalar statistic per resample."""
    rng = np.random.default_rng(seed)
    stats = np.empty(n_resamples)
    for r in range(n_resamples):
        stats[r] = statistic(values[rng.integers(0, len(values), size=len(values))])
    return float(np.std(stats))


def _softmax(logs):
    w = np.exp(logs - np.max(logs))
    return w / w.sum()


def _eta(logs):
    w = _softmax(logs)
    nz = w[w > 0.0]
    return float(np.exp(-np.sum(nz * np.log(nz))) / w.size)


def _weighted(pairs):
    return float(np.dot(_softmax(pairs[:, 0]), pairs[:, 1]))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    blocks=st.integers(1, 3),
    tail=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**63),
    kind=st.sampled_from(["mean", "weighted", "eta"]),
)
def test_blocked_bootstrap_equals_one_resample_at_a_time(n, blocks, tail, seed, kind):
    # The blocked draw must be the same random stream and the row-wise
    # statistics the same floating-point sums as the scalar loop.
    rows = max(1, BOOTSTRAP_BLOCK // n)
    n_resamples = max(2, (blocks - 1) * rows + 1 + int(tail * (rows - 1)))
    rng = np.random.default_rng(seed % 1000)
    logs, obs = rng.normal(scale=3.0, size=n), rng.normal(size=n)
    if kind == "mean":
        got = bootstrap_sigma(obs, simple_expectation, n_resamples, seed)
        want = _one_resample_at_a_time(obs, np.mean, n_resamples, seed)
    elif kind == "weighted":
        pairs = np.column_stack([logs, obs])
        got = bootstrap_sigma(pairs, lambda d: weighted_expectation(d[..., 0], d[..., 1]), n_resamples, seed)
        want = _one_resample_at_a_time(pairs, _weighted, n_resamples, seed)
    else:
        got = bootstrap_sigma(logs, efficiency, n_resamples, seed)
        want = _one_resample_at_a_time(logs, _eta, n_resamples, seed)
    assert got == want


def test_bootstrap_refuses_a_statistic_without_one_value_per_resample():
    vals = np.arange(5.0)
    with pytest.raises(ValueError, match="one value per resample"):
        bootstrap_sigma(vals, np.mean, 10)
    with pytest.raises(ValueError, match="one value per resample"):
        bootstrap_sigma(vals, lambda draw: draw, 10)
