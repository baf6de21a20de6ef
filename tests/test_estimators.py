"""Weight, efficiency, and bootstrap estimators."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
import spintherm.estimators as estimators
from spintherm.estimators import (
    BOOTSTRAP_BLOCK,
    _resamples,
    bootstrap_sigma,
    efficiency,
    simple_expectation,
    weighted_expectation,
    weights,
)
from helpers import basis_state, bootstrap_reference
from spintherm.hilbert import entanglement_entropy
from spintherm.state_prep import BOOTSTRAP_INDICES, sample_haar, sample_rpps, uniforms


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
    # M = 1,000 and 4,097 exceed numpy's pairwise-summation block (128): the
    # run's summary calls each estimator once on its (K, M) stack, and every
    # row must keep the bits it has alone.
    rng = np.random.default_rng(3)
    for m in (40, 1000, 4097):
        logs = rng.normal(scale=5.0, size=(6, m))
        obs = rng.normal(size=(6, m))
        assert weights(logs).shape == (6, m)
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
    for m, state in enumerate(sample_haar(L, 50, range(16))):
        coeffs = np.abs(vectors.conj().T @ state) ** 2
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
    # (7/8)**8: about a third of the resamples miss sample 3, and all their weights underflow
    sigmas = bootstrap_sigma(logs[None], np.arange(8.0)[None], 50, 1, np.zeros(8))
    assert all(np.all(np.isfinite(s)) for s in sigmas)
    for got, want in zip(sigmas, bootstrap_reference(logs[None], np.arange(8.0)[None], np.zeros(8), 50, 1)):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


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
    logs, obs, s_ini = np.log(rng.exponential(size=(2, 64))), rng.normal(size=(2, 64)), rng.random(64)
    a = bootstrap_sigma(logs, obs, 200, (1, 2), s_ini)
    b = bootstrap_sigma(logs, obs, 200, (1, 2), s_ini)
    c = bootstrap_sigma(logs, obs, 200, (1, 3), s_ini)
    for sa, sb, sc in zip(a, b, c):
        assert np.all(sa == sb) and np.all(sb > 0.0)
        assert np.all(sa != sc)


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
    assert entanglement_entropy(bell) == pytest.approx(np.log(2.0), abs=1e-12)
    assert entanglement_entropy(sample_rpps(7, 0, [0])[0]) <= 1e-10


def test_entanglement_entropy_of_stacked_rows_is_that_of_each_row():
    # one stacked SVD, the same bits per row as each row alone, at even and odd L
    for L in (2, 5, 8):
        rows = np.vstack([sample_haar(L, 60, range(3)), basis_state(L, (1,))])
        ent = entanglement_entropy(rows)
        assert ent.shape == (4,)
        assert np.array_equal(ent, [entanglement_entropy(row) for row in rows])
        assert np.array_equal(entanglement_entropy(rows.reshape(2, 2, -1)), ent.reshape(2, 2))
    with pytest.raises(ValueError, match="is not"):
        entanglement_entropy(np.ones((2, 6), dtype=complex))


def test_bootstrap_sigma_tracks_gaussian_standard_error():
    rng = np.random.default_rng(19)
    vals = rng.normal(size=1024)
    # uniform weights: the weighted energy is the plain mean as well
    _, weighted, simple, s_ini = bootstrap_sigma(np.zeros((1, 1024)), vals[None], 2000, 5, vals)
    expected = 1.0 / np.sqrt(1024.0)
    for sigma in (weighted[0], simple[0], s_ini):
        assert abs(sigma - expected) <= 0.15 * expected


def test_bootstrap_sigma_zero_for_constant_values():
    sigmas = bootstrap_sigma(np.full((2, 16), -4.0), np.full((2, 16), 3.3), 50, 0, np.full(16, 3.3))
    assert all(np.all(s <= 1e-12) for s in sigmas)


def test_bootstrap_sigma_accepts_lists():
    vals = [float(k) for k in range(10)]
    _, _, simple, s_ini = bootstrap_sigma([[0.0] * 10], [vals], 100, 2, vals)
    assert simple[0] == s_ini > 0.0


def test_bootstrap_sigma_validation():
    with pytest.raises(ValueError):
        bootstrap_sigma(np.zeros((1, 0)), np.zeros((1, 0)), 10, 0, np.zeros(0))
    for n_resamples in (1, 2.5, 4.0, True, "8", 2**32 + 1):
        with pytest.raises(ValueError, match="n_resamples"):
            bootstrap_sigma(np.ones((1, 5)), np.ones((1, 5)), n_resamples, 0, np.ones(5))
    for obs, s_ini in ((np.ones((1, 5)), np.ones(5)), (np.ones(5), np.ones(5)), (np.ones((2, 5)), np.ones(4))):
        with pytest.raises(ValueError, match="need"):
            bootstrap_sigma(np.ones((2, 5)), obs, 10, 0, s_ini)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 3),
    n=st.integers(1, 300),
    blocks=st.integers(1, 3),
    tail=st.floats(0.0, 1.0),
    gap=st.floats(0.5, 3.0),
    underflow=st.booleans(),
    seed=st.integers(0, 2**63),
)
def test_blocked_bootstrap_equals_one_resample_at_a_time(k, n, blocks, tail, gap, underflow, seed):
    # Every sigma from the summed table must match the row-wise estimators
    # applied to each resample of the same index draw.  A sigma is known to
    # about eps |statistic| / sigma on either side, so the ln-norms of a row
    # are spaced by a gap of 0.5 to 3 (no sample swamps its neighbour and
    # eta is not within rounding of 1), and at least 16 resamples make it
    # unlikely that all of them give one value (with M = 2, eta = 1 for
    # every resample that repeats one sample).
    rows = max(1, BOOTSTRAP_BLOCK // (n * (4 * k + 1)))
    n_resamples = max(16, (blocks - 1) * rows + 1 + int(tail * (rows - 1)))
    rng = np.random.default_rng(seed % 1000)
    logs = rng.permuted(np.tile(gap * np.arange(n), (k, 1)), axis=1) + rng.uniform(-1e6, 1e6)
    if underflow:
        # a spread above 708: a resample of only the lowered samples has every weight underflow
        logs[:, rng.random(n) < 0.5] -= 1000.0
    obs, s_ini = rng.normal(size=(k, n)), rng.random(n)
    got = bootstrap_sigma(logs, obs, n_resamples, seed, s_ini)
    want = bootstrap_reference(logs, obs, s_ini, n_resamples, seed)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12, abs=0.0)
    # Resample r's indices are draws of stream (seed, BOOTSTRAP_INDICES, r), whatever the
    # block size: the blocks of any BOOTSTRAP_BLOCK join into the one (n_resamples, M) draw,
    # and the sigmas stay those of the one-at-a-time reference.
    draws = np.floor(n * uniforms(seed, BOOTSTRAP_INDICES, range(n_resamples), n)).astype(int)
    for block in (61, 2**20):
        with mock.patch.object(estimators, "BOOTSTRAP_BLOCK", block):
            rows = max(1, block // (n * (4 * k + 1)))
            assert np.array_equal(np.concatenate(list(_resamples(seed, n, n_resamples, rows))), draws)
            for g, w in zip(bootstrap_sigma(logs, obs, n_resamples, seed, s_ini), want):
                assert g == pytest.approx(w, rel=1e-12, abs=0.0)
