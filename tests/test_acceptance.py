"""End-to-end acceptance checks for the sampling pipeline.

Each test prints one ``[A#] PASS/FAIL`` line (run pytest with -s to see
them on success).  The heavy sample collections are module-scoped
fixtures shared across criteria, all single-threaded with fixed seeds.
"""

import csv
import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from oracle import dense_build, exact_evolve
from spintherm.cli import RunConfig, preset_variants, run_experiment
from spintherm.estimators import bootstrap_sigma, efficiency, entanglement_entropy, weights
from spintherm.hamiltonian import ModelSpec, build_hamiltonian
from spintherm.imagtime import BetaGrid, evolve
from spintherm.state_prep import (
    SampleSeed,
    build_trotter_circuit,
    sample_haar,
    sample_rpps,
    scramble,
)

THERMAL_REFERENCE = Path(__file__).parent / "data" / "thermal_reference.csv"
SIZES = (6, 8, 10, 12)


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag} {detail}"


def load_summary(path: Path) -> dict:
    """summary.csv keyed by (L, beta) with float fields."""
    out = {}
    with path.open() as fh:
        for row in csv.DictReader(fh):
            key = (int(row["L"]), float(row["beta"]))
            out[key] = {
                k: (v if k == "init_class" else float(v)) for k, v in row.items()
            }
    return out


def frozen_exact(kind: str, L: int, beta: float) -> float:
    with THERMAL_REFERENCE.open() as fh:
        for row in csv.DictReader(fh):
            if row["kind"] == kind and int(row["L"]) == L and float(row["beta"]) == beta:
                return float(row["value"])
    raise LookupError(f"no frozen value for {kind} L={L} beta={beta}")


@pytest.fixture(scope="module")
def efficiency_runs(tmp_path_factory):
    """Scrambler comparison at beta J = 3: mixed, transverse, Haar; M = 512."""
    base = tmp_path_factory.mktemp("efficiency")
    rows = {}
    for variant in preset_variants("fig2"):
        label = variant.resolved_label()
        cfg = dataclasses.replace(
            variant, M=512, threads=1, output_path=str(base / label)
        )
        rows[label] = load_summary(run_experiment(cfg)["summary"])
    return rows


@pytest.fixture(scope="module")
def estimator_sweep(tmp_path_factory):
    """Weighted vs simple energies on the full beta grid, L in {10, 12}."""
    base = tmp_path_factory.mktemp("sweep")
    cfg = dataclasses.replace(
        preset_variants("fig4")[0], threads=1, n_resamples=0, output_path=str(base)
    )
    return load_summary(run_experiment(cfg)["summary"])


def test_a1_weighted_energy_matches_exact_thermal(tmp_path):
    start = time.monotonic()
    cfg = dataclasses.replace(
        preset_variants("fig2")[0], L_list=(8,), M=1024, threads=1, output_path=str(tmp_path)
    )
    summary = load_summary(run_experiment(cfg)["summary"])
    elapsed = time.monotonic() - start
    row = summary[(8, 3.0)]
    exact = frozen_exact("heisenberg", 8, 3.0)
    diff = abs(row["energy_weighted"] - exact)
    bound = max(3.0 * row["energy_weighted_sigma"], 0.01 * 1.0 * 8)
    ok = diff <= bound and elapsed < 300.0
    _report(
        "A1",
        ok,
        f"|weighted - exact| = {diff:.4f} (bound {bound:.4f}), "
        f"sigma = {row['energy_weighted_sigma']:.4f}, elapsed = {elapsed:.0f} s",
    )


def test_a2_efficiency_grows_with_size(efficiency_runs):
    mixed = [efficiency_runs["ising_mixed"][(L, 3.0)] for L in SIZES]
    trans = efficiency_runs["ising_transverse"][(12, 3.0)]
    etas = [r["eta"] for r in mixed]
    sigmas = [r["eta_sigma"] for r in mixed]
    monotone = all(
        etas[i + 1] >= etas[i] - np.hypot(sigmas[i], sigmas[i + 1])
        for i in range(len(SIZES) - 1)
    )
    gap = etas[-1] - trans["eta"]
    gap_bound = 2.0 * np.hypot(sigmas[-1], trans["eta_sigma"])
    ok = monotone and gap > gap_bound and etas[-1] >= 0.9
    _report(
        "A2",
        ok,
        f"eta(mixed) = {[round(e, 3) for e in etas]} over L = {SIZES}, "
        f"eta(12, transverse) = {trans['eta']:.3f}, gap = {gap:.3f} > {gap_bound:.3f}",
    )


def test_a3_efficiency_matches_haar_baseline(efficiency_runs):
    mixed = efficiency_runs["ising_mixed"][(12, 3.0)]
    haar = efficiency_runs["haar"][(12, 3.0)]
    diff = abs(mixed["eta"] - haar["eta"])
    ok = diff <= 0.05 and mixed["eta_sigma"] > 0.0 and haar["eta_sigma"] > 0.0
    _report(
        "A3",
        ok,
        f"|eta(mixed) - eta(haar)| = {diff:.4f} at L = 12 "
        f"(sigmas {mixed['eta_sigma']:.4f}, {haar['eta_sigma']:.4f})",
    )


def test_a4_initial_entropy_is_volume_law(efficiency_runs):
    Ls = np.array(SIZES, dtype=float)
    page_slope = np.log(2.0) / 2.0
    mixed = np.array([efficiency_runs["ising_mixed"][(L, 3.0)]["S_ini_mean"] for L in SIZES])
    haar = np.array([efficiency_runs["haar"][(L, 3.0)]["S_ini_mean"] for L in SIZES])
    slope, intercept = np.polyfit(Ls, mixed, 1)
    resid = np.max(np.abs(mixed - (slope * Ls + intercept)))
    resid_bound = 0.05 * (mixed.max() - mixed.min())
    haar_slope = np.polyfit(Ls, haar, 1)[0]
    ok = (
        slope >= 0.25
        and resid <= resid_bound
        and abs(haar_slope - page_slope) <= 0.1 * page_slope
    )
    _report(
        "A4",
        ok,
        f"scrambled slope = {slope:.3f} nats/site (residual {resid:.4f} <= {resid_bound:.4f}), "
        f"haar slope = {haar_slope:.3f} vs Page {page_slope:.3f}",
    )


def test_a5_estimators_agree_without_norms(estimator_sweep):
    betas = preset_variants("fig4")[0].beta_grid.checkpoints
    diff = {
        L: np.array(
            [
                abs(
                    estimator_sweep[(L, b)]["energy_weighted"]
                    - estimator_sweep[(L, b)]["energy_simple"]
                )
                / L
                for b in betas
            ]
        )
        for L in (10, 12)
    }
    ok = diff[12].max() <= 5e-3 and diff[12].max() <= 3.0 * diff[10].max()
    _report(
        "A5",
        ok,
        f"max |weighted - simple|/L = {diff[12].max():.2e} at L = 12 "
        f"(<= 5e-3 and <= 3x {diff[10].max():.2e} at L = 10) over {len(betas)} betas",
    )


def test_a6_propagator_matches_exact_evolution():
    specs = [
        ModelSpec(kind="heisenberg", L=4, J=1.0),
        ModelSpec(kind="xxz_staggered", L=4, J=1.0, delta=5.0, h_stag=1.0),
        ModelSpec(kind="transverse_ising", L=4, J=1.0, h_x=1.0),
        ModelSpec(kind="mixed_ising", L=4, J=1.0, h_x=1.0, h_z=1.0),
    ]
    worst_amp = 0.0
    worst_log = 0.0
    for base in specs:
        for L in (4, 6, 8):
            spec = dataclasses.replace(base, L=L)
            terms = build_hamiltonian(spec)
            op = dense_build(terms)
            for j, theta in enumerate((0.1, 1.5)):
                state = sample_haar(L, SampleSeed(100 + L, j))
                (got,), (got_log,) = evolve(state[None], terms, theta)
                want, want_log = exact_evolve(op, state, theta, "imag_time")
                worst_amp = max(worst_amp, float(np.linalg.norm(got - want)))
                worst_log = max(worst_log, abs(got_log - want_log))
    ok = worst_amp <= 1e-8 and worst_log <= 1e-8
    _report(
        "A6",
        ok,
        f"max state error = {worst_amp:.2e}, max log-norm error = {worst_log:.2e} "
        "over 4 models x L in (4, 6, 8) x theta in (0.1, 1.5)",
    )


def test_a7_invariant_suite(tmp_path):
    failures = []

    spec = ModelSpec(kind="mixed_ising", L=12, J=1.0, h_x=1.0, h_z=1.0)
    circuit = build_trotter_circuit(spec, tau=10.0, n_reps=24)
    unitarity = max(
        float(np.max(np.abs(g @ g.conj().T - np.eye(4))))
        for g in circuit.bond_gates
    )
    if unitarity > 1e-12:
        failures.append(f"gate unitarity {unitarity:.2e}")

    (scrambled,), (drift,) = scramble(sample_rpps(12, SampleSeed(0, 0))[None], circuit)
    drift = abs(drift)
    if drift > 1e-10 or abs(np.linalg.norm(scrambled) - 1.0) > 1e-12:
        failures.append(f"circuit norm drift {drift:.2e}")

    w = weights(np.linspace(-350.0, 350.0, 16))
    if not (np.all(np.isfinite(w)) and np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12):
        failures.append("weights at exponent spread 700")

    rng = np.random.default_rng(1)
    for _ in range(25):
        m = int(rng.integers(2, 100))
        eta = efficiency(np.log(rng.exponential(size=m)))
        if not (1.0 / m - 1e-12 <= eta <= 1.0 + 1e-12):
            failures.append(f"eta {eta} outside [1/{m}, 1]")
            break

    terms = build_hamiltonian(ModelSpec(kind="heisenberg", L=6, J=1.0))
    probe = sample_haar(6, SampleSeed(2, 0))
    frozen, frozen_log = evolve(probe[None], terms, 0.0)
    if not (np.array_equal(frozen, probe[None]) and np.array_equal(frozen_log, [0.0])):
        failures.append("beta = 0 is not the identity")

    logs, obs, vals = rng.normal(size=(2, 128)), rng.normal(size=(2, 128)), rng.normal(size=128)
    first, again = (bootstrap_sigma(logs, obs, 300, (5, 6), vals) for _ in range(2))
    if not all(np.array_equal(a, b) for a, b in zip(first, again)):
        failures.append("bootstrap not deterministic")

    base = RunConfig(
        system=ModelSpec(kind="heisenberg", L=4, J=1.0),
        trotter=ModelSpec(kind="mixed_ising", L=4, J=1.0, h_x=1.0, h_z=1.0),
        init_class="trotter_rpps",
        beta_grid=BetaGrid((0.5, 1.0)),
        L_list=(4,),
        M=8,
        master_seed=5,
        n_resamples=0,
        output_path="unused",
    )
    out_one = run_experiment(dataclasses.replace(base, threads=1), tmp_path / "one")
    out_two = run_experiment(dataclasses.replace(base, threads=2), tmp_path / "two")
    if out_one["samples"].read_bytes() != out_two["samples"].read_bytes():
        failures.append("samples.csv differs between 1 and 2 threads")

    _report("A7", not failures, "; ".join(failures) if failures else "all invariants hold")
