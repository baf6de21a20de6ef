"""Correctness checks on the files a `spintherm run` writes.

Nothing here imports spintherm.  Every check is either a computation made
apart from the program (exact energies by dense diagonalization, the Page
entropy, the estimators recomputed from samples.csv) or a property the
method must have (monotone energies in beta, the d ln Z / d beta = -<H>
bracket, eta in [1/M, 1]).  No check compares against a stored copy of an
earlier output.

A check that concerns one sample marks that sample failed; a check on a
whole (variant, L, beta) aggregate is a problem of the run.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

SUMMARY_COLUMNS = (
    "L", "beta", "init_class", "eta", "eta_sigma", "S_ini_mean", "S_ini_sigma",
    "energy_weighted", "energy_weighted_sigma", "energy_simple", "energy_simple_sigma",
    "M", "master_seed",
)
SAMPLES_COLUMNS = ("L", "sample_index", "beta", "log_sq_norm", "obs_value", "init_entropy")

# Tolerances.  The propagator truncates each Taylor substep at a relative
# 1e-12, so exact identities hold to far better than these.
BETA_TOL = 1e-9        # grid values in the CSV against the requested grid
OBS_TOL = 1e-9         # obs_value must not rise by more than this per beta step
LOGNORM_TOL = 1e-8     # slack on the d ln Z / d beta bracket, per unit beta
RECOMPUTE_RTOL = 1e-9  # summary columns against numpy recomputation
RECOMPUTE_ATOL = 1e-12
# The weighted energy must lie within ENERGY_Z bootstrap sigmas of the
# exact value, plus ENERGY_REL[label] * |exact| for the variants listed.
# Only the integrable (transverse-Ising) scrambler has that allowance: at
# M = 16 its weights are heavy-tailed and the bootstrap understates the
# spread (|z| up to 5.9 was seen over 100 seeds of fig2_eta, errors up to
# 0.018 J per site; the other variants stayed below |z| = 4.8).
ENERGY_Z = 6.0
ENERGY_REL = {"ising_transverse": 0.05}
PAGE_Z = 6.0           # Haar mean entropy within this many sigmas of Page
BOOTSTRAP_RESAMPLES = 1000


@dataclass(frozen=True)
class Variant:
    """One output directory of a run and what it must contain."""

    label: str
    init_class: str          # haar | rpps | trotter_rpps
    L_list: tuple[int, ...]
    betas: tuple[float, ...]
    M: int
    master_seed: int


@dataclass
class Report:
    failed_samples: set = field(default_factory=set)   # {(label, L, m)}
    problems: list = field(default_factory=list)

    def fail(self, label: str, L: int, m: int) -> None:
        self.failed_samples.add((label, int(L), int(m)))

    def merge(self, other: "Report") -> None:
        self.failed_samples |= other.failed_samples
        self.problems.extend(other.problems)


# ---------------------------------------------------------------------------
# Independent references


def _heisenberg_sector(L: int, n_down: int) -> np.ndarray:
    """Eigenvalues of the open Heisenberg chain (J = 1) in the sector with n_down spins down."""
    states = np.array(
        sorted(sum(1 << b for b in c) for c in combinations(range(L), n_down)), dtype=np.int64
    )
    n = states.size
    h = np.zeros((n, n))
    diag = np.arange(n)
    for i in range(L - 1):
        aligned = ((states >> i) & 1) == ((states >> (i + 1)) & 1)
        h[diag, diag] += np.where(aligned, 0.25, -0.25)
        rows = np.nonzero(~aligned)[0]
        cols = np.searchsorted(states, states[rows] ^ ((1 << i) | (1 << (i + 1))))
        h[rows, cols] += 0.5
    return np.linalg.eigvalsh(h)


def heisenberg_levels(L: int) -> tuple[np.ndarray, np.ndarray]:
    """All 2**L levels as (energies, multiplicities), by S^z sector.

    Sectors with n and L - n spins down are mirror images under a global
    spin flip, so only n <= L/2 is diagonalized and the rest counted twice.
    """
    energies, mult = [], []
    for n_down in range(L // 2 + 1):
        e = _heisenberg_sector(L, n_down)
        energies.append(e)
        mult.append(np.full(e.size, 1.0 if 2 * n_down == L else 2.0))
    return np.concatenate(energies), np.concatenate(mult)


def thermal_energies(levels: tuple[np.ndarray, np.ndarray], betas) -> np.ndarray:
    """Exact <H>_beta = Tr H e^{-beta H} / Tr e^{-beta H} at each beta."""
    energies, mult = levels
    out = []
    for beta in betas:
        w = mult * np.exp(-beta * (energies - energies.min()))
        out.append(float(np.dot(w, energies) / w.sum()))
    return np.array(out)


def page_entropy(L: int) -> float:
    """Mean half-chain entropy of a Haar state (Page 1993), cut after floor(L/2) sites."""
    m = 2 ** (L // 2)
    n = 2 ** (L - L // 2)
    m, n = min(m, n), max(m, n)
    return math.fsum(1.0 / k for k in range(n + 1, m * n + 1)) - (m - 1) / (2.0 * n)


def softmax(logs: np.ndarray) -> np.ndarray:
    w = np.exp(logs - logs.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def weighted_energy_sigma(logs: np.ndarray, obs: np.ndarray) -> float:
    """Bootstrap sigma of sum_m w_m O_m, drawn here with a fixed generator."""
    rng = np.random.default_rng(20260101)
    idx = rng.integers(0, logs.size, size=(BOOTSTRAP_RESAMPLES, logs.size))
    return float(np.std(np.sum(softmax(logs[idx]) * obs[idx], axis=1)))


# ---------------------------------------------------------------------------
# CSV reading


def read_csv(path: Path, columns: tuple[str, ...]) -> list[dict]:
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if tuple(header or ()) != columns:
            raise ValueError(f"{path.name}: header {header} is not {list(columns)}")
        return [dict(zip(columns, row)) for row in reader]


# ---------------------------------------------------------------------------
# Checks


def check_samples(v: Variant, rows: list[dict], report: Report) -> dict:
    """Per-sample checks; returns {(L, m): (log_sq_norm, obs_value, init_entropy)} for good samples."""
    betas = np.array(v.betas)
    grouped: dict[tuple[int, int], list[tuple[float, float, float, float]]] = {}
    for row in rows:
        try:
            L, m = int(row["L"]), int(row["sample_index"])
            vals = tuple(float(row[c]) for c in ("beta", "log_sq_norm", "obs_value", "init_entropy"))
        except (TypeError, ValueError):
            report.problems.append(f"{v.label}: unparsable samples row {row}")
            continue
        if L not in v.L_list or not 0 <= m < v.M:
            report.problems.append(f"{v.label}: unexpected sample (L={L}, m={m})")
            continue
        grouped.setdefault((L, m), []).append(vals)

    good = {}
    for L in v.L_list:
        s_max = (L // 2) * math.log(2.0)
        for m in range(v.M):
            got = grouped.get((L, m))
            if got is None or len(got) != betas.size:
                report.fail(v.label, L, m)
                continue
            arr = np.array(got)
            beta, logz, obs, ent = arr.T
            ok = (
                np.all(np.isfinite(arr))
                and np.allclose(beta, betas, rtol=0.0, atol=BETA_TOL)
                and np.all(ent == ent[0])
                and -1e-12 <= ent[0] <= s_max + 1e-9
                # obs_value = <H>_beta never rises with beta (d<H>/dbeta = -Var H).
                and np.all(np.diff(obs) <= OBS_TOL * (1.0 + np.abs(obs[1:])))
            )
            if ok:
                # d ln Z / d beta = -<H>_beta and <H> falls with beta, so on
                # [b_k, b_k+1] the slope of ln Z lies in [-obs_k, -obs_k+1];
                # from beta = 0 (ln Z = 0) it is at most -obs_1.
                steps = np.diff(np.concatenate(([0.0], beta)))
                slope = np.diff(np.concatenate(([0.0], logz))) / steps
                upper = -obs
                lower = np.concatenate(([-np.inf], -obs[:-1]))
                ok = bool(
                    np.all(slope <= upper + LOGNORM_TOL) and np.all(slope >= lower - LOGNORM_TOL)
                )
            if ok:
                good[(L, m)] = (logz, obs, ent[0])
            else:
                report.fail(v.label, L, m)
    return good


def check_summary(v: Variant, rows: list[dict], good: dict, exact, report: Report) -> None:
    """Summary rows against bounds, numpy recomputation, exact energies and Page."""
    expected = {(L, k) for L in v.L_list for k in range(len(v.betas))}
    if len(rows) != len(expected):
        report.problems.append(f"{v.label}: summary.csv has {len(rows)} rows, expected {len(expected)}")
    seen = set()
    for row in rows:
        try:
            L, beta = int(row["L"]), float(row["beta"])
            num = {c: float(row[c]) for c in SUMMARY_COLUMNS if c not in ("L", "init_class")}
        except (TypeError, ValueError):
            report.problems.append(f"{v.label}: unparsable summary row {row}")
            continue
        ks = [k for k, b in enumerate(v.betas) if abs(b - beta) <= BETA_TOL]
        if L not in v.L_list or not ks or (L, ks[0]) in seen:
            report.problems.append(f"{v.label}: unexpected summary row (L={L}, beta={beta})")
            continue
        k = ks[0]
        seen.add((L, k))
        where = f"{v.label} L={L} beta={beta:g}"
        if row["init_class"] != v.label or num["M"] != v.M or num["master_seed"] != v.master_seed:
            report.problems.append(f"{where}: label, M or master_seed column is wrong")
        eta = num["eta"]
        if not 1.0 / v.M - 1e-12 <= eta <= 1.0 + 1e-12:
            report.problems.append(f"{where}: eta {eta} outside [1/M, 1]")
        if not 0.0 <= num["S_ini_mean"] <= (L // 2) * math.log(2.0) + 1e-9:
            report.problems.append(f"{where}: S_ini_mean {num['S_ini_mean']} outside [0, floor(L/2) ln 2]")

        cols = [good[(L, m)] for m in range(v.M) if (L, m) in good]
        if len(cols) != v.M:
            continue  # failed samples are already counted; aggregates cannot be rebuilt
        logs = np.array([c[0][k] for c in cols])
        obs = np.array([c[1][k] for c in cols])
        ent = np.array([c[2] for c in cols])
        w = softmax(logs)
        nz = w[w > 0.0]
        recomputed = {
            "eta": math.exp(-float(np.sum(nz * np.log(nz)))) / v.M,
            "energy_weighted": float(np.dot(w, obs)),
            "energy_simple": float(obs.mean()),
            "S_ini_mean": float(ent.mean()),
        }
        for name, value in recomputed.items():
            if not math.isclose(num[name], value, rel_tol=RECOMPUTE_RTOL, abs_tol=RECOMPUTE_ATOL):
                report.problems.append(f"{where}: {name} {num[name]!r} but samples give {value!r}")

        if exact is not None:
            e_exact = exact(L)[k]
            sigma = weighted_energy_sigma(logs, obs)
            rel = ENERGY_REL.get(v.label, 0.0)
            if abs(num["energy_weighted"] - e_exact) > ENERGY_Z * sigma + rel * abs(e_exact):
                report.problems.append(
                    f"{where}: energy_weighted {num['energy_weighted']:.6f} is not within "
                    f"{ENERGY_Z:g} sigma ({sigma:.2e}) + {rel:g} |exact| of exact {e_exact:.6f}"
                )
        if v.init_class == "haar" and k == 0:
            page = page_entropy(L)
            sigma = float(ent.std(ddof=1) / math.sqrt(v.M)) if v.M > 1 else 0.0
            if abs(num["S_ini_mean"] - page) > PAGE_Z * sigma + 1e-3:
                report.problems.append(
                    f"{where}: Haar S_ini_mean {num['S_ini_mean']:.5f} is not within "
                    f"{PAGE_Z:g} sigma ({sigma:.1e}) of Page {page:.5f}"
                )


def check_variant(v: Variant, out_dir: Path, exact=None) -> Report:
    """Run every check on one variant directory.

    ``exact(L)`` returns the exact energies on ``v.betas``; None skips that check.
    """
    report = Report()
    try:
        samples = read_csv(out_dir / "samples.csv", SAMPLES_COLUMNS)
        summary = read_csv(out_dir / "summary.csv", SUMMARY_COLUMNS)
    except (OSError, ValueError) as exc:
        report.problems.append(f"{v.label}: {exc}")
        for L in v.L_list:
            for m in range(v.M):
                report.fail(v.label, L, m)
        return report
    expected_rows = len(v.L_list) * v.M * len(v.betas)
    if len(samples) != expected_rows:
        report.problems.append(f"{v.label}: samples.csv has {len(samples)} rows, expected {expected_rows}")
    good = check_samples(v, samples, report)
    check_summary(v, summary, good, exact, report)
    return report
