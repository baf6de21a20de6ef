"""Experiment runner and command-line interface.

A run is described by a RunConfig: a system Hamiltonian, an initial
state class (haar, rpps, or trotter_rpps with a scrambling circuit),
a beta grid, and sampling parameters.  For every chain length in
L_list, M samples are drawn, scrambled, evolved in imaginary time, and
measured; per-sample rows and per-(L, beta) aggregates are written as
CSV plus a JSON echo of the resolved configuration.

Samples run on min(threads, M, os.cpu_count()) worker processes, with
threads = os.cpu_count() when the key is unset; a run opens at most one
pool, which serves every chain length.  Sample m derives all of its
randomness from (master_seed, m), and rows are made in file order
(L ascending, then sample, then beta), so the output files are
byte-identical no matter how many worker processes ran or how L_list is
ordered.  The error bars of one L come from one bootstrap stream seeded
from (master_seed, L), which keeps them reproducible from samples.csv
alone.

One schema reads every RunConfig: a table of keys (model fields are
dotted, ``system.kind``, ``trotter.h_x``), each with a text-to-value and
a value-to-text conversion.  Config files (flat ``key = value`` text),
run.json (a JSON object of the same keys and texts), the presets (a
desk base plus each variant's changes) and the run command's overrides
are key -> text maps given to one reader, which names the key of every
bad value and ends in validate_config.  Chain lengths above
FULL_SCALE_LIMIT sites demand ``full_scale = true`` (CLI
``--full-scale``) and print a warning; everything else is desk scale.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .estimators import (
    bootstrap_sigma,
    efficiency,
    entanglement_entropy,
    simple_expectation,
    weighted_expectation,
)
from .hamiltonian import ModelSpec, build_hamiltonian
from .imagtime import BetaGrid, evolve_with_checkpoints
from .state_prep import MAX_TAU, SampleSeed, apply_circuit, build_trotter_circuit, sample_haar, sample_rpps

__all__ = [
    "INIT_CLASSES",
    "FULL_SCALE_LIMIT",
    "ConfigError",
    "RunConfig",
    "parse_config",
    "load_config",
    "validate_config",
    "preset_variants",
    "run_experiment",
    "emit_results",
    "load_run_json",
    "main",
]

INIT_CLASSES = ("haar", "rpps", "trotter_rpps")
FULL_SCALE_LIMIT = 14


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending fields."""


@dataclass
class RunConfig:
    """Everything needed to reproduce one experiment."""

    system: ModelSpec
    init_class: str
    beta_grid: BetaGrid
    L_list: tuple[int, ...]
    M: int
    master_seed: int
    output_path: str = "runs/out"
    trotter: ModelSpec | None = None
    tau: float = 10.0
    n_reps: int | str = "2L"
    n_resamples: int = 4000
    threads: int | None = None
    label: str = ""
    full_scale: bool = False

    def resolved_label(self) -> str:
        return self.label if self.label else self.init_class

    def reps_for(self, L: int) -> int:
        return 2 * L if self.n_reps == "2L" else self.n_reps


def validate_config(cfg: RunConfig) -> None:
    """Raise ConfigError listing every invalid field."""
    problems: list[str] = []
    if cfg.init_class not in INIT_CLASSES:
        problems.append(f"init_class: {cfg.init_class!r} not in {INIT_CLASSES}")
    if cfg.init_class == "trotter_rpps" and cfg.trotter is None:
        problems.append("trotter: required when init_class is trotter_rpps")
    if not cfg.L_list:
        problems.append("L_list: must be nonempty")
    if any(L < 2 for L in cfg.L_list):
        problems.append(f"L_list: every L must be >= 2, got {cfg.L_list}")
    if len(set(cfg.L_list)) != len(cfg.L_list):
        problems.append(f"L_list: duplicate lengths in {cfg.L_list}")
    if max(cfg.L_list, default=2) > FULL_SCALE_LIMIT and not cfg.full_scale:
        problems.append(
            f"L_list: chains above {FULL_SCALE_LIMIT} sites take hours; "
            "set full_scale = true (--full-scale) to confirm"
        )
    if cfg.M < 1:
        problems.append(f"M: must be >= 1, got {cfg.M}")
    if cfg.master_seed < 0:
        problems.append(f"master_seed: must be >= 0, got {cfg.master_seed}")
    if cfg.n_resamples < 0:
        problems.append(f"n_resamples: must be >= 0, got {cfg.n_resamples}")
    if not 0.0 <= cfg.tau <= MAX_TAU:
        problems.append(f"tau: must be in [0, {MAX_TAU:g}], got {cfg.tau}")
    if cfg.n_reps != "2L" and not (isinstance(cfg.n_reps, int) and cfg.n_reps >= 1):
        problems.append(f"n_reps: must be 2L or an integer >= 1, got {cfg.n_reps!r}")
    if cfg.threads is not None and cfg.threads < 1:
        problems.append(f"threads: must be >= 1 or unset, got {cfg.threads}")
    if not cfg.output_path:
        problems.append("output_path: must be nonempty")
    if any(c in cfg.label for c in ',"\r\n'):  # written unquoted into a summary.csv field
        problems.append(f"label: must not contain a comma, quote or line break, got {cfg.label!r}")
    if problems:
        raise ConfigError("; ".join(problems))


# ---------------------------------------------------------------------------
# The config schema: one reader and one writer for every source


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError(f"expected true/false, got {text!r}")
    return low in ("true", "yes", "1")


def _beta_grid(text: str) -> BetaGrid:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range form is start:stop:step, got {text!r}")
        return BetaGrid.uniform(*map(float, parts))
    return BetaGrid(tuple(map(float, text.split(","))))


_TEXT = (str, str)
_INT = (int, str)
_FLOAT = (float, lambda value: repr(float(value)))
_MODEL = {"kind": _TEXT, "J": _FLOAT, "delta": _FLOAT, "h_stag": _FLOAT, "h_x": _FLOAT, "h_z": _FLOAT}

# key -> (text to value, value to text).  Dotted keys are ModelSpec fields.
_FIELDS = {
    "init_class": _TEXT,
    "tau": _FLOAT,
    "n_reps": (lambda text: "2L" if text.strip() == "2L" else int(text), str),
    "beta_grid": (_beta_grid, lambda grid: ",".join(repr(float(b)) for b in grid.checkpoints)),
    "L_list": (lambda text: tuple(int(p) for p in text.split(",")), lambda Ls: ",".join(map(str, Ls))),
    "M": _INT,
    "master_seed": _INT,
    "n_resamples": _INT,
    "output_path": _TEXT,
    "threads": _INT,
    "label": _TEXT,
    "full_scale": (_bool, lambda flag: "true" if flag else "false"),
    **{f"{model}.{name}": conv for model in ("system", "trotter") for name, conv in _MODEL.items()},
}
_REQUIRED = ("system.kind", "init_class", "beta_grid", "L_list", "M", "master_seed")


def _read(raw: dict[str, str]) -> RunConfig:
    """Build and validate a RunConfig from a map of schema keys to value texts."""
    unknown = sorted(set(raw) - set(_FIELDS))
    if unknown:
        raise ConfigError("unknown keys: " + ", ".join(unknown))
    missing = [k for k in _REQUIRED if k not in raw]
    if "trotter.kind" not in raw and any(k.startswith("trotter.") for k in raw):
        missing.append("trotter.kind")
    if missing:
        raise ConfigError("missing keys: " + ", ".join(missing))

    values: dict[str, object] = {}
    problems: list[str] = []
    for key, text in raw.items():
        try:
            values[key] = _FIELDS[key][0](text)
        except (ValueError, OverflowError) as exc:
            problems.append(f"{key}: {exc}")
    fields = {k: v for k, v in values.items() if "." not in k}
    for model in ("system", "trotter"):
        spec = {k.split(".", 1)[1]: v for k, v in values.items() if k.startswith(model + ".")}
        if spec and "L_list" in fields:
            try:  # a chain below 2 sites is L_list's fault, which validate_config names
                fields[model] = ModelSpec(L=max(2, min(fields["L_list"])), **spec)
            except ValueError as exc:
                problems.append(f"{model}: {exc}")
    if problems:
        raise ConfigError("; ".join(problems))
    cfg = RunConfig(**fields)
    validate_config(cfg)
    return cfg


def _write(cfg: RunConfig) -> dict[str, str]:
    """The schema's key -> text map of cfg; unset values (no trotter, no threads) are left out."""
    out = {}
    for key, (_, to_text) in _FIELDS.items():
        model, _, name = key.rpartition(".")
        value = getattr(getattr(cfg, model) if model else cfg, name, None)
        if value is not None:
            out[key] = to_text(value)
    return out


def _parse_lines(text: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {ln}: expected key = value, got {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            raise ConfigError(f"{key}: duplicated")
        raw[key] = value
    return raw


def parse_config(text: str) -> RunConfig:
    """Build a RunConfig from flat key = value lines ('#' starts a comment)."""
    return _read(_parse_lines(text))


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    return parse_config(_read_text(path))


# ---------------------------------------------------------------------------
# Presets mirroring the four desk-scale experiments, as changes to one base

_DESK = {
    "system.kind": "heisenberg",
    "init_class": "trotter_rpps",
    "beta_grid": "3.0",
    "L_list": "6,8,10,12",
    "M": "1024",
    "master_seed": "42",
}
# Each variant's changes to its preset's base; the key is also its label.
_VARIANTS = {
    "xxz_stagger": {"trotter.kind": "xxz_staggered", "trotter.delta": "5.0", "trotter.h_stag": "1.0"},
    "xxz_nostagger": {"trotter.kind": "xxz_staggered", "trotter.delta": "5.0", "trotter.h_stag": "0.0"},
    "ising_mixed": {"trotter.kind": "mixed_ising", "trotter.h_x": "1.0", "trotter.h_z": "1.0"},
    "ising_transverse": {"trotter.kind": "transverse_ising", "trotter.h_x": "1.0"},
    "haar": {"init_class": "haar"},
}
# preset -> (changes to the desk base, variant labels with the headline first)
_PRESETS = {
    "fig1": ({}, ("xxz_stagger", "xxz_nostagger", "haar")),
    "fig2": ({}, ("ising_mixed", "ising_transverse", "haar")),
    "fig3": ({"beta_grid": "0.1:3.0:0.1", "L_list": "12"}, ("ising_mixed", "ising_transverse")),
    "fig4": ({"beta_grid": "0.1:3.0:0.1", "L_list": "10,12"}, ("ising_mixed",)),
}
PRESET_NAMES = tuple(_PRESETS)


def _preset_maps(name: str) -> list[dict[str, str]]:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")
    changes, labels = _PRESETS[name]
    base = {**_DESK, **changes, "output_path": f"runs/{name}"}
    return [{**base, **_VARIANTS[label], "label": label} for label in labels]


def preset_variants(name: str) -> list[RunConfig]:
    """A named desk-scale experiment: its headline config, then its comparison runs.

    fig1: Heisenberg system, XXZ+staggered-field scrambling, beta J = 3.
    fig2: Heisenberg system, mixed-field Ising scrambling, beta J = 3.
    fig3: beta sweep of both energy estimators at L = 12.
    fig4: estimator-difference comparison between L = 10 and L = 12.
    The comparison runs are the Haar baseline and the integrable scramblers.
    """
    return [_read(raw) for raw in _preset_maps(name)]


# ---------------------------------------------------------------------------
# Execution


def _run_one_sample(
    L: int,
    init_class: str,
    master_seed: int,
    circuit,
    system_terms,
    grid: BetaGrid,
    sample_index: int,
) -> tuple[float, list[float], list[float]]:
    seed = SampleSeed(master_seed, sample_index)
    if init_class == "haar":
        state = sample_haar(L, seed)
    else:
        state = sample_rpps(L, seed)
        if init_class == "trotter_rpps":
            state = apply_circuit(state, circuit)
    s_ini = entanglement_entropy(state)
    rows = evolve_with_checkpoints(state, system_terms, grid)
    return s_ini, [r[1] for r in rows], [r[2] for r in rows]


def _workers(cfg: RunConfig) -> int:
    """Worker processes for one run: threads (the cpu count when unset), at most M and the cpu count."""
    cpus = os.cpu_count() or 1
    return min(cfg.threads or cpus, cfg.M, cpus)


def _collect_samples(cfg: RunConfig, L: int, pool_map) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial entropies, shape (M,), and ln-norms and energies, shape (K, M): one row per beta.

    pool_map runs the samples and returns their results in sample order, as the builtin map does.
    """
    system_terms = build_hamiltonian(dataclasses.replace(cfg.system, L=L))
    circuit = None
    if cfg.init_class == "trotter_rpps":
        circuit = build_trotter_circuit(
            dataclasses.replace(cfg.trotter, L=L), cfg.tau, cfg.reps_for(L)
        )
    task = partial(
        _run_one_sample,
        L,
        cfg.init_class,
        cfg.master_seed,
        circuit,
        system_terms,
        cfg.beta_grid,
    )
    s_ini, logs, obs = map(np.array, zip(*pool_map(task, range(cfg.M))))
    logs, obs = logs.T.copy(), obs.T.copy()  # contiguous rows: a strided one changes the dot's last bit
    if not (np.all(np.isfinite(logs)) and np.all(np.isfinite(obs))):
        raise ValueError(f"L = {L}: ln-norms and energies must be finite")
    if not np.all(np.isfinite(s_ini)) or np.any(s_ini < -1e-12):
        raise ValueError(f"L = {L}: initial entropies must be nonnegative reals, got {s_ini.min()}")
    return s_ini, logs, obs


def _aggregate(cfg: RunConfig, L: int, s_ini: np.ndarray, logs: np.ndarray, obs: np.ndarray) -> list[tuple]:
    """Per-(L, beta) summary rows in SUMMARY_HEADER order; one bootstrap per L, seeded from the run identity."""
    eta_sigma, weighted_sigma, simple_sigma, s_ini_sigma = (
        bootstrap_sigma(logs, obs, cfg.n_resamples, (cfg.master_seed, L), s_ini)
        if cfg.n_resamples >= 2
        else (np.zeros(len(logs)),) * 3 + (0.0,)
    )
    s_ini_mean = float(simple_expectation(s_ini))
    return [
        (L, beta, cfg.resolved_label(), efficiency(logs[k]), eta_sigma[k], s_ini_mean, s_ini_sigma,
         weighted_expectation(logs[k], obs[k]), weighted_sigma[k], simple_expectation(obs[k]), simple_sigma[k],
         cfg.M, cfg.master_seed)
        for k, beta in enumerate(cfg.beta_grid.checkpoints)
    ]


SUMMARY_HEADER = (
    "L,beta,init_class,eta,eta_sigma,S_ini_mean,S_ini_sigma,"
    "energy_weighted,energy_weighted_sigma,energy_simple,energy_simple_sigma,M,master_seed"
)
SAMPLES_HEADER = "L,sample_index,beta,log_sq_norm,obs_value,init_entropy"


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def emit_results(
    summary_rows: list[tuple],
    sample_rows: list[tuple],
    cfg: RunConfig,
    out_dir: str | Path,
) -> dict[str, Path]:
    """Write summary.csv, samples.csv, and run.json; returns their paths.

    Each CSV gets its header and then the rows it is given, in the order
    given, with floats printed to 17 significant digits.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"summary": out / "summary.csv", "samples": out / "samples.csv", "run_json": out / "run.json"}
    for key, header, rows in (("summary", SUMMARY_HEADER, summary_rows), ("samples", SAMPLES_HEADER, sample_rows)):
        with paths[key].open("w") as fh:
            fh.write(header + "\n")
            fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)
    with paths["run_json"].open("w") as fh:
        json.dump(_write(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def load_run_json(path: str | Path) -> RunConfig:
    """Rebuild and validate the RunConfig echoed into run.json."""
    try:
        raw = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not (isinstance(raw, dict) and all(isinstance(text, str) for text in raw.values())):
        raise ConfigError(f"{path}: expected a JSON object of config keys and value texts")
    return _read(raw)


def run_experiment(cfg: RunConfig, out_dir: str | Path | None = None) -> dict[str, Path]:
    """Execute one configuration on at most one worker pool and write its three output files."""
    validate_config(cfg)
    workers = _workers(cfg)
    if max(cfg.L_list) > FULL_SCALE_LIMIT:
        print(
            f"warning: L={max(cfg.L_list)} is full scale; expect hours of runtime",
            file=sys.stderr,
        )
    summary_rows: list[tuple] = []
    sample_rows: list[tuple] = []
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        pool_map = partial(pool.map, chunksize=max(1, cfg.M // (4 * workers))) if workers > 1 else map
        for L in sorted(cfg.L_list):
            s_ini, logs, obs = _collect_samples(cfg, L, pool_map)
            summary_rows += _aggregate(cfg, L, s_ini, logs, obs)
            sample_rows += [
                (L, m, beta, logs[k, m], obs[k, m], s_ini[m])
                for m in range(cfg.M)
                for k, beta in enumerate(cfg.beta_grid.checkpoints)
            ]
    return emit_results(summary_rows, sample_rows, cfg, out_dir or cfg.output_path)


# ---------------------------------------------------------------------------
# Command line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spintherm",
        description="Finite-temperature spin-chain sampling with Trotter-scrambled product states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a config file or a named preset")
    src = run_p.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to a flat key = value config file")
    src.add_argument("--preset", choices=PRESET_NAMES, help="named desk-scale experiment")
    # Overrides are stored under their schema keys.
    run_p.add_argument("--L", dest="L_list", help="comma-separated chain lengths overriding L_list")
    run_p.add_argument("--samples", dest="M", help="samples per (L, class)")
    run_p.add_argument("--seed", dest="master_seed", help="master seed")
    run_p.add_argument("--out", help="output directory")
    run_p.add_argument("--threads", help="worker processes, at most M and the cpu count")
    run_p.add_argument("--full-scale", action="store_const", const="true",
                       help="allow chains above the desk-scale limit")

    val_p = sub.add_parser("validate", help="check a config file without running it")
    val_p.add_argument("--config", required=True)

    args = parser.parse_args(argv)

    try:
        if args.command == "validate":
            load_config(args.config)
            print("ok")
            return 0
        over = {key: text for key, text in vars(args).items() if key in _FIELDS and text is not None}
        raws = [_parse_lines(_read_text(args.config))] if args.config else _preset_maps(args.preset)
        cfgs = [_read({**raw, **over}) for raw in raws]
        for cfg in cfgs:
            out = Path(args.out or cfg.output_path)
            if args.preset:
                out = out / cfg.resolved_label()
            paths = run_experiment(cfg, out)
            print(f"{cfg.resolved_label()}: {paths['summary']}")
    except (ConfigError, OSError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
