"""Experiment runner and command-line interface.

A run is described by a RunConfig: a system Hamiltonian, an initial
state class (haar, rpps, or trotter_rpps with a scrambling circuit),
a beta grid, and sampling parameters.  For every chain length in
L_list, M samples are drawn, scrambled, evolved in imaginary time, and
measured; per-sample rows and per-(L, beta) aggregates are written as
CSV plus a JSON echo of the resolved configuration.

Sample m derives all of its randomness from (master_seed, m), and
results are sorted before emission, so the output files are
byte-identical no matter how many worker processes ran.  Error bars are
bootstrapped with generators seeded from (master_seed, L, beta index,
quantity), which keeps them reproducible from samples.csv alone.

Config files are flat ``key = value`` text; nested model fields use
dotted keys (``system.kind``, ``trotter.h_x``).  Unknown keys are
rejected.  Chain lengths above FULL_SCALE_LIMIT sites demand
``full_scale = true`` (CLI ``--full-scale``) and print a runtime
warning; everything else is desk scale.
"""

from __future__ import annotations

import argparse
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
    SampleRecord,
    bootstrap_sigma,
    efficiency,
    entanglement_entropy,
    simple_expectation,
    weighted_expectation,
    weights,
)
from .hamiltonian import ModelSpec, build_hamiltonian
from .imagtime import BetaGrid, PropagatorConfig, evolve_with_checkpoints
from .state_prep import SampleSeed, apply_circuit, build_trotter_circuit, sample_haar, sample_rpps

__all__ = [
    "INIT_CLASSES",
    "FULL_SCALE_LIMIT",
    "THREADS_ENV_VAR",
    "ConfigError",
    "RunConfig",
    "parse_config",
    "load_config",
    "validate_config",
    "preset",
    "preset_variants",
    "run_experiment",
    "emit_results",
    "load_run_json",
    "main",
]

INIT_CLASSES = ("haar", "rpps", "trotter_rpps")
FULL_SCALE_LIMIT = 14
THREADS_ENV_VAR = "SPINTHERM_THREADS"
PRESET_NAMES = ("fig1", "fig2", "fig3", "fig4")


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
    output_path: str
    trotter: ModelSpec | None = None
    tau: float = 10.0
    n_reps_rule: str = "2L"
    n_reps: int = 0
    n_resamples: int = 4000
    threads: int | None = None
    label: str = ""
    full_scale: bool = False

    def resolved_label(self) -> str:
        return self.label if self.label else self.init_class

    def reps_for(self, L: int) -> int:
        return 2 * L if self.n_reps_rule == "2L" else self.n_reps


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
    if not (cfg.tau >= 0.0 and np.isfinite(cfg.tau)):
        problems.append(f"tau: must be finite and >= 0, got {cfg.tau}")
    if cfg.n_reps_rule not in ("2L", "explicit"):
        problems.append(f"n_reps_rule: {cfg.n_reps_rule!r} not in ('2L', 'explicit')")
    elif cfg.n_reps_rule == "explicit" and cfg.n_reps < 0:
        problems.append(f"n_reps: must be >= 0, got {cfg.n_reps}")
    if cfg.threads is not None and cfg.threads < 1:
        problems.append(f"threads: must be >= 1 or unset, got {cfg.threads}")
    if not cfg.output_path:
        problems.append("output_path: must be nonempty")
    if problems:
        raise ConfigError("; ".join(problems))


# ---------------------------------------------------------------------------
# Flat key = value config files


_MODEL_KEYS = ("kind", "J", "delta", "h_stag", "h_x", "h_z")
_SCALAR_KEYS = (
    "init_class",
    "tau",
    "n_reps_rule",
    "n_reps",
    "beta_grid",
    "L_list",
    "M",
    "master_seed",
    "n_resamples",
    "output_path",
    "threads",
    "label",
    "full_scale",
)


def _parse_beta_grid(text: str) -> BetaGrid:
    if ":" in text:
        parts = [p.strip() for p in text.split(":")]
        if len(parts) != 3:
            raise ConfigError(f"beta_grid: range form is start:stop:step, got {text!r}")
        return BetaGrid.uniform(float(parts[0]), float(parts[1]), float(parts[2]))
    return BetaGrid(tuple(float(p) for p in text.split(",")))


def _parse_bool(key: str, text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {text!r}")


def parse_config(text: str) -> RunConfig:
    """Build a RunConfig from flat key = value lines ('#' starts a comment)."""
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

    known = set(_SCALAR_KEYS)
    known.update(f"system.{k}" for k in _MODEL_KEYS)
    known.update(f"trotter.{k}" for k in _MODEL_KEYS)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError("unknown keys: " + ", ".join(unknown))

    required = ["system.kind", "init_class", "beta_grid", "L_list", "M", "master_seed"]
    missing = [k for k in required if k not in raw]
    if missing:
        raise ConfigError("missing keys: " + ", ".join(missing))

    try:
        L_list = tuple(int(p) for p in raw["L_list"].split(","))
    except ValueError as exc:
        raise ConfigError(f"L_list: {exc}") from exc
    if not L_list:
        raise ConfigError("L_list: must be nonempty")

    def model_from(prefix: str) -> ModelSpec:
        kw: dict[str, float | str | int] = {"L": min(L_list)}
        for field_name in _MODEL_KEYS:
            key = f"{prefix}.{field_name}"
            if key in raw:
                kw[field_name] = raw[key] if field_name == "kind" else float(raw[key])
        try:
            return ModelSpec(**kw)  # type: ignore[arg-type]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{prefix}: {exc}") from exc

    system = model_from("system")
    trotter = model_from("trotter") if any(k.startswith("trotter.") for k in raw) else None

    def intval(key: str, default: int) -> int:
        if key not in raw:
            return default
        try:
            return int(raw[key])
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc

    try:
        grid = _parse_beta_grid(raw["beta_grid"])
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"beta_grid: {exc}") from exc

    cfg = RunConfig(
        system=system,
        trotter=trotter,
        init_class=raw["init_class"],
        tau=float(raw.get("tau", 10.0)),
        n_reps_rule=raw.get("n_reps_rule", "2L"),
        n_reps=intval("n_reps", 0),
        beta_grid=grid,
        M=intval("M", 0),
        master_seed=intval("master_seed", 0),
        n_resamples=intval("n_resamples", 4000),
        L_list=L_list,
        output_path=raw.get("output_path", "runs/out"),
        threads=intval("threads", 0) or None if "threads" in raw else None,
        label=raw.get("label", ""),
        full_scale=_parse_bool("full_scale", raw["full_scale"]) if "full_scale" in raw else False,
    )
    validate_config(cfg)
    return cfg


def load_config(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text())


# ---------------------------------------------------------------------------
# Presets mirroring the four desk-scale experiments


def _desk_base(**over) -> dict:
    base = dict(
        init_class="trotter_rpps",
        tau=10.0,
        n_reps_rule="2L",
        beta_grid=BetaGrid((3.0,)),
        M=1024,
        master_seed=42,
        n_resamples=4000,
        L_list=(6, 8, 10, 12),
    )
    base.update(over)
    return base


def preset(name: str) -> RunConfig:
    """Named desk-scale experiment; returns its headline configuration.

    fig1: Heisenberg system, XXZ+staggered-field scrambling, beta J = 3.
    fig2: Heisenberg system, mixed-field Ising scrambling, beta J = 3.
    fig3: beta sweep of both energy estimators at L = 12.
    fig4: estimator-difference comparison between L = 10 and L = 12.
    Companion runs (Haar baseline, integrable scrambler) come from
    preset_variants().
    """
    if name == "fig1":
        return RunConfig(
            system=ModelSpec(kind="heisenberg", L=6, J=1.0, delta=5.0),
            trotter=ModelSpec(kind="xxz_staggered", L=6, J=1.0, delta=5.0, h_stag=1.0),
            label="xxz_stagger",
            output_path="runs/fig1",
            **_desk_base(),
        )
    if name == "fig2":
        return RunConfig(
            system=ModelSpec(kind="heisenberg", L=6, J=1.0),
            trotter=ModelSpec(kind="mixed_ising", L=6, J=1.0, h_x=1.0, h_z=1.0),
            label="ising_mixed",
            output_path="runs/fig2",
            **_desk_base(),
        )
    if name == "fig3":
        return RunConfig(
            system=ModelSpec(kind="heisenberg", L=12, J=1.0),
            trotter=ModelSpec(kind="mixed_ising", L=12, J=1.0, h_x=1.0, h_z=1.0),
            label="ising_mixed",
            output_path="runs/fig3",
            **_desk_base(beta_grid=BetaGrid.uniform(0.1, 3.0, 0.1), L_list=(12,)),
        )
    if name == "fig4":
        return RunConfig(
            system=ModelSpec(kind="heisenberg", L=10, J=1.0),
            trotter=ModelSpec(kind="mixed_ising", L=10, J=1.0, h_x=1.0, h_z=1.0),
            label="ising_mixed",
            output_path="runs/fig4",
            **_desk_base(beta_grid=BetaGrid.uniform(0.1, 3.0, 0.1), L_list=(10, 12)),
        )
    raise ConfigError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")


def preset_variants(name: str) -> list[RunConfig]:
    """Headline config plus the comparison runs of the same experiment."""
    head = preset(name)
    out = [head]
    if name == "fig1":
        out.append(
            dataclasses.replace(
                head,
                trotter=dataclasses.replace(head.trotter, h_stag=0.0),
                label="xxz_nostagger",
            )
        )
        out.append(dataclasses.replace(head, trotter=None, init_class="haar", label="haar"))
    elif name == "fig2":
        out.append(
            dataclasses.replace(
                head,
                trotter=ModelSpec(kind="transverse_ising", L=head.trotter.L, J=1.0, h_x=1.0),
                label="ising_transverse",
            )
        )
        out.append(dataclasses.replace(head, trotter=None, init_class="haar", label="haar"))
    elif name == "fig3":
        out.append(
            dataclasses.replace(
                head,
                trotter=ModelSpec(kind="transverse_ising", L=head.trotter.L, J=1.0, h_x=1.0),
                label="ising_transverse",
            )
        )
    return out


# ---------------------------------------------------------------------------
# Execution


def _run_one_sample(
    L: int,
    init_class: str,
    master_seed: int,
    circuit,
    system_terms,
    grid: BetaGrid,
    prop_cfg: PropagatorConfig,
    sample_index: int,
) -> tuple[int, float, list[float], list[float]]:
    seed = SampleSeed(master_seed, sample_index)
    if init_class == "haar":
        state = sample_haar(L, seed)
    else:
        state = sample_rpps(L, seed)
        if init_class == "trotter_rpps":
            state = apply_circuit(state, circuit)
    s_ini = entanglement_entropy(state)
    rows = evolve_with_checkpoints(state, system_terms, grid, system_terms, prop_cfg)
    return (
        sample_index,
        s_ini,
        [r[1] for r in rows],
        [r[2] for r in rows],
    )


def _resolve_threads(cfg: RunConfig) -> int:
    if cfg.threads is not None:
        return cfg.threads
    env = os.environ.get(THREADS_ENV_VAR, "").strip()
    if env:
        try:
            n = int(env)
        except ValueError as exc:
            raise ConfigError(f"{THREADS_ENV_VAR}: expected an integer, got {env!r}") from exc
        if n < 1:
            raise ConfigError(f"{THREADS_ENV_VAR}: must be >= 1, got {n}")
        return n
    return os.cpu_count() or 1

def _collect_records(cfg: RunConfig, L: int, threads: int) -> list[SampleRecord]:
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
        PropagatorConfig(),
    )
    indices = range(cfg.M)
    if threads > 1:
        chunk = max(1, cfg.M // (4 * threads))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            raw = list(pool.map(task, indices, chunksize=chunk))
    else:
        raw = [task(m) for m in indices]
    raw.sort(key=lambda r: r[0])
    betas = np.array(cfg.beta_grid.checkpoints)
    return [
        SampleRecord(
            sample_index=m,
            betas=betas,
            log_sq_norm=np.array(logs),
            obs_value=np.array(obs),
            init_entropy=s_ini,
        )
        for m, s_ini, logs, obs in raw
    ]


def _aggregate(cfg: RunConfig, L: int, records: list[SampleRecord]) -> list[dict]:
    """Per-(L, beta) summary rows; bootstrap seeds derive from the run identity."""
    label = cfg.resolved_label()
    entropies = np.array([r.init_entropy for r in records])
    n_res = cfg.n_resamples
    if n_res >= 2 and cfg.M >= 1:
        s_ini_sigma = bootstrap_sigma(
            entropies, np.mean, n_res, seed=(cfg.master_seed, L, 0, 1)
        )
    else:
        s_ini_sigma = 0.0
    rows = []
    for k, beta in enumerate(cfg.beta_grid.checkpoints):
        w = weights(records, beta)
        report = efficiency(w, n_resamples=n_res if n_res >= 2 else 0, seed=(cfg.master_seed, L, k, 0))
        logs = np.array([r.log_sq_norm[k] for r in records])
        obs = np.array([r.obs_value[k] for r in records])
        joint = np.column_stack([logs, obs])

        def weighted_stat(draw: np.ndarray) -> float:
            ww = np.exp(draw[:, 0] - draw[:, 0].max())
            return float(np.dot(ww / ww.sum(), draw[:, 1]))

        if n_res >= 2:
            w_sigma = bootstrap_sigma(joint, weighted_stat, n_res, seed=(cfg.master_seed, L, k, 2))
            s_sigma = bootstrap_sigma(obs, np.mean, n_res, seed=(cfg.master_seed, L, k, 3))
        else:
            w_sigma = 0.0
            s_sigma = 0.0
        rows.append(
            {
                "L": L,
                "beta": beta,
                "init_class": label,
                "eta": report.eta,
                "eta_sigma": report.sigma,
                "S_ini_mean": float(entropies.mean()),
                "S_ini_sigma": s_ini_sigma,
                "energy_weighted": weighted_expectation(records, beta),
                "energy_weighted_sigma": w_sigma,
                "energy_simple": simple_expectation(records, beta),
                "energy_simple_sigma": s_sigma,
                "M": cfg.M,
                "master_seed": cfg.master_seed,
            }
        )
    return rows


SUMMARY_HEADER = (
    "L,beta,init_class,eta,eta_sigma,S_ini_mean,S_ini_sigma,"
    "energy_weighted,energy_weighted_sigma,energy_simple,energy_simple_sigma,M,master_seed"
)
SAMPLES_HEADER = "L,sample_index,beta,log_sq_norm,obs_value,init_entropy"


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def emit_results(
    summary_rows: list[dict],
    sample_rows: list[tuple],
    cfg: RunConfig,
    out_dir: str | Path,
) -> dict[str, Path]:
    """Write summary.csv, samples.csv, and run.json; returns their paths.

    Rows are sorted (summary by L, beta, class; samples by L, sample
    index, beta) and floats printed with 17 significant digits, so
    reruns and different worker counts produce identical bytes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary_path = out / "summary.csv"
    samples_path = out / "samples.csv"
    json_path = out / "run.json"

    ordered = sorted(summary_rows, key=lambda r: (r["L"], r["beta"], r["init_class"]))
    header_fields = SUMMARY_HEADER.split(",")
    with summary_path.open("w") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for row in ordered:
            fh.write(",".join(_fmt(row[f]) if f != "init_class" else str(row[f]) for f in header_fields) + "\n")

    sample_sorted = sorted(sample_rows, key=lambda r: (r[0], r[1], r[2]))
    with samples_path.open("w") as fh:
        fh.write(SAMPLES_HEADER + "\n")
        for row in sample_sorted:
            fh.write(",".join(_fmt(v) for v in row) + "\n")

    with json_path.open("w") as fh:
        json.dump(_config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"summary": summary_path, "samples": samples_path, "run_json": json_path}


def _config_to_dict(cfg: RunConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["beta_grid"] = list(cfg.beta_grid.checkpoints)
    d["L_list"] = list(cfg.L_list)
    return d


def load_run_json(path: str | Path) -> RunConfig:
    """Rebuild the RunConfig echoed into run.json."""
    d = json.loads(Path(path).read_text())
    d["system"] = ModelSpec(**d["system"])
    if d["trotter"] is not None:
        d["trotter"] = ModelSpec(**d["trotter"])
    d["beta_grid"] = BetaGrid(tuple(d["beta_grid"]))
    d["L_list"] = tuple(d["L_list"])
    return RunConfig(**d)


def run_experiment(cfg: RunConfig, out_dir: str | Path | None = None) -> dict[str, Path]:
    """Execute one configuration and write its three output files."""
    validate_config(cfg)
    threads = _resolve_threads(cfg)
    if max(cfg.L_list) > FULL_SCALE_LIMIT:
        print(
            f"warning: L={max(cfg.L_list)} is full scale; expect hours of runtime",
            file=sys.stderr,
        )
    summary_rows: list[dict] = []
    sample_rows: list[tuple] = []
    for L in cfg.L_list:
        records = _collect_records(cfg, L, threads)
        summary_rows.extend(_aggregate(cfg, L, records))
        for rec in records:
            for k, beta in enumerate(cfg.beta_grid.checkpoints):
                sample_rows.append(
                    (L, rec.sample_index, beta, rec.log_sq_norm[k], rec.obs_value[k], rec.init_entropy)
                )
    return emit_results(summary_rows, sample_rows, cfg, out_dir or cfg.output_path)


# ---------------------------------------------------------------------------
# Command line


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.L:
        cfg = dataclasses.replace(cfg, L_list=tuple(int(p) for p in args.L.split(",")))
    if args.samples is not None:
        cfg = dataclasses.replace(cfg, M=args.samples)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    if args.threads is not None:
        cfg = dataclasses.replace(cfg, threads=args.threads)
    if args.full_scale:
        cfg = dataclasses.replace(cfg, full_scale=True)
    return cfg


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
    run_p.add_argument("--L", help="comma-separated chain lengths overriding L_list")
    run_p.add_argument("--samples", type=int, help="samples per (L, class)")
    run_p.add_argument("--seed", type=int, help="master seed")
    run_p.add_argument("--out", help="output directory")
    run_p.add_argument("--threads", type=int, help="worker process count")
    run_p.add_argument("--full-scale", action="store_true", help="allow chains above the desk-scale limit")

    val_p = sub.add_parser("validate", help="check a config file without running it")
    val_p.add_argument("--config", required=True)

    args = parser.parse_args(argv)

    if args.command == "validate":
        try:
            load_config(args.config)
        except (ConfigError, OSError) as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            return 2
        print("ok")
        return 0

    try:
        if args.config:
            cfg = _apply_overrides(load_config(args.config), args)
            validate_config(cfg)
            out = Path(args.out) if args.out else Path(cfg.output_path)
            paths = run_experiment(cfg, out)
            print(f"{cfg.resolved_label()}: {paths['summary']}")
        else:
            base_out = Path(args.out) if args.out else Path(preset(args.preset).output_path)
            for variant in preset_variants(args.preset):
                variant = _apply_overrides(variant, args)
                validate_config(variant)
                paths = run_experiment(variant, base_out / variant.resolved_label())
                print(f"{variant.resolved_label()}: {paths['summary']}")
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
