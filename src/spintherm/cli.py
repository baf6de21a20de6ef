"""Experiment runner and command-line interface.

A run is described by a RunConfig: a system Hamiltonian, an initial
state class (haar, rpps, or trotter_rpps with a scrambling circuit),
a beta grid, and sampling parameters.  For every chain length in
L_list, M samples are drawn, scrambled, evolved in imaginary time, and
measured; per-sample rows and per-(L, beta) aggregates are written as
CSV, and the resolved configuration is echoed as run.cfg, a config file
that ``spintherm run --config`` reruns.  A run writes into its config's
output_path; a preset variant's is ``<root>/<label>``.  A command makes
every run's output directory before its first batch, and refuses a run
whose echo would replace the config file it runs from with other text.

A command runs as a stream of batch tasks on one pool of min(threads, M,
os.cpu_count()) worker processes (threads = the cpu count when unset;
the most any variant asks for), shared by every preset variant and chain
length, or in-process with one worker.  A task draws, scrambles,
measures and walks B samples in lockstep, the rows of one (B, 2**L)
array: B = BATCH_AMPLITUDES >> L, at least 1 and at most M / workers
rounded up.  A task is (RunConfig, L, samples), not the operators: each
worker compiles the H and the circuit it applies, once per (variant, L),
so the run process compiles none.  The next (variant, L) is submitted
before the current one is gathered and bootstrapped.  Sample m derives
all of its randomness from (master_seed, m), a row's values do not
depend on the rows beside it, and rows are made in file order (L
ascending, then sample, then beta), so the output files are
byte-identical whatever the worker count, the batch size or the order of
L_list.  The error bars of one L come from one bootstrap stream seeded
from (master_seed, L), which keeps them reproducible from samples.csv
alone.

One schema reads every RunConfig: a table of keys (model fields are
dotted, ``system.kind``, ``trotter.h_x``), each with a text-to-value and
a value-to-text conversion.  Config files (flat ``key = value`` text,
the run.cfg echo among them), the presets (a desk base plus each
variant's changes) and the run command's overrides are key -> text maps
given to one reader, which names the key of every bad value; each model
spec is checked even when other values are bad (at L = 2 when L_list is).
The rules across keys are RunConfig's own, checked whenever one is made,
so they run only once every value parses.  A RunConfig refuses a label or
output_path that one config line cannot hold, so every RunConfig
round-trips through run.cfg.  The one bound on the chain length is
memory: a length whose LIVE_VECTORS state vectors per worker exceed
physical memory is refused.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import os
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from .estimators import (
    bootstrap_sigma,
    efficiency,
    entanglement_entropy,
    simple_expectation,
    weighted_expectation,
)
from .hamiltonian import COUPLINGS, ModelSpec, build_hamiltonian
from .imagtime import BetaGrid, walk
from .state_prep import MAX_TAU, SampleSeed, build_trotter_circuit, sample_haar, sample_rpps, scramble

__all__ = [
    "INIT_CLASSES",
    "ConfigError",
    "RunConfig",
    "parse_config",
    "load_config",
    "preset_variants",
    "run_experiments",
    "emit_results",
    "main",
]

INIT_CLASSES = ("haar", "rpps", "trotter_rpps")

# Amplitudes per batch task: B = BATCH_AMPLITUDES >> L samples, at least
# one.  At L = 8 and 10 (one BLAS thread, 2-core x86) batches of 16 and 4
# cut the time per sample by 30-60 %; a larger budget gained little and
# grew the peak RSS.
BATCH_AMPLITUDES = 2**12

# State vectors of 2**L complex128 amplitudes one worker holds at once: the
# walk's three Lanczos vectors, the kernel's temporaries, the draw.
LIVE_VECTORS = 8


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending fields."""


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one experiment; immutable and hashable.

    Making one, by ``dataclasses.replace`` too, raises ConfigError listing every invalid field.
    """

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

    def __post_init__(self) -> None:
        object.__setattr__(self, "L_list", tuple(self.L_list))  # hashable, whatever sequence was given
        problems: list[str] = []
        if self.init_class not in INIT_CLASSES:
            problems.append(f"init_class: {self.init_class!r} not in {INIT_CLASSES}")
        if self.init_class == "trotter_rpps" and self.trotter is None:
            problems.append("trotter: required when init_class is trotter_rpps")
        if not self.L_list:
            problems.append("L_list: must be nonempty")
        if any(L < 2 for L in self.L_list):
            problems.append(f"L_list: every L must be >= 2, got {self.L_list}")
        if len(set(self.L_list)) != len(self.L_list):
            problems.append(f"L_list: duplicate lengths in {self.L_list}")
        workers, memory = max(1, _workers(self)), os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        fits = (memory // (LIVE_VECTORS * 16 * workers)).bit_length() - 1  # the longest chain whose vectors fit
        if max(self.L_list, default=2) > fits:
            problems.append(
                f"L_list: L = {max(self.L_list)} needs {LIVE_VECTORS} state vectors of 2**L amplitudes on each of "
                f"{workers} workers, more than the {memory / 2**30:.1f} GiB of physical memory hold (L <= {fits})"
            )
        if self.M < 1:
            problems.append(f"M: must be >= 1, got {self.M}")
        if self.master_seed < 0:
            problems.append(f"master_seed: must be >= 0, got {self.master_seed}")
        if self.n_resamples < 0:
            problems.append(f"n_resamples: must be >= 0, got {self.n_resamples}")
        if not 0.0 <= self.tau <= MAX_TAU:
            problems.append(f"tau: must be in [0, {MAX_TAU:g}], got {self.tau}")
        if self.n_reps != "2L" and not (isinstance(self.n_reps, int) and self.n_reps >= 1):
            problems.append(f"n_reps: must be 2L or an integer >= 1, got {self.n_reps!r}")
        if self.threads is not None and self.threads < 1:
            problems.append(f"threads: must be >= 1 or unset, got {self.threads}")
        if not self.output_path:
            problems.append("output_path: must be nonempty")
        # each echoed as one run.cfg line, where '#' starts a comment and a value's ends are stripped
        for name in ("output_path", "label"):
            text = getattr(self, name)
            if "#" in text or not text.isprintable() or text != text.strip():
                problems.append(f"{name}: must not contain '#' or a nonprintable character, nor start or end "
                                f"with whitespace, got {ascii(text)}")
        # the label is also written unquoted into a summary.csv field and printed, whatever the locale's encoding
        if not all(" " <= c <= "~" and c not in ',"' for c in self.label):
            problems.append(f"label: must not contain a comma, quote or any character but printable ASCII, "
                            f"got {ascii(self.label)}")
        if problems:
            raise ConfigError("; ".join(problems))

    def resolved_label(self) -> str:
        return self.label if self.label else self.init_class

    def reps_for(self, L: int) -> int:
        return 2 * L if self.n_reps == "2L" else self.n_reps


# ---------------------------------------------------------------------------
# The config schema: one reader and one writer for every source


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
_MODEL = {"kind": _TEXT, **dict.fromkeys(COUPLINGS, _FLOAT)}

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
    **{f"{model}.{name}": conv for model in ("system", "trotter") for name, conv in _MODEL.items()},
}
_REQUIRED = ("system.kind", "init_class", "beta_grid", "L_list", "M", "master_seed")


def _read(raw: dict[str, str]) -> RunConfig:
    """Build a RunConfig from a map of schema keys to value texts."""
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
    # a chain below 2 sites, or an L_list that does not parse, is L_list's fault: the specs are checked at L = 2
    L = max(2, min(fields.get("L_list", (2,))))
    for model in ("system", "trotter"):
        spec = {k.split(".", 1)[1]: v for k, v in values.items() if k.startswith(model + ".")}
        if spec:
            try:
                fields[model] = ModelSpec(L=L, **spec)
            except ValueError as exc:
                problems.append(f"{model}: {exc}")
    if problems:
        raise ConfigError("; ".join(problems))
    return RunConfig(**fields)


def _write(cfg: RunConfig) -> str:
    """cfg as config-file text, its run.cfg echo; unset values (no trotter, no threads) are left out."""
    lines = []
    for key, (_, to_text) in _FIELDS.items():
        model, _, name = key.rpartition(".")
        value = getattr(getattr(cfg, model) if model else cfg, name, None)
        if value is not None:
            lines.append(f"{key} = {to_text(value)}\n")
    return "".join(lines)


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


def _preset_maps(name: str, over: dict[str, str]) -> list[dict[str, str]]:
    """Each variant's key -> text map, overrides applied; a variant writes into <output_path>/<label>."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")
    changes, labels = _PRESETS[name]
    base = {**_DESK, **changes, "output_path": f"runs/{name}", **over}
    root = base["output_path"]  # an empty root stays empty, for RunConfig to refuse
    return [{**base, **_VARIANTS[label], "label": label, "output_path": root and os.path.join(root, label)}
            for label in labels]


def preset_variants(name: str) -> list[RunConfig]:
    """A named desk-scale experiment: its headline config, then its comparison runs.

    fig1: Heisenberg system, XXZ+staggered-field scrambling, beta J = 3.
    fig2: Heisenberg system, mixed-field Ising scrambling, beta J = 3.
    fig3: beta sweep of both energy estimators at L = 12.
    fig4: estimator-difference comparison between L = 10 and L = 12.
    The comparison runs are the Haar baseline and the integrable scramblers.
    """
    return [_read(raw) for raw in _preset_maps(name, {})]


# ---------------------------------------------------------------------------
# Execution


@lru_cache(maxsize=2)  # the current (variant, L) and the one ahead
def _operators(cfg: RunConfig, L: int):
    """The compiled H of cfg's system at L sites, and the scrambling circuit (None unless trotter_rpps)."""
    system = build_hamiltonian(dataclasses.replace(cfg.system, L=L))
    if cfg.init_class != "trotter_rpps":
        return system, None
    return system, build_trotter_circuit(dataclasses.replace(cfg.trotter, L=L), cfg.tau, cfg.reps_for(L))


def _run_batch(cfg: RunConfig, L: int, samples: range) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial entropies (B,), and ln-norms and energies (B, K), of the samples drawn and run in lockstep."""
    system, circuit = _operators(cfg, L)
    sample = sample_haar if cfg.init_class == "haar" else sample_rpps
    rows = np.array([sample(L, SampleSeed(cfg.master_seed, m)) for m in samples])
    if circuit is not None:
        rows = scramble(rows, circuit)[0]
    return (entanglement_entropy(rows), *walk(rows, system, cfg.beta_grid))


def _workers(cfg: RunConfig) -> int:
    """Worker processes for one run: threads (the cpu count when unset), at most M and the cpu count."""
    cpus = os.cpu_count() or 1
    return min(cfg.threads or cpus, cfg.M, cpus)


def _process_pool(workers: int):
    """A pool of worker processes, imported only here: a single-worker run never loads it."""
    import numpy.random  # noqa: F401  # imported before the workers fork, not at each one's first draw
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers)


def _submit(pool, workers: int, cfg: RunConfig, L: int):
    """Start the batch tasks of one (variant, L) on the pool (None: run them in-process when read).

    Returns an iterator over the batches' results in sample order.
    """
    size = max(1, min(BATCH_AMPLITUDES >> L, -(-cfg.M // workers)))
    batches = [range(start, min(start + size, cfg.M)) for start in range(0, cfg.M, size)]
    task = partial(_run_batch, cfg, L)
    if pool is None:
        return map(task, batches)
    return pool.map(task, batches, chunksize=max(1, len(batches) // (4 * workers)))


def _collect_samples(L: int, results) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial entropies, shape (M,), and ln-norms and energies, shape (K, M): one row per beta."""
    s_ini, logs, obs = (np.concatenate(parts) for parts in zip(*results))
    logs, obs = logs.T.copy(), obs.T.copy()  # contiguous rows: a strided one changes the dot's last bit
    if not (np.all(np.isfinite(logs)) and np.all(np.isfinite(obs))):
        raise ValueError(f"L = {L}: ln-norms and energies must be finite")
    if not np.all(np.isfinite(s_ini)) or np.any(s_ini < -1e-12):
        raise ValueError(f"L = {L}: initial entropies must be nonnegative reals, got {s_ini.min()}")
    return s_ini, logs, obs


def _aggregate(cfg: RunConfig, L: int, s_ini: np.ndarray, logs: np.ndarray, obs: np.ndarray) -> list[str]:
    """Per-(L, beta) summary.csv lines; one bootstrap per L, seeded from the run identity."""
    eta_sigma, weighted_sigma, simple_sigma, s_ini_sigma = (
        bootstrap_sigma(logs, obs, cfg.n_resamples, (cfg.master_seed, L), s_ini)
        if cfg.n_resamples >= 2
        else (np.zeros(len(logs)),) * 3 + (0.0,)
    )
    eta, weighted, simple = efficiency(logs), weighted_expectation(logs, obs), simple_expectation(obs)
    s_ini_mean = float(simple_expectation(s_ini))
    return [
        f"{L},{beta:.17g},{cfg.resolved_label()},{eta[k]:.17g},{eta_sigma[k]:.17g},{s_ini_mean:.17g},"
        f"{s_ini_sigma:.17g},{weighted[k]:.17g},{weighted_sigma[k]:.17g},"
        f"{simple[k]:.17g},{simple_sigma[k]:.17g},{cfg.M},{cfg.master_seed}\n"
        for k, beta in enumerate(cfg.beta_grid.checkpoints)
    ]


SUMMARY_HEADER = (
    "L,beta,init_class,eta,eta_sigma,S_ini_mean,S_ini_sigma,"
    "energy_weighted,energy_weighted_sigma,energy_simple,energy_simple_sigma,M,master_seed"
)
SAMPLES_HEADER = "L,sample_index,beta,log_sq_norm,obs_value,init_entropy"


def emit_results(summary_lines: list[str], sample_lines: list[str], cfg: RunConfig) -> dict[str, Path]:
    """Write summary.csv, samples.csv and run.cfg into cfg.output_path; returns their paths.

    Each CSV gets its header and then the lines it is given, in the order
    given: newline-ended, in header order, integers bare, floats to 17
    significant digits.  run.cfg holds one ``key = value`` line per set key
    of cfg: ``spintherm run --config`` reruns it.
    """
    out = Path(cfg.output_path)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"summary": out / "summary.csv", "samples": out / "samples.csv", "config": out / "run.cfg"}
    for key, header, lines in (("summary", SUMMARY_HEADER, summary_lines), ("samples", SAMPLES_HEADER, sample_lines)):
        with paths[key].open("w") as fh:
            fh.write(header + "\n")
            fh.writelines(lines)
    paths["config"].write_text(_write(cfg), encoding="utf-8")
    return paths


def run_experiments(cfgs: list[RunConfig]):
    """Execute configs in order, each into its output_path, on at most one worker pool.

    Yields each run's output paths, as emit_results returns them, once its
    last chain length is written.
    """
    for cfg in cfgs:  # a directory that cannot be made ends the command before any batch
        Path(cfg.output_path).mkdir(parents=True, exist_ok=True)
    workers = max(map(_workers, cfgs))
    jobs = [(cfg, L) for cfg in cfgs for L in sorted(cfg.L_list)]
    summary_lines, sample_lines = [], []
    with _process_pool(workers) if workers > 1 else contextlib.nullcontext() as pool:
        pending = _submit(pool, workers, *jobs[0])
        for (cfg, L), ahead in zip(jobs, jobs[1:] + [None]):
            # the next (variant, L) runs on the workers while this one is gathered and bootstrapped
            results, pending = pending, ahead and _submit(pool, workers, *ahead)
            s_ini, logs, obs = _collect_samples(L, results)
            summary_lines += _aggregate(cfg, L, s_ini, logs, obs)
            sample_lines += [
                f"{L},{m},{beta:.17g},{logs[k, m]:.17g},{obs[k, m]:.17g},{s_ini[m]:.17g}\n"
                for m in range(cfg.M)
                for k, beta in enumerate(cfg.beta_grid.checkpoints)
            ]
            if L == max(cfg.L_list):
                yield emit_results(summary_lines, sample_lines, cfg)
                summary_lines, sample_lines = [], []


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
    run_p.add_argument("--out", dest="output_path", help="output directory; a preset's has one per variant")
    run_p.add_argument("--threads", help="worker processes, at most M and the cpu count")

    val_p = sub.add_parser("validate", help="check a config file without running it")
    val_p.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    # What the imports made lives until exit.  Frozen, it is left out of every
    # later collection, the ones at exit and in forked workers among them.
    gc.freeze()

    try:
        if args.command == "validate":
            load_config(args.config)
            print("ok")
            return 0
        over = {key: text for key, text in vars(args).items() if key in _FIELDS and text is not None}
        text = args.config and _read_text(args.config)
        raws = [{**_parse_lines(text), **over}] if args.config else _preset_maps(args.preset, over)
        cfgs = [_read(raw) for raw in raws]
        echo = Path(cfgs[0].output_path, "run.cfg")
        if args.config and echo.exists() and echo.samefile(args.config) and text != _write(cfgs[0]):
            raise ConfigError(f"output_path: the run.cfg echo in {ascii(cfgs[0].output_path)} would replace "
                              f"the config file {ascii(args.config)}, whose text differs from it")
        for cfg, paths in zip(cfgs, run_experiments(cfgs)):
            print(f"{cfg.resolved_label()}: {paths['summary']}")
    except (ConfigError, OSError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
