"""spintherm benchmark: paper-shaped `spintherm run` workloads, timed end to end.

    python3 perfbench/run.py --workload fig3_sweep --seed 1 --seconds 40 --trace 0

Run from the repository root.  The program is run from ./src, as a user
runs the command line.  Each round is one whole `spintherm run` process on
inputs made from --seed; rounds repeat until --seconds have passed.  Every
round's output files are checked (see checks.py) and must be byte-identical
across the rounds of one run.

--trace 0 alternates rounds of the program with the same rounds of its
reference copy, perfbench/reference/spintherm, a frozen copy of the program
as it was when the benchmark was defined.  It reports the end-to-end
metrics: run_s (median round of the program over median round of the
reference copy, times the reference copy's median round on the reference
machine), setup_s (the same for a fresh-interpreter set-up probe) and
peak_rss_mb (median over rounds).  --trace 1 alternates an untraced and a
traced single-worker round and reports the per-layer metrics of the traced
rounds (see traced_run.py).

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / "perfbench" / "out"
DEADLINE_S = 170.0   # the whole benchmark process must end within 180 s

# One BLAS thread per process: fig2_eta's two workers fill the two cores.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

FIG3_BETAS = tuple(round(0.1 * k, 10) for k in range(1, 31))

# fig3's headline variant, the mixed-field Ising scrambler at L = 12 over
# the preset's 30-point beta grid, with fewer bootstrap resamples than the
# preset's 4000, so that a round lasts seconds, not a quarter of a minute.
FIG3_CONFIG = """\
system.kind = heisenberg
init_class = trotter_rpps
trotter.kind = mixed_ising
trotter.h_x = 1.0
trotter.h_z = 1.0
beta_grid = 0.1:3.0:0.1
L_list = 12
M = 8
master_seed = {seed}
n_resamples = 1000
threads = 1
label = ising_mixed
output_path = unused
"""

# fig1's nonintegrable scrambler on the Heisenberg system at the desk limit.
L14_CONFIG = """\
system.kind = heisenberg
init_class = trotter_rpps
trotter.kind = xxz_staggered
trotter.delta = 5.0
trotter.h_stag = 1.0
beta_grid = 0.1
L_list = 14
M = 8
master_seed = {seed}
n_resamples = 8
threads = 1
label = xxz_stagger
output_path = unused
"""


@dataclass(frozen=True)
class Workload:
    run_args: tuple[str, ...]              # `spintherm run` arguments besides --seed/--out
    variants: tuple[tuple[str, str], ...]  # (output subdirectory label, init_class)
    L_list: tuple[int, ...]
    betas: tuple[float, ...]
    M: int
    # The median round and set-up probe of the reference copy,
    # perfbench/reference/spintherm, on the reference machine, in seconds:
    # the scale of run_s and setup_s (see README.md).
    reference_run_s: float
    reference_setup_s: float
    config: str | None = None              # config file template, for --config runs

    @property
    def operations(self) -> int:
        """(variant, L, sample) triples one round draws, scrambles, filters and writes."""
        return len(self.variants) * len(self.L_list) * self.M


WORKLOADS = {
    "fig2_eta": Workload(
        ("--preset", "fig2", "--L", "8,10,12", "--samples", "16", "--threads", "2"),
        (("ising_mixed", "trotter_rpps"), ("ising_transverse", "trotter_rpps"), ("haar", "haar")),
        (8, 10, 12), (3.0,), 16, reference_run_s=6.6, reference_setup_s=0.14,
    ),
    "fig3_sweep": Workload(
        ("--config", "{config}"), (("ising_mixed", "trotter_rpps"),), (12,), FIG3_BETAS, 8,
        reference_run_s=4.4, reference_setup_s=0.13, config=FIG3_CONFIG,
    ),
    "scramble_L14": Workload(
        ("--config", "{config}"), (("xxz_stagger", "trotter_rpps"),), (14,), (0.1,), 8,
        reference_run_s=1.1, reference_setup_s=0.13, config=L14_CONFIG,
    ),
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Runner:
    """Launches the rounds of one benchmark run and keeps their results."""

    def __init__(self, name: str, seed: int, started: float):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.started = started
        # A private directory, so that runs sharing a checkout cannot clobber
        # each other; finish() moves it to perfbench/out/<workload>.
        self.dir = OUT / f"{name}.{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
        self.env.pop("SPINTHERM_THREADS", None)
        self.reference_env = dict(self.env, PYTHONPATH=str(HERE / "reference"))
        self.config = self.dir / "run.cfg"
        if self.wl.config is not None:
            self.config.write_text(self.wl.config.format(seed=seed))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self._exact: dict[int, np.ndarray] = {}

    def run_args(self, out: Path, threads: int | None = None) -> list[str]:
        args = [a.format(config=self.config) for a in self.wl.run_args]
        if threads is not None and "--threads" in args:
            args[args.index("--threads") + 1] = str(threads)
        if "--config" in args:
            return ["run", *args, "--out", str(out / self.wl.variants[0][0])]
        return ["run", *args, "--seed", str(self.seed), "--out", str(out)]

    def launch(self, cmd: list[str], log_path: Path, env: dict) -> tuple[float, int, int]:
        """Run cmd to its end through launch.py; return (wall s, exit code, peak RSS KiB)."""
        remaining = self.started + DEADLINE_S - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("no time left for another process")
        res = subprocess.run(
            [sys.executable, str(HERE / "launch.py"), f"{remaining:.1f}", str(log_path), *cmd],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining + 5,
        )
        if res.returncode != 0:
            raise RuntimeError(f"launch.py failed: {res.stderr.strip()[-400:]}")
        got = json.loads(res.stdout.strip().splitlines()[-1])
        return got["wall_s"], got["rc"], got["maxrss_kib"]

    def setup_time(self, reference: bool = False) -> float:
        """One fresh-interpreter probe of import plus operator construction (setup_probe.py),
        of the program or of its reference copy."""
        cmd = [sys.executable, str(HERE / "setup_probe.py"), json.dumps(self.run_args(self.dir / "probe"))]
        env = self.reference_env if reference else self.env
        res = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if res.returncode != 0:
            raise RuntimeError(f"setup probe failed: {res.stderr.strip()[-400:]}")
        return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]

    def exact(self, L: int) -> np.ndarray:
        if L not in self._exact:
            cache = OUT / "exact_cache" / f"heisenberg_L{L}.npz"
            if cache.exists():
                with np.load(cache) as z:
                    levels = (z["energies"], z["mult"])
            else:
                levels = checks.heisenberg_levels(L)
                cache.parent.mkdir(parents=True, exist_ok=True)
                tmp = cache.with_name(f"{cache.stem}.{os.getpid()}.npz")
                np.savez(tmp, energies=levels[0], mult=levels[1])
                os.replace(tmp, cache)
            self._exact[L] = checks.thermal_energies(levels, self.wl.betas)
        return self._exact[L]

    def finish(self) -> None:
        final = OUT / self.name
        shutil.rmtree(final, ignore_errors=True)
        os.replace(self.dir, final)

    def round(self, traced: bool = False, threads: int | None = None) -> tuple[float, int]:
        """One whole `spintherm run`; checks its outputs and returns (wall s, peak RSS KiB).

        ``threads`` overrides the workload's worker count; a traced round always uses one.
        """
        out = self.dir / ("traced" if traced else "round")
        shutil.rmtree(out, ignore_errors=True)
        if traced:
            cmd = [sys.executable, str(HERE / "traced_run.py"), str(self.dir / "trace.json"),
                   *self.run_args(out, threads=1)]
        else:
            cmd = [sys.executable, "-m", "spintherm.cli", *self.run_args(out, threads=threads)]
        wall, rc, rss = self.launch(cmd, self.dir / "spintherm.log", self.env)
        self.attempted += self.wl.operations
        if rc != 0:
            self.problems.append(f"spintherm exited with code {rc}; see perfbench/out/{self.name}/spintherm.log")
        report = checks.Report()
        digest = hashlib.sha256()
        for label, init_class in self.wl.variants:
            v = checks.Variant(label, init_class, self.wl.L_list, self.wl.betas, self.wl.M, self.seed)
            report.merge(checks.check_variant(v, out / label, self.exact))
            for fname in ("summary.csv", "samples.csv"):
                path = out / label / fname
                digest.update(path.read_bytes() if path.exists() else b"missing")
        self.failed += len(report.failed_samples)
        self.problems.extend(report.problems)
        self.digests.add(digest.hexdigest())
        return wall, rss

    def reference_round(self) -> float:
        """The same `spintherm run` on the reference copy; returns its wall s.

        Its outputs are not checked: it is the program as it was when the
        benchmark was defined, run only to time the machine.
        """
        out = self.dir / "reference"
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, "-m", "spintherm.cli", *self.run_args(out)]
        wall, rc, _ = self.launch(cmd, self.dir / "reference.log", self.reference_env)
        if rc != 0:
            self.problems.append(f"the reference copy exited with code {rc}; see perfbench/out/{self.name}/reference.log")
        return wall


def window(seconds: float):
    """Yield once per round while another round as long as the last still ends within ``seconds``.

    The first round always runs.  Stopping before the window would be
    overrun keeps a run's length close to ``seconds`` however long a round is.
    """
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        yield
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            return


def per_layer(snapshots: list[dict], operations: int, overhead_s: float, call_cost_s: float,
              problems: list[str]) -> dict:
    """Per-layer metrics from traced rounds: counts from the first, times as medians.

    ``overhead_s`` is the measured cost of tracing a round; ``call_cost_s``
    the tracer's cost per wrapped call, which gives the estimate
    trace.wrapper_s over all the calls of a round.
    """

    def med(fn) -> float:
        return statistics.median(fn(s) for s in snapshots)

    def incl(name):
        return lambda s: s["incl_s"].get(name, 0.0)

    def self_s(*names):
        return lambda s: sum(s["self_s"].get(n, 0.0) for n in names)

    first = snapshots[0]
    counts = {
        "hamiltonian.matvecs": ("count", lambda s: s["calls"].get("apply_terms", 0)),
        "hilbert.two_site_calls": ("count", lambda s: s["calls"].get("apply_two_site", 0)),
        "hilbert.two_site_bytes_computed": ("B", lambda s: s["counters"].get("two_site_bytes_computed", 0)),
        "imagtime.checkpoints": ("count", lambda s: s["counters"].get("checkpoints", 0)),
        "state_prep.gate_applies": ("count", lambda s: s["under_calls"].get("apply_circuit>apply_two_site", 0)),
        "estimators.resamples": ("count", lambda s: s["counters"].get("resamples", 0)),
        "cli.output_bytes": ("B", lambda s: s["counters"].get("output_bytes", 0)),
    }
    for name, (_, fn) in counts.items():
        if any(fn(s) != fn(first) for s in snapshots[1:]):
            problems.append(f"traced count {name} differs between rounds of one seed")
    metrics = {name: {"value": fn(first), "unit": unit} for name, (unit, fn) in counts.items()}
    metrics["hamiltonian.matvecs_per_sample"] = {
        "value": metrics["hamiltonian.matvecs"]["value"] / operations, "unit": "count"}
    walk = incl("evolve_with_checkpoints")
    times = {
        "hamiltonian.matvec_s": incl("apply_terms"),
        "imagtime.walk_s": walk,
        "imagtime.self_s": lambda s: walk(s) - s["under_s"].get("evolve_with_checkpoints>apply_terms", 0.0),
        "state_prep.scramble_s": incl("apply_circuit"),
        "state_prep.sample_s": lambda s: incl("sample_rpps")(s) + incl("sample_haar")(s),
        "estimators.entropy_s": incl("entanglement_entropy"),
        "hilbert.schmidt_s": incl("schmidt_spectrum"),
        "estimators.bootstrap_s": incl("bootstrap_sigma"),
        "estimators.point_s": self_s("weights", "efficiency", "weighted_expectation", "simple_expectation"),
        "state_prep.build_s": self_s("build_trotter_circuit"),
        "hamiltonian.build_s": incl("build_hamiltonian"),
        "cli.run_s": incl("main"),
        "cli.emit_s": incl("emit_results"),
    }
    for name, fn in times.items():
        metrics[name] = {"value": med(fn), "unit": "s"}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    metrics["trace.wrapper_s"] = {"value": sum(first["calls"].values()) * call_cost_s, "unit": "s"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "spintherm" / "cli.py").is_file():
        log(f"error: no spintherm sources under {ROOT / 'src'}; run from the repository root")
        return 2

    runner = Runner(args.workload, args.seed % 2**31, started)
    for L in runner.wl.L_list:
        runner.exact(L)
    if args.trace == 0:
        # Rounds of the program and of its reference copy alternate, and so
        # do their set-up probes; which of a pair goes first alternates too.
        # The machine's speed drifts over minutes and both medians drift
        # with it, so their ratio repeats from run to run.
        walls, ref_walls, setup, ref_setup, rss = [], [], [], [], []
        for pair, _ in enumerate(window(args.seconds)):
            for reference in (False, True) if pair % 2 == 0 else (True, False):
                if reference:
                    ref_walls.append(runner.reference_round())
                    ref_setup.append(runner.setup_time(reference=True))
                else:
                    wall, peak = runner.round()
                    walls.append(wall)
                    rss.append(peak)
                    setup.append(runner.setup_time())
            log(f"{args.workload}: pair {pair + 1}: program {walls[-1]:.3f} s, reference "
                f"{ref_walls[-1]:.3f} s, {rss[-1] / 1024:.1f} MB, setup {setup[-1]:.4f} / "
                f"{ref_setup[-1]:.4f} s")
        metrics = {
            "run_s": {"value": statistics.median(walls) / statistics.median(ref_walls)
                      * runner.wl.reference_run_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup) / statistics.median(ref_setup)
                        * runner.wl.reference_setup_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss) / 1024.0, "unit": "MB"},
        }
    else:
        plain, traced, snapshots = [], [], []
        for pair, _ in enumerate(window(args.seconds)):
            # Each traced round is compared with the untraced round next to
            # it, so a change in the machine's speed between pairs cancels;
            # alternating which runs first cancels a steady drift too.
            for is_traced in (False, True) if pair % 2 == 0 else (True, False):
                if is_traced:
                    traced.append(runner.round(traced=True)[0])
                    snapshots.append(json.loads((runner.dir / "trace.json").read_text()))
                else:
                    plain.append(runner.round(threads=1)[0])
            log(f"{args.workload}: untraced {plain[-1]:.3f} s, traced {traced[-1]:.3f} s")
        overhead = statistics.median(t - p for t, p in zip(traced, plain))
        metrics = per_layer(snapshots, runner.wl.operations, overhead, tracer.call_cost(), runner.problems)

    runner.finish()
    if len(runner.digests) != 1:
        runner.problems.append("output bytes differ between rounds of one seed")
    for problem in runner.problems[:20]:
        log(f"problem: {problem}")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
