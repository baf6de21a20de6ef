"""perfbench's scripts still run against the package in src.

The benchmark's set-up probe and traced run call the package by name: the
probe resolves a workload's run arguments to configs and builds each
variant's operators, and the traced run hooks public functions.  A change
to src that breaks either would otherwise show only when the benchmark is
run; here it fails the suite.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"

sys.path.insert(0, str(BENCH))  # run.py imports checks and tracer by their bare names
_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
bench = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # its dataclass looks itself up there
_spec.loader.exec_module(bench)

ENV = {**os.environ, **bench.THREAD_ENV, "PYTHONPATH": str(ROOT / "src")}

TINY = """\
system.kind = heisenberg
init_class = trotter_rpps
trotter.kind = mixed_ising
trotter.h_x = 1.0
trotter.h_z = 1.0
beta_grid = 0.5,1.0
L_list = 4,6
M = 2
master_seed = 3
n_resamples = 10
threads = 1
label = tiny
"""


def _script(tmp_path, name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / name), *args], cwd=tmp_path, env=ENV,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_setup_probe_builds_every_workload(tmp_path, name):
    wl = bench.WORKLOADS[name]
    config = tmp_path / "run.cfg"
    if wl.config is not None:
        config.write_text(wl.config.format(seed=1))
    run_args = [arg.format(config=config) for arg in wl.run_args]
    res = _script(tmp_path, "setup_probe.py", json.dumps(run_args))
    assert res.returncode == 0, res.stderr
    # one H per (variant, L), and one circuit more for each scrambled variant
    built = sum(2 if init_class == "trotter_rpps" else 1 for _, init_class in wl.variants) * len(wl.L_list)
    assert json.loads(res.stdout.splitlines()[-1])["built"] == built


def test_traced_run_sees_the_hooked_functions(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY)
    res = _script(tmp_path, "traced_run.py", str(tmp_path / "trace.json"),
                  "run", "--config", str(config), "--out", str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["rc"] == 0
    # the bootstrap and emit hooks fire: one bootstrap per L, one emit per run
    assert trace["counters"]["resamples"] == 2 * 10
    assert trace["calls"]["emit_results"] == 1 and trace["counters"]["output_bytes"] > 0
