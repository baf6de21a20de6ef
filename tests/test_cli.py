"""Config parsing, presets, run execution, and CSV emission."""

import csv
import dataclasses
import errno
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintherm.cli import (
    ConfigError,
    RunConfig,
    SAMPLES_HEADER,
    SUMMARY_HEADER,
    emit_results,
    load_config,
    main,
    parse_config,
    preset_variants,
    run_experiments,
)
import spintherm
from helpers import bootstrap_reference
from spintherm import cli, hilbert, workers
from spintherm.estimators import efficiency, simple_expectation, weighted_expectation
from spintherm.hamiltonian import MAX_COUPLING, ModelSpec
from spintherm.imagtime import MAX_BETA, MAX_BETA_POINTS, BetaGrid
from spintherm.state_prep import MAX_TAU

MINIMAL = """
system.kind = heisenberg
init_class = haar
beta_grid = 1.0,2.0
L_list = 4
M = 8
master_seed = 3
"""

TINY_RUN = """
system.kind = heisenberg
init_class = trotter_rpps
trotter.kind = mixed_ising
trotter.h_x = 1.0
trotter.h_z = 1.0
beta_grid = 0.5,1.0
L_list = 3,4
M = 6
master_seed = 7
n_resamples = 50
"""


def test_parse_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.system == ModelSpec(kind="heisenberg", L=4, J=1.0)
    assert cfg.trotter is None
    assert cfg.init_class == "haar"
    assert cfg.beta_grid == BetaGrid((1.0, 2.0))
    assert cfg.L_list == (4,)
    assert cfg.M == 8
    assert cfg.master_seed == 3
    assert cfg.tau == 10.0
    assert cfg.n_reps == "2L"
    assert cfg.n_resamples == 4000
    assert cfg.threads is None
    assert cfg.resolved_label() == "haar"
    assert cfg.reps_for(6) == 12


def test_parse_comments_and_range_grid():
    cfg = parse_config(
        """
        system.kind = heisenberg  # the chain under study
        init_class = haar
        beta_grid = 0.1:3.0:0.1
        L_list = 4
        M = 2
        master_seed = 0
        """
    )
    assert len(cfg.beta_grid.checkpoints) == 30
    assert cfg.beta_grid.checkpoints[0] == pytest.approx(0.1)
    assert cfg.beta_grid.checkpoints[-1] == pytest.approx(3.0)


def test_parse_rejects_unknown_missing_duplicate():
    with pytest.raises(ConfigError, match="unknown keys: systm.kind"):
        parse_config(MINIMAL + "\nsystm.kind = heisenberg")
    with pytest.raises(ConfigError, match="missing keys: master_seed"):
        parse_config("\n".join(l for l in MINIMAL.splitlines() if "master_seed" not in l))
    with pytest.raises(ConfigError, match="M: duplicated"):
        parse_config(MINIMAL + "\nM = 9")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(MINIMAL + "\njust words")


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError, match="beta_grid"):
        parse_config(MINIMAL.replace("beta_grid = 1.0,2.0", "beta_grid = 1.0,zz"))
    with pytest.raises(ConfigError, match="M"):
        parse_config(MINIMAL.replace("M = 8", "M = eight"))
    with pytest.raises(ConfigError, match="system"):
        parse_config(MINIMAL.replace("heisenberg", "heisenbrg"))


def test_validate_collects_all_problems():
    cfg = parse_config(MINIMAL)
    with pytest.raises(ConfigError) as exc:
        dataclasses.replace(cfg, init_class="trotter_rpps", M=0, threads=0)
    msg = str(exc.value)
    assert "trotter" in msg and "M" in msg and "threads" in msg


def test_validate_bounds_the_chain_length_by_memory_alone(tmp_path, capsys):
    # 8 state vectors of 2**16 amplitudes are 8 MiB per worker: no flag is needed
    cfg_file = tmp_path / "long.cfg"
    cfg_file.write_text(MINIMAL.replace("L_list = 4", "L_list = 16"))
    assert main(["validate", "--config", str(cfg_file)]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_validate_rejects_tiny_chain():
    with pytest.raises(ConfigError, match="L"):
        dataclasses.replace(parse_config(MINIMAL), L_list=(1,))


def test_preset_fields():
    cfg = preset_variants("fig1")[0]
    assert cfg.system.kind == "heisenberg"
    assert cfg.system.delta == 0.0
    assert cfg.trotter.kind == "xxz_staggered"
    assert cfg.trotter.delta == 5.0
    assert cfg.trotter.h_stag == 1.0
    assert cfg.tau == 10.0
    assert cfg.n_reps == "2L"
    assert cfg.M == 1024
    assert cfg.n_resamples == 4000
    assert cfg.L_list == (6, 8, 10, 12)
    assert cfg.beta_grid == BetaGrid((3.0,))
    assert cfg.label == "xxz_stagger"

    fig3 = preset_variants("fig3")[0]
    assert fig3.L_list == (12,)
    assert len(fig3.beta_grid.checkpoints) == 30

    fig4 = preset_variants("fig4")[0]
    assert fig4.L_list == (10, 12)
    assert len(fig4.beta_grid.checkpoints) == 30

    with pytest.raises(ConfigError, match="preset"):
        preset_variants("fig9")


def test_preset_variant_labels():
    assert [v.resolved_label() for v in preset_variants("fig1")] == [
        "xxz_stagger", "xxz_nostagger", "haar"]
    assert [v.resolved_label() for v in preset_variants("fig2")] == [
        "ising_mixed", "ising_transverse", "haar"]
    assert [v.resolved_label() for v in preset_variants("fig3")] == [
        "ising_mixed", "ising_transverse"]
    assert [v.resolved_label() for v in preset_variants("fig4")] == ["ising_mixed"]
    haar = preset_variants("fig2")[2]
    assert haar.init_class == "haar"
    assert haar.trotter is None


def tiny_config(out):
    return parse_config(TINY_RUN + f"\noutput_path = {out}")


def test_run_outputs_are_reproducible(tmp_path):
    [paths_a] = run_experiments([tiny_config(tmp_path / "a")])
    [paths_b] = run_experiments([tiny_config(tmp_path / "b")])
    # the order of L_list does not change the files: rows are made L ascending
    [paths_r] = run_experiments([dataclasses.replace(tiny_config(tmp_path / "r"), L_list=(4, 3))])
    for key in ("summary", "samples"):
        assert paths_a[key].read_bytes() == paths_b[key].read_bytes() == paths_r[key].read_bytes()


def test_run_outputs_independent_of_thread_count(tmp_path, monkeypatch):
    one = dataclasses.replace(tiny_config(tmp_path / "t1"), threads=1)
    two = dataclasses.replace(tiny_config(tmp_path / "t2"), threads=2)
    [paths_one] = run_experiments([one])
    [paths_two] = run_experiments([two])
    assert paths_one["samples"].read_bytes() == paths_two["samples"].read_bytes()
    assert paths_one["summary"].read_bytes() == paths_two["summary"].read_bytes()
    # M = 7 is no multiple of most batch sizes: B = 7 (one worker) or 4 (two) by default; with
    # 16 amplitudes a batch, B = 2 at L = 3 and 1 at L = 4; with 48, B = 6 or 4 at L = 3 and 3 at L = 4
    files = set()
    for budget in (cli.BATCH_AMPLITUDES, 16, 48):
        monkeypatch.setattr(cli, "BATCH_AMPLITUDES", budget)
        for threads in (1, 2):
            cfg = dataclasses.replace(tiny_config(tmp_path / f"b{budget}t{threads}"), M=7, threads=threads)
            [paths] = run_experiments([cfg])
            files.add((paths["samples"].read_bytes(), paths["summary"].read_bytes()))
    assert len(files) == 1


@settings(max_examples=30, deadline=None)
@given(
    L=st.integers(3, 10),
    init_class=st.sampled_from(("haar", "trotter_rpps")),
    M=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_lockstep_rows_are_bit_identical_whatever_the_batch(L, init_class, M, seed):
    trotter = ModelSpec(kind="mixed_ising", L=L, h_x=1.0, h_z=1.0) if init_class == "trotter_rpps" else None
    cfg = RunConfig(system=ModelSpec(kind="heisenberg", L=L), init_class=init_class,
                    beta_grid=BetaGrid((0.5, 1.0, 3.0)), L_list=(L,), M=M, master_seed=seed, trotter=trotter)

    def batched(size):
        parts = [cli._run_batch(cfg, L, range(start, min(start + size, M))) for start in range(0, M, size)]
        return [np.concatenate(part) for part in zip(*parts)]  # entropies, ln-norms, energies

    whole = batched(M)
    for size in (1, 2, 3):
        assert all(np.array_equal(a, b) for a, b in zip(whole, batched(size))), size


def test_run_compiles_each_operator_once_whatever_m(tmp_path, monkeypatch):
    compiled = []
    original = hilbert.compile_block

    def counted(mat, site, num_sites):
        compiled.append((site, num_sites))
        return original(mat, site, num_sites)

    monkeypatch.setattr(hilbert, "compile_block", counted)
    counts = []
    for M in (2, 7):
        compiled.clear()
        cli._operators.cache_clear()  # each run compiles its own, as a fresh worker would
        list(run_experiments([dataclasses.replace(tiny_config(tmp_path / f"m{M}"), M=M, threads=1)]))
        counts.append(len(compiled))
    # per L, each compiled once: the system's one block and the step's (the
    # 2 bonds at L = 3, the 3 at L = 4); the scrambler's generators are
    # exponentiated uncompiled
    assert counts == [2 * (1 + 1)] * 2


def test_run_cfg_round_trip(tmp_path):
    cfg = tiny_config(tmp_path / "r")
    [paths] = run_experiments([cfg])
    assert load_config(paths["config"]) == cfg


def test_output_shape_and_sorting(tmp_path):
    cfg = tiny_config(tmp_path / "s")
    [paths] = run_experiments([cfg])
    summary = paths["summary"].read_text().splitlines()
    samples = paths["samples"].read_text().splitlines()
    assert summary[0] == SUMMARY_HEADER
    assert samples[0] == SAMPLES_HEADER
    assert len(summary) == 1 + len(cfg.L_list) * len(cfg.beta_grid.checkpoints)
    assert len(samples) == 1 + len(cfg.L_list) * cfg.M * len(cfg.beta_grid.checkpoints)
    keys = []
    for line in samples[1:]:
        parts = line.split(",")
        keys.append((int(parts[0]), int(parts[1]), float(parts[2])))
    assert keys == sorted(keys)
    assert {k[0] for k in keys} == set(cfg.L_list)
    assert {k[1] for k in keys} == set(range(cfg.M))


def test_summary_recomputable_from_samples(tmp_path):
    cfg = tiny_config(tmp_path / "agg")
    [paths] = run_experiments([cfg])
    with paths["samples"].open() as fh:
        sample_rows = list(csv.DictReader(fh))
    with paths["summary"].open() as fh:
        summary_rows = list(csv.DictReader(fh))
    betas = list(cfg.beta_grid.checkpoints)
    for srow in summary_rows:
        L = int(srow["L"])
        k = betas.index(float(srow["beta"]))
        # samples.csv is sorted by L, sample, beta: an (M, K) table, transposed to one row per beta
        rows = [r for r in sample_rows if int(r["L"]) == L]
        logs, obs, s_ini = (
            np.array([float(r[name]) for r in rows]).reshape(cfg.M, len(betas)).T
            for name in ("log_sq_norm", "obs_value", "init_entropy")
        )
        assert efficiency(logs[k]) == pytest.approx(float(srow["eta"]), abs=1e-10)
        assert weighted_expectation(logs[k], obs[k]) == pytest.approx(
            float(srow["energy_weighted"]), abs=1e-10)
        assert simple_expectation(obs[k]) == pytest.approx(
            float(srow["energy_simple"]), abs=1e-10)
        assert np.mean(s_ini[0]) == pytest.approx(float(srow["S_ini_mean"]), abs=1e-10)
        sigmas = bootstrap_reference(logs, obs, s_ini[0], cfg.n_resamples, (cfg.master_seed, L))
        for name, sigma in zip(("eta_sigma", "energy_weighted_sigma", "energy_simple_sigma"), sigmas):
            assert sigma[k] == pytest.approx(float(srow[name]), abs=1e-10)
        assert sigmas[3] == pytest.approx(float(srow["S_ini_sigma"]), abs=1e-10)


def test_pool_is_capped_at_samples_and_cpus(tmp_path, monkeypatch):
    # A fake fork that runs every task in this process: the test starts no process.
    sizes = []

    def in_process(n, jobs):
        sizes.append(n)
        return ([task() for task in tasks] for tasks in jobs)

    monkeypatch.setattr(workers, "fork", in_process)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    base = dataclasses.replace(tiny_config(tmp_path / "pool"), L_list=(4,), n_resamples=0)
    # (threads, M) -> the worker count, or None for no pool
    for threads, M, want in ((64, 6, 4), (3, 6, 3), (64, 2, 2), (None, 6, 4), (None, 1, None), (1, 6, None)):
        sizes.clear()
        list(run_experiments([dataclasses.replace(base, threads=threads, M=M)]))
        assert sizes == ([] if want is None else [want]), (threads, M)
    # one pool serves every chain length of a run
    sizes.clear()
    list(run_experiments([dataclasses.replace(base, L_list=(4, 6), threads=2, M=6)]))
    assert sizes == [2]
    # and one pool serves every variant of a preset
    sizes.clear()
    assert main(["run", "--preset", "fig2", "--L", "4", "--samples", "4", "--threads", "2",
                 "--out", str(tmp_path / "fig2")]) == 0
    assert sizes == [2]


def test_run_without_fork_uses_one_in_process_worker(tmp_path, monkeypatch):
    [ref] = run_experiments([dataclasses.replace(tiny_config(tmp_path / "ref"), threads=1)])
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(workers, "fork", None)  # a pooled run would fail calling it
    cfg = dataclasses.replace(tiny_config(tmp_path / "nofork"), threads=4)
    assert cli._workers(cfg) == 1
    [paths] = run_experiments([cfg])
    assert paths["samples"].read_bytes() == ref["samples"].read_bytes()


def test_worker_failures_end_the_run_and_leave_no_process(tmp_path, monkeypatch):
    pids, real_fork, real_batch = [], os.fork, cli._run_batch

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    def failing(cfg, L, samples):
        if L == 4 and 4 in samples:
            raise ValueError("sample 4 fails")
        return real_batch(cfg, L, samples)

    def exiting(cfg, L, samples):
        os._exit(3)  # only ever called in a worker: the run has two

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    cfg = dataclasses.replace(tiny_config(tmp_path / "fail"), threads=2)
    # a task's exception is raised in the run process
    monkeypatch.setattr(cli, "_run_batch", failing)
    with pytest.raises(ValueError, match="sample 4 fails") as raised:
        list(run_experiments([cfg]))
    assert "in failing" in str(raised.value.__cause__)  # the worker's traceback
    # a worker that dies before its last result
    monkeypatch.setattr(cli, "_run_batch", exiting)
    with pytest.raises(ChildProcessError, match="ended before sending all its results"):
        list(run_experiments([cfg]))
    # a run closed after its first output
    monkeypatch.setattr(cli, "_run_batch", real_batch)
    runs = run_experiments([cfg, dataclasses.replace(cfg, output_path=str(tmp_path / "second"))])
    next(runs)
    runs.close()
    assert len(pids) == 6
    for pid in pids:  # every worker was reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_a_dead_or_unforked_worker_fails_the_run_not_its_input(tmp_path, capsys, monkeypatch):
    # ChildProcessError is an OSError, the class of output-path errors, which exit 2
    config = tmp_path / "run.cfg"
    config.write_text(TINY_RUN + f"threads = 2\noutput_path = {tmp_path / 'out'}\n")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_run_batch", lambda cfg, L, samples: os._exit(3))  # only ever called in a worker
    assert main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == "failed: worker 0 ended before sending all its results\n"

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        f"failed: worker 0 could not be forked: [Errno {errno.EAGAIN}] Resource temporarily unavailable\n"
    )


def test_collect_samples_refuses_nonfinite_or_negative_entropy(tmp_path, monkeypatch):
    cfg = dataclasses.replace(tiny_config(tmp_path / "bad"), threads=1)
    for faulty, reason in (
        ((0.1, [0.0, np.inf], [0.0, 0.0]), "finite"),
        ((0.1, [0.0, 0.0], [np.nan, 0.0]), "finite"),
        ((-0.5, [0.0, 0.0], [0.0, 0.0]), "entrop"),
        ((np.nan, [0.0, 0.0], [0.0, 0.0]), "entrop"),
    ):
        # every sample of a batch gets the faulty (entropy, ln-norms, energies)
        def batch(*args, out=faulty):
            n = len(args[-1])
            return np.full(n, out[0]), np.tile(out[1], (n, 1)), np.tile(out[2], (n, 1))

        monkeypatch.setattr(cli, "_run_batch", batch)
        with pytest.raises(ValueError, match=reason):
            list(run_experiments([cfg]))


def test_single_sample_run(tmp_path):
    cfg = dataclasses.replace(tiny_config(tmp_path / "m1"), M=1, L_list=(4,), n_resamples=0)
    [paths] = run_experiments([cfg])
    with paths["summary"].open() as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        assert float(row["eta"]) == pytest.approx(1.0, abs=1e-12)
        assert float(row["energy_weighted"]) == pytest.approx(float(row["energy_simple"]), abs=1e-12)


def test_emit_results_header_only(tmp_path):
    paths = emit_results([], [], dataclasses.replace(preset_variants("fig2")[0], output_path=str(tmp_path / "empty")))
    assert paths["summary"].read_text() == SUMMARY_HEADER + "\n"
    assert paths["samples"].read_text() == SAMPLES_HEADER + "\n"


def test_main_validate(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text(MINIMAL)
    assert main(["validate", "--config", str(good)]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL.replace("M = 8", "M = 0"))
    assert main(["validate", "--config", str(bad)]) == 2
    assert "invalid" in capsys.readouterr().err


def test_main_run_config_and_overrides(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(TINY_RUN + f"\noutput_path = {tmp_path / 'direct'}")
    rc = main(["run", "--config", str(cfg_file), "--L", "4", "--samples", "2",
               "--seed", "11", "--threads", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "summary.csv" in out
    run_cfg = load_config(tmp_path / "direct" / "run.cfg")
    assert run_cfg.L_list == (4,)
    assert run_cfg.M == 2
    assert run_cfg.master_seed == 11


def test_main_run_preset_writes_variant_directories(tmp_path):
    rc = main(["run", "--preset", "fig2", "--L", "4", "--samples", "4",
               "--seed", "3", "--threads", "1", "--out", str(tmp_path / "fig2")])
    assert rc == 0
    for label in ("ising_mixed", "ising_transverse", "haar"):
        base = tmp_path / "fig2" / label
        assert (base / "summary.csv").exists()
        assert (base / "samples.csv").exists()
        cfg = load_config(base / "run.cfg")
        assert cfg.resolved_label() == label


def test_run_cfg_reruns_a_preset_variant(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--preset", "fig2", "--L", "4", "--samples", "4", "--threads", "1", "--out", "A"]) == 0
    for label in ("ising_mixed", "ising_transverse", "haar"):
        assert load_config(Path("A", label, "run.cfg")).output_path == os.path.join("A", label)
    assert main(["run", "--config", os.path.join("A", "haar", "run.cfg"), "--out", "B"]) == 0
    for name in ("summary.csv", "samples.csv"):
        assert Path("B", name).read_bytes() == Path("A", "haar", name).read_bytes()

    def echo(directory):
        return [line for line in Path(directory, "run.cfg").read_text().splitlines()
                if not line.startswith("output_path =")]

    assert echo("B") == echo(os.path.join("A", "haar"))
    assert load_config(Path("B", "run.cfg")).output_path == "B"


@pytest.mark.parametrize("line,reason", [
    ("tau = abc", "tau: could not convert"),
    ("system.J = abc", "system.J: could not convert"),
    ("threads = 0", "threads: must be >= 1"),
    ("n_reps = 0", "n_reps: must be 2L or an integer >= 1"),
    ("n_reps_rule = explicit", "unknown keys: n_reps_rule"),
    ("system.delta = 5.0", "system: delta not used by kind 'heisenberg'"),
    ("label = a,b", "label: must not contain a comma"),
    ('label = a"b', "label: must not contain a comma"),
    ("system.J = 1e300", "system: couplings must be finite and at most 1e+06 in magnitude, got J = 1e+300"),
    ("trotter.J = -1.000001e6", "trotter: couplings must be finite and at most 1e+06 in magnitude"),
    ("L_list = 1,4", "L_list: every L must be >= 2"),
    # the model specs are checked, at L = 2, when L_list does not parse
    ("L_list = x\nsystem.kind = heisenbrg", "L_list: invalid literal for int() with base 10: 'x'; "
                                            "system: unknown model kind 'heisenbrg'"),
    # a 2**40-amplitude state is 16 TiB: no worker could hold it
    ("L_list = 40", "L_list: L = 40 needs 8 state vectors of 2**L amplitudes"),
    ("full_scale = true", "unknown keys: full_scale"),
    # printed and written to summary.csv whatever the locale's encoding
    ("label = β-scan", "label: must not contain a comma, quote or any character but printable ASCII, "
                        "got '\\u03b2-scan'"),
    # the byte 0xe9 alone, which is not UTF-8
    ("label = caf\udce9", "{path}: 'utf-8' codec can't decode byte 0xe9"),
    # control characters a config line can carry; '#' and the ends of a value it cannot
    ("label = a\tb", "label: must not contain '#' or a nonprintable character"),
    ("label = a\x7fb", "label: must not contain '#' or a nonprintable character"),
    ("output_path = out\tb", "output_path: must not contain '#' or a nonprintable character"),
    ("output_path = out\x1b[1m", "output_path: must not contain '#' or a nonprintable character"),
])
def test_main_validate_names_the_bad_key(tmp_path, capsys, line, reason):
    cfg_file = tmp_path / "bad.cfg"
    keys = {part.split("=")[0] for part in line.splitlines()}
    text = "".join(part + "\n" for part in TINY_RUN.splitlines() if part.split("=")[0] not in keys)
    cfg_file.write_bytes((text + line + "\n").encode("utf-8", "surrogateescape"))
    for command in ("validate", "run"):
        assert main([command, "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid: {reason.format(path=cfg_file)}"), command
        assert "Traceback" not in err


def test_main_validate_refuses_an_oversized_beta_grid(tmp_path, capsys):
    # the count is checked before the grid is built: this one has 9,999,991 points
    cfg_file = tmp_path / "huge.cfg"
    cfg_file.write_text(TINY_RUN.replace("beta_grid = 0.5,1.0", "beta_grid = 0.001:1000:0.0001"))
    assert main(["validate", "--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid: beta_grid: ")
    assert f"more than {MAX_BETA_POINTS}" in err


def test_couplings_and_beta_run_at_their_bounds_and_are_refused_beyond(tmp_path, capsys):
    at_bounds = TINY_RUN.replace("beta_grid = 0.5,1.0", f"beta_grid = 0.5,{MAX_BETA!r}").replace(
        "trotter.h_x = 1.0", f"trotter.h_x = {-MAX_COUPLING!r}"
    ) + f"system.J = {MAX_COUPLING!r}\ntau = {MAX_TAU!r}\noutput_path = {tmp_path / 'at'}\nthreads = 1\n"
    cfg_file = tmp_path / "at.cfg"
    cfg_file.write_text(at_bounds)
    assert main(["run", "--config", str(cfg_file)]) == 0
    rows = list(csv.DictReader((tmp_path / "at" / "summary.csv").open()))
    assert rows and all(np.isfinite(float(v)) for row in rows for k, v in row.items() if k != "init_class")
    capsys.readouterr()
    for grid in (repr(MAX_BETA * (1 + 1e-9)), "1e308", "0.5,1e308"):
        cfg_file.write_text(TINY_RUN.replace("beta_grid = 0.5,1.0", f"beta_grid = {grid}"))
        assert main(["validate", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid: beta_grid: beta ") and f"is above {MAX_BETA:g}" in err
        assert "Traceback" not in err
    for tau in (repr(MAX_TAU * (1 + 1e-9)), "1e300", "inf", "nan"):
        cfg_file.write_text(TINY_RUN + f"tau = {tau}\n")
        assert main(["run", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid: tau: must be in [0, {MAX_TAU:g}], got ")
        assert "Traceback" not in err


# The package's top-level names, and the names perfbench's tracer wraps per module.
PUBLIC = {
    "schmidt_spectrum", "ModelSpec", "HamiltonianTerms", "build_hamiltonian",
    "SampleSeed", "TrotterCircuit", "sample_rpps", "sample_haar", "build_trotter_circuit", "scramble",
    "BetaGrid", "walk", "weights", "efficiency", "weighted_expectation",
    "simple_expectation", "entanglement_entropy", "bootstrap_sigma", "__version__",
}
TRACED = {
    "hilbert": ("apply_two_site", "schmidt_spectrum"),
    "hamiltonian": ("apply_terms", "build_hamiltonian"),
    "imagtime": ("walk",),
    "state_prep": ("scramble", "sample_rpps", "sample_haar", "build_trotter_circuit"),
    "estimators": ("entanglement_entropy", "bootstrap_sigma", "weights", "efficiency",
                   "weighted_expectation", "simple_expectation"),
    "cli": ("main", "emit_results"),
}


def test_runtime_imports_no_scipy():
    code = (
        "import sys, spintherm, spintherm.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy') or m == 'spintherm.oracle')); "
        "print('json' in sys.modules); "
        "print(sorted(m for m in ('numpy.random', 'concurrent.futures', 'spintherm.workers') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    scipy_and_oracle, json_loaded, lazy = out.stdout.splitlines()
    assert scipy_and_oracle == "[]"
    assert json_loaded == "False"  # the run echo is a config file, not JSON
    # numpy.random (1.9 MB resident, without OpenSSL) and the worker pool load only when a run needs them
    assert lazy == "[]"
    assert set(spintherm.__all__) == PUBLIC
    for module, names in TRACED.items():
        assert set(names) <= set(importlib.import_module(f"spintherm.{module}").__all__), module


def test_pooled_run_loads_no_executor(tmp_path):
    # the fork pool needs no concurrent.futures, multiprocessing or queue in the run process,
    # and the workers compile every operator
    config = tmp_path / "pooled.cfg"
    config.write_text(MINIMAL + f"n_resamples = 8\nthreads = 2\noutput_path = {tmp_path / 'out'}\n")
    code = (
        "import os, sys; os.cpu_count = lambda: 2; import spintherm.cli as cli; "
        f"assert cli.main(['run', '--config', {str(config)!r}]) == 0; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing', 'queue', 'spintherm.workers') "
        "if m in sys.modules)); "
        "print(cli._operators.cache_info().misses)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
                         timeout=300)
    loaded, compiled = out.stdout.splitlines()[-2:]
    assert loaded == "['spintherm.workers']"  # the run was pooled
    assert compiled == "0"


@pytest.mark.parametrize("threads", [1, 2])
def test_runs_load_no_openssl_and_leave_the_stdlib_intact(tmp_path, threads):
    # numpy.random's import of secrets would load hmac, hashlib and OpenSSL; a run
    # imports it without them, and a later import of each gets the real module
    config = tmp_path / "run.cfg"
    config.write_text(MINIMAL + f"n_resamples = 8\nthreads = {threads}\noutput_path = {tmp_path / 'out'}\n")
    code = (
        "import os, sys; os.cpu_count = lambda: 2; import spintherm.cli as cli; "
        f"assert cli.main(['run', '--config', {str(config)!r}]) == 0; "
        "print(sorted(m for m in ('numpy.random', 'secrets', 'hmac', 'hashlib', '_hashlib', 'spintherm.workers') "
        "if m in sys.modules)); "
        "import secrets, hmac, hashlib, numpy.random; "
        "print(callable(hashlib.pbkdf2_hmac), callable(hmac.new), len(secrets.token_bytes(8)), "
        "numpy.random.SeedSequence().entropy != numpy.random.SeedSequence().entropy)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
                         timeout=300)
    loaded, stdlib = out.stdout.splitlines()[-2:]
    assert loaded == ("['numpy.random']" if threads == 1 else "['numpy.random', 'spintherm.workers']")
    assert stdlib == "True True 8 True"  # unseeded generators still draw fresh entropy


def test_traced_run_counts_each_bootstrap_draw(tmp_path):
    # perfbench's tracer adds bootstrap_sigma's third positional argument,
    # n_resamples, to a counter it dumps as JSON.
    config = tmp_path / "tiny.cfg"
    config.write_text(MINIMAL.replace("M = 8", "M = 4") + f"n_resamples = 8\nthreads = 1\noutput_path = {tmp_path / 'out'}\n")
    trace = tmp_path / "trace.json"
    script = Path(__file__).resolve().parents[1] / "perfbench" / "traced_run.py"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, str(script), str(trace), "run", "--config", str(config)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(trace.read_text())["counters"]["resamples"] == 8


def test_main_run_names_the_bad_override(tmp_path, capsys, monkeypatch):
    bad = (("4,x", ""), ("4,4", "duplicate lengths"), ("1,4", "every L must be >= 2"), ("1", "every L must be >= 2"))
    for lengths, reason in bad:
        rc = main(["run", "--preset", "fig2", "--L", lengths, "--out", str(tmp_path / "none")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"invalid: L_list: {reason}")
        assert not (tmp_path / "none").exists()
    # an --out that one run.cfg line cannot hold; a preset's variants write into <out>/<label>,
    # so only a config's --out ends the value
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text(TINY_RUN)
    for source, outs in ((["--config", "run.cfg"], ("a#b", " a", "a ", "a\tb", "a\nb")),
                         (["--preset", "fig2"], ("a#b", " a", "a\tb", "a\nb"))):
        for out in outs:
            assert main(["run", *source, "--out", out]) == 2
            assert capsys.readouterr().err.startswith("invalid: output_path: must not contain '#'"), (source, out)
            assert sorted(os.listdir()) == ["run.cfg"]


def _count_batches(monkeypatch) -> list:
    """Record each in-process cli._run_batch call."""
    calls, original = [], cli._run_batch

    def counted(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(cli, "_run_batch", counted)
    return calls


def test_run_refuses_an_echo_that_would_replace_its_config(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = _count_batches(monkeypatch)
    hand = TINY_RUN + "# my notes\nthreads = 1\n"
    Path("ow").mkdir()
    Path("ow", "run.cfg").write_text(hand)
    assert main(["run", "--config", str(tmp_path / "ow" / "run.cfg"), "--out", "ow", "--samples", "3"]) == 2
    assert capsys.readouterr().err.startswith("invalid: output_path: ")
    assert Path("ow", "run.cfg").read_text() == hand
    assert calls == []
    assert os.listdir("ow") == ["run.cfg"]


def test_unedited_echo_reruns_in_place(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("hand.cfg").write_text(TINY_RUN + "threads = 1\noutput_path = A\n")
    assert main(["run", "--config", "hand.cfg"]) == 0
    before = {name: Path("A", name).read_bytes() for name in ("summary.csv", "samples.csv", "run.cfg")}
    calls = _count_batches(monkeypatch)
    assert main(["run", "--config", os.path.join("A", "run.cfg")]) == 0
    assert calls
    assert {name: Path("A", name).read_bytes() for name in before} == before
    # an override changes the echo, which would then replace the config
    assert main(["run", "--config", os.path.join("A", "run.cfg"), "--samples", "2"]) == 2
    assert capsys.readouterr().err.startswith("invalid: output_path: ")
    assert Path("A", "run.cfg").read_bytes() == before["run.cfg"]


@pytest.mark.parametrize("blocker,out", [("blk/file", "blk/file/out"), ("out/ising_transverse", "out")])
def test_unmakeable_output_directory_fails_before_any_batch(tmp_path, capsys, monkeypatch, blocker, out):
    # a regular file where a run's output directory, or one above it, must go
    monkeypatch.chdir(tmp_path)
    calls = _count_batches(monkeypatch)
    Path(blocker).parent.mkdir()
    Path(blocker).write_text("")
    assert main(["run", "--preset", "fig2", "--L", "4,5", "--samples", "4", "--threads", "1", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("invalid: ")
    assert calls == []
    assert not list(tmp_path.rglob("*.csv"))


def test_n_reps_is_2L_or_a_positive_integer():
    assert parse_config(TINY_RUN).reps_for(5) == 10
    assert parse_config(TINY_RUN + "n_reps = 3").reps_for(5) == 3
    assert parse_config(TINY_RUN + "n_reps = 2L").n_reps == "2L"
    with pytest.raises(ConfigError, match="n_reps"):
        parse_config(TINY_RUN + "n_reps = 2.5")


def test_edited_run_cfg_is_validated(tmp_path, capsys):
    path = emit_results([], [], tiny_config(tmp_path / "v"))["config"]
    text = path.read_text()

    def refused(edited: str, reason: str) -> None:
        path.write_bytes(edited.encode("utf-8", "surrogateescape"))
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"invalid: {reason}"), edited

    assert main(["validate", "--config", str(path)]) == 0
    capsys.readouterr()
    refused(text.replace("M = 6\n", "M = -5\n"), "M: must be >= 1, got -5")
    for old_key, value in (("n_reps_rule", "2L"), ("full_scale", "false")):
        refused(text + f"{old_key} = {value}\n", f"unknown keys: {old_key}")
    # the byte 0xe9 alone, which is not UTF-8
    refused(text.replace("label = \n", "label = caf\udce9\n"), f"{path}: 'utf-8' codec can't decode byte 0xe9")
    for label in ("a,b", 'a"b', "a\tb", "\u03b2", "a\x7fb"):
        refused(text.replace("label = \n", f"label = {label}\n"), "label: must not contain")
    # a line break ends the line: the label's rest is no key = value line
    for label in ("a\nb", "a\rb"):
        refused(text.replace("label = \n", f"label = {label}\n"), "line ")


def test_validate_refuses_what_a_config_line_cannot_hold(tmp_path):
    cfg = tiny_config(tmp_path / "ok")
    dataclasses.replace(cfg, label="a b", output_path=str(tmp_path / "caf\u00e9 x"))
    for text in ("a#b", "#", " a", "a ", "a\t", "a\nb", "a\rb", "a\x00b", "a\u2028b", "caf\udce9"):
        for name in ("label", "output_path"):
            with pytest.raises(ConfigError, match=f"{name}: must not contain '#' or a nonprintable character"):
                dataclasses.replace(cfg, **{name: text})


def test_run_config_is_frozen_hashable_and_valid_once_made(tmp_path):
    cfg = tiny_config(tmp_path / "f")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.M = 0
    assert cfg == tiny_config(tmp_path / "f") and hash(cfg) == hash(tiny_config(tmp_path / "f"))
    assert {cfg: "cached"}[dataclasses.replace(cfg)] == "cached"
    # lists are stored as tuples, so a config made from them still hashes
    listed = dataclasses.replace(cfg, L_list=[3, 4], beta_grid=BetaGrid([0.5, 1.0]))
    assert listed == cfg and hash(listed) == hash(cfg)
    # a replace is a construction: no RunConfig exists whose run.cfg echo could not be read back
    with pytest.raises(ConfigError, match="label: must not contain '#' or a nonprintable character"):
        dataclasses.replace(cfg, label="a\nb")


def test_csv_number_format(tmp_path):
    # floats to 17 significant digits, integers bare (a master seed of 1e17 too), the label unquoted
    cfg = dataclasses.replace(tiny_config(tmp_path / "fmt"), beta_grid=BetaGrid((0.1,)), L_list=(3,), M=2,
                              master_seed=10**17 + 3, n_resamples=0, label="a b")
    [paths] = run_experiments([cfg])
    [summary] = paths["summary"].read_text().splitlines()[1:]
    fields = summary.split(",")
    assert fields[:3] == ["3", "0.10000000000000001", "a b"]
    assert [fields[i] for i in (4, 6, 8, 10)] == ["0"] * 4  # every sigma, with no resamples
    assert fields[11:] == ["2", "100000000000000003"]
    samples = [line.split(",") for line in paths["samples"].read_text().splitlines()[1:]]
    assert [row[:3] for row in samples] == [["3", "0", "0.10000000000000001"], ["3", "1", "0.10000000000000001"]]
    for text in [fields[i] for i in (3, 5, 7, 9)] + [value for row in samples for value in row[3:]]:
        assert format(float(text), ".17g") == text


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_outputs_do_not_depend_on_the_blas_environment(tmp_path):
    # importing spintherm pins an unset BLAS to one thread: a BLAS on every
    # core changes the last bits of an L = 14 run with the core count
    cfg_file = tmp_path / "l14.cfg"
    cfg_file.write_text(MINIMAL.replace("L_list = 4", "L_list = 14").replace("M = 8", "M = 2")
                        + "n_resamples = 0\nthreads = 1\n")
    base = {key: value for key, value in os.environ.items() if key not in BLAS_THREADS}
    base["PYTHONPATH"] = os.pathsep.join(sys.path)
    outputs = set()
    for name, env in (("unset", base), ("one", {**base, **dict.fromkeys(BLAS_THREADS, "1")})):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "spintherm.cli", "run", "--config", str(cfg_file), "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outputs.add(((out / "samples.csv").read_bytes(), (out / "summary.csv").read_bytes()))
    assert len(outputs) == 1
