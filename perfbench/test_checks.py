"""The benchmark's output checks must pass real output and fail corrupted output.

A small `spintherm run` is made once; each test corrupts a copy of it the
way a faulty program could (a flipped sign, a dropped row, an eta above 1)
and asserts that the checks notice.
"""

from __future__ import annotations

import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402

from spintherm.cli import main  # noqa: E402

L_LIST = (4, 6)
BETAS = (0.5, 1.0, 2.0)
M = 8
SEED = 5
RUN = """
system.kind = heisenberg
init_class = {init_class}
trotter.kind = mixed_ising
trotter.h_x = 1.0
trotter.h_z = 1.0
beta_grid = {beta_grid}
L_list = {L_list}
M = {M}
master_seed = 5
n_resamples = 0
threads = 1
label = {init_class}
output_path = unused
"""
LEVELS = {L: checks.heisenberg_levels(L) for L in L_LIST}


def exact(L):
    return checks.thermal_energies(LEVELS[L], BETAS)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    for init_class in ("haar", "trotter_rpps"):
        cfg = root / f"{init_class}.cfg"
        cfg.write_text(RUN.format(init_class=init_class, beta_grid="0.5,1.0,2.0", L_list="4,6", M=M))
        assert main(["run", "--config", str(cfg), "--out", str(root / init_class)]) == 0
    return root


@pytest.fixture
def copy(runs, tmp_path):
    """A writable copy of one variant's output directory."""

    def make(init_class="trotter_rpps"):
        dest = tmp_path / init_class
        shutil.copytree(runs / init_class, dest)
        return dest, checks.Variant(init_class, init_class, L_LIST, BETAS, M, SEED)

    return make


def edit_csv(path: Path, row: int, column: str, fn) -> None:
    """Replace one field of data row ``row`` (0-based, after the header) by fn(old)."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[row + 1].split(",")
    j = header.index(column)
    fields[j] = repr(fn(fields[j]))
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_real_output_passes(copy):
    for init_class in ("haar", "trotter_rpps"):
        out, v = copy(init_class)
        report = checks.check_variant(v, out, exact)
        assert report.problems == []
        assert report.failed_samples == set()


def test_flipped_energy_sign_fails_its_sample(copy):
    out, v = copy()
    edit_csv(out / "samples.csv", 1, "obs_value", lambda s: -float(s))  # L=4, m=0, beta=1.0
    report = checks.check_variant(v, out, exact)
    assert ("trotter_rpps", 4, 0) in report.failed_samples


def test_flipped_log_norm_sign_fails_its_sample(copy):
    out, v = copy()
    edit_csv(out / "samples.csv", 5, "log_sq_norm", lambda s: -float(s))  # L=4, m=1, beta=2.0
    report = checks.check_variant(v, out, exact)
    assert report.failed_samples == {("trotter_rpps", 4, 1)}


def test_dropped_row_fails_sample_and_row_count(copy):
    out, v = copy()
    path = out / "samples.csv"
    lines = path.read_text().splitlines()
    del lines[4]  # L=4, m=1, beta=0.5
    path.write_text("\n".join(lines) + "\n")
    report = checks.check_variant(v, out, exact)
    assert report.failed_samples == {("trotter_rpps", 4, 1)}
    assert any("rows, expected" in p for p in report.problems)


def test_dropped_summary_row_fails(copy):
    out, v = copy()
    path = out / "summary.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert any("summary.csv has" in p for p in checks.check_variant(v, out, exact).problems)


def test_eta_above_one_fails(copy):
    out, v = copy()
    edit_csv(out / "summary.csv", 0, "eta", lambda s: 1.0 + 1e-6)
    problems = checks.check_variant(v, out, exact).problems
    assert any("outside [1/M, 1]" in p for p in problems)


def test_summary_disagreeing_with_samples_fails(copy):
    out, v = copy()
    edit_csv(out / "summary.csv", 2, "energy_simple", lambda s: float(s) * (1 + 1e-7))
    problems = checks.check_variant(v, out, exact).problems
    assert any("energy_simple" in p and "samples give" in p for p in problems)


def test_entropy_above_volume_law_bound_fails_its_sample(copy):
    out, v = copy()
    for row in range(3):  # every beta row of L=4, m=0
        edit_csv(out / "samples.csv", row, "init_entropy", lambda s: 2 * math.log(2.0) + 1e-3)
    report = checks.check_variant(v, out, exact)
    assert ("trotter_rpps", 4, 0) in report.failed_samples


def test_wrong_exact_energy_is_caught(copy):
    out, v = copy()
    problems = checks.check_variant(v, out, lambda L: exact(L) + 0.5).problems
    assert any("of exact" in p for p in problems)


def test_three_percent_energy_bias_fails_nonintegrable_scrambler(tmp_path, monkeypatch):
    # The mixed-field Ising scrambler with enough samples (L = 8, M = 1024)
    # that 6 bootstrap sigmas are well under 3 % of |E| at beta = 2.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN.format(init_class="trotter_rpps", beta_grid="2.0", L_list="8", M=1024))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    v = checks.Variant("trotter_rpps", "trotter_rpps", (8,), (2.0,), 1024, SEED)
    levels = checks.heisenberg_levels(8)

    def energies(bias):
        return lambda L: checks.thermal_energies(levels, v.betas) * (1.0 - bias)

    assert checks.check_variant(v, tmp_path / "out", energies(0.0)).problems == []
    for bias in (0.03, -0.03):
        problems = checks.check_variant(v, tmp_path / "out", energies(bias)).problems
        assert any("of exact" in p for p in problems)
    # The relative allowance is given per variant, and would hide this bias.
    monkeypatch.setitem(checks.ENERGY_REL, v.label, 0.05)
    assert checks.check_variant(v, tmp_path / "out", energies(0.03)).problems == []


def test_haar_entropy_far_from_page_fails(copy):
    out, v = copy("haar")
    # Consistent summary and samples, but with entropies far below Page.
    for row in range(len(L_LIST) * M * len(BETAS)):
        edit_csv(out / "samples.csv", row, "init_entropy", lambda s: 0.5 * float(s))
    for row in range(len(L_LIST) * len(BETAS)):
        edit_csv(out / "summary.csv", row, "S_ini_mean", lambda s: 0.5 * float(s))
    problems = checks.check_variant(v, out, exact).problems
    assert any("of Page" in p for p in problems)


def test_missing_file_fails_every_sample(copy):
    out, v = copy()
    (out / "samples.csv").unlink()
    report = checks.check_variant(v, out, exact)
    assert len(report.failed_samples) == len(L_LIST) * M
    assert report.problems


def test_sector_levels_match_dense_chain():
    sx = np.array([[0, 0.5], [0.5, 0]])
    sy = np.array([[0, -0.5j], [0.5j, 0]])
    sz = np.diag([0.5, -0.5])
    L = 5
    h = np.zeros((2**L, 2**L), dtype=complex)
    for i in range(L - 1):
        for s in (sx, sy, sz):
            h += np.kron(np.kron(np.eye(2**i), np.kron(s, s)), np.eye(2 ** (L - i - 2)))
    dense = np.linalg.eigvalsh(h)
    energies, mult = checks.heisenberg_levels(L)
    assert mult.sum() == 2**L
    np.testing.assert_allclose(np.sort(np.repeat(energies, mult.astype(int))), dense, atol=1e-12)
    for beta in (0.1, 3.0):
        w = np.exp(-beta * (dense - dense.min()))
        ref = float(np.dot(w, dense) / w.sum())
        assert checks.thermal_energies((energies, mult), [beta])[0] == pytest.approx(ref, abs=1e-12)


def test_page_entropy_closed_form():
    assert checks.page_entropy(2) == pytest.approx(1.0 / 3.0)
    # Large-dimension limit ln m - m / (2 n) for m = n.
    assert checks.page_entropy(12) == pytest.approx(math.log(64) - 0.5, abs=2e-3)
