"""Property tests of the config schema: every source fails only with ConfigError.

Config files and the run command's overrides all go through one reader, so
random key subsets and garbage values must end in ConfigError (exit 2 and
``invalid: ...`` through main), and every valid config must survive a
round trip through its run.cfg echo.
"""

import contextlib
import dataclasses
import io
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from spintherm.cli import PRESET_NAMES, ConfigError, emit_results, load_config, main, parse_config

MODEL_KEYS = ("kind", "J", "delta", "h_stag", "h_x", "h_z")
KEYS = (
    "init_class", "tau", "n_reps", "beta_grid", "L_list", "M", "master_seed", "n_resamples",
    "output_path", "threads", "label",
    *(f"{model}.{name}" for model in ("system", "trotter") for name in MODEL_KEYS),
)
# Which couplings each model kind reads (hamiltonian.ModelSpec rejects the others).
KIND_FIELDS = {
    "heisenberg": ("J",),
    "xxz_staggered": ("J", "delta", "h_stag"),
    "transverse_ising": ("J", "h_x"),
    "mixed_ising": ("J", "h_x", "h_z"),
}
VALID = {
    "system.kind": "heisenberg",
    "init_class": "trotter_rpps",
    "trotter.kind": "mixed_ising",
    "trotter.h_x": "1.0",
    "trotter.h_z": "1.0",
    "beta_grid": "0.5,1.0",
    "L_list": "4,6",
    "M": "3",
    "master_seed": "7",
    "threads": "1",
}
PROPERTY = settings(max_examples=150, deadline=None, database=None)


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _is_int_list(text: str) -> bool:
    return all(_is_int(part) for part in text.split(","))


garbage = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", " ", "abc", "-1", "0", "2L", "nan", "inf", "-inf", "1e999", "true",
                     "1,x", "0.1:3.0", "3:1:0.5", "0:1:0", "1.5", "4,,6", "=", "#"]),
    st.integers(min_value=-10**6, max_value=10**6).map(str),
    st.floats().map(repr),
)
raw_configs = st.builds(
    lambda dropped, changed: {**{k: v for k, v in VALID.items() if k not in dropped}, **changed},
    st.sets(st.sampled_from(sorted(VALID))),
    st.dictionaries(st.sampled_from(KEYS + ("n_reps_rule", "full_scale", "systm.kind")), garbage, max_size=4),
)


def _file_text(raw: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in raw.items())


def _main(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


def test_fuzz_keys_cover_the_schema():
    valid = {**VALID, "trotter.J": "1.0", "system.J": "1.0"}
    with tempfile.TemporaryDirectory() as tmp:
        path = emit_results([], [], parse_config(_file_text({**valid, "output_path": tmp})))["config"]
        assert {line.split(" = ", 1)[0] for line in path.read_text().splitlines()} == set(KEYS)


@PROPERTY
@given(raw_configs)
def test_config_file_fails_only_with_config_error(raw):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "run.cfg"
        cfg_path.write_text(_file_text(raw))
        try:
            parse_config(cfg_path.read_text())
            accepted = True
        except ConfigError:
            accepted = False
        rc, err = _main(["validate", "--config", str(cfg_path)])
        assert rc == (0 if accepted else 2)
        assert accepted or err.startswith("invalid: ")


def _bad(out_of_range: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(st.text(max_size=8).filter(lambda t: not _is_int(t)), out_of_range.map(str))


BAD_OVERRIDES = {
    "L": st.one_of(st.text(max_size=8).filter(lambda t: not _is_int_list(t)),
                   st.integers(max_value=1).map(str)),
    "samples": _bad(st.integers(max_value=0)),
    "seed": _bad(st.integers(max_value=-1)),
    "threads": _bad(st.integers(max_value=0)),
}
GOOD_OVERRIDES = {"L": "4", "samples": "2", "seed": "1", "threads": "1"}


@st.composite
def bad_overrides(draw) -> dict:
    """Override values of which at least one is malformed or out of range."""
    broken = draw(st.sets(st.sampled_from(sorted(BAD_OVERRIDES)), min_size=1))
    return {
        opt: draw(BAD_OVERRIDES[opt]) if opt in broken else GOOD_OVERRIDES[opt]
        for opt in draw(st.sets(st.sampled_from(sorted(BAD_OVERRIDES)))) | broken
    }


@PROPERTY
@given(st.sampled_from(PRESET_NAMES + ("config",)), bad_overrides())
def test_bad_overrides_exit_2_before_any_run(source, overrides):
    with tempfile.TemporaryDirectory() as tmp:
        if source == "config":
            cfg_path = Path(tmp) / "run.cfg"
            cfg_path.write_text(_file_text(VALID))
            argv = ["run", "--config", str(cfg_path)]
        else:
            argv = ["run", "--preset", source]
        argv += [f"--{opt}={value}" for opt, value in overrides.items()]
        argv += ["--out", str(Path(tmp) / "out")]
        rc, err = _main(argv)
        assert rc == 2
        assert err.startswith("invalid: ")
        assert not (Path(tmp) / "out").exists()


finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
names = st.text(alphabet="abcxyz_019-./", min_size=1, max_size=10)
dirnames = st.text(alphabet="abcxyz_019- ", min_size=1, max_size=10).map(str.strip).filter(bool)  # no "/", no ".."


@st.composite
def model(draw, prefix: str) -> dict:
    kind = draw(st.sampled_from(sorted(KIND_FIELDS)))
    raw = {f"{prefix}.kind": kind}
    for name in draw(st.sets(st.sampled_from(KIND_FIELDS[kind]))):
        value = draw(finite.filter(bool) if name == "J" else finite)
        raw[f"{prefix}.{name}"] = repr(value)
    return raw


@st.composite
def valid_configs(draw) -> dict:
    init_class = draw(st.sampled_from(["haar", "rpps", "trotter_rpps"]))
    betas = draw(st.lists(st.floats(min_value=0.01, max_value=20.0), min_size=1, max_size=5, unique=True))
    raw = {
        **draw(model("system")),
        "init_class": init_class,
        "beta_grid": draw(st.sampled_from([",".join(map(repr, sorted(betas))), "0.1:3.0:0.1", "1:2:0.25"])),
        "L_list": ",".join(map(str, draw(st.lists(st.integers(2, 14), min_size=1, max_size=4, unique=True)))),
        # at most 1.2 GB of samples.csv rows in the run process (cli.ROW_BYTES), which RunConfig refuses beyond memory
        "M": str(draw(st.integers(1, 10**4))),
        "master_seed": str(draw(st.integers(0, 2**64))),
    }
    if init_class == "trotter_rpps" or draw(st.booleans()):
        raw.update(draw(model("trotter")))
    optional = {
        "tau": st.floats(min_value=0.0, max_value=100.0).map(repr),
        "n_reps": st.one_of(st.just("2L"), st.integers(1, 100).map(str)),
        "n_resamples": st.integers(0, 10**5).map(str),
        "threads": st.integers(1, 64).map(str),
        "output_path": dirnames,
        "label": names,
    }
    for key in draw(st.sets(st.sampled_from(sorted(optional)))):
        raw[key] = draw(optional[key])
    return raw


@PROPERTY
@given(valid_configs(), st.text(alphabet=st.characters(blacklist_characters="/"), max_size=6))
def test_run_cfg_round_trip(raw, text):
    with tempfile.TemporaryDirectory() as tmp:
        # the drawn directory name, under the temp dir
        cfg = parse_config(_file_text({**raw, "output_path": os.path.join(tmp, raw.get("output_path", "out"))}))
        # and any label or directory name a RunConfig takes, though a config file could not carry some
        for change in ({}, {"label": text}, {"output_path": os.path.join(tmp, "d", text)}):
            try:
                changed = dataclasses.replace(cfg, **change)
            except ConfigError:
                continue
            assert load_config(emit_results([], [], changed)["config"]) == changed
