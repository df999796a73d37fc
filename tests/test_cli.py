import argparse
import ast
import concurrent.futures
import contextlib
import csv
import dataclasses
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import herdvote
from herdvote import analysis, artifacts, cli, cli_analyze, cli_sweep, engine, ez, meanfield
from herdvote import voting
from herdvote.population import Partition
from herdvote.series import read_returns_binary


def tiny_run_args(out, extra=()):
    return [
        "run", "--out", str(out),
        "--set", "n_agents=200", "--set", "total_steps=4000",
        "--set", "x=0.41", "--set", "seed=3",
        *extra,
    ]


def tree(root) -> dict:
    """Every path under `root`, with each file's bytes (None for a directory)."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in Path(root).rglob("*")}


def recorded(run_dir) -> dict:
    """The artifact digests the run directory's manifest records."""
    return artifacts.recorded_digests(os.path.join(run_dir, "manifest.json"))


def fresh_env(**extra) -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                **extra)


def run_ok(argv) -> str:
    """Run a command that must succeed; returns what it printed, stripped:
    the run directory, `sweep.json` or summary path, or the solver report."""
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        assert cli.main(argv) == cli.EXIT_OK
    return printed.getvalue().strip()


def outcome(argv, root) -> tuple:
    """`cli.main(argv)` in process: its exit code, stdout and stderr, and the
    paths under `root` it created, removed or changed."""
    before = tree(root)
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    after, gone = tree(root), object()
    changed = sorted(path for path in before.keys() | after.keys()
                     if before.get(path, gone) != after.get(path, gone))
    return code, out.getvalue(), err.getvalue(), changed


def assert_refusal(result, *fragments):
    """The refusal contract: exit 3, nothing on stdout, one line on stderr
    that starts with `error: ` and holds every fragment, and no path changed."""
    code, out, err, changed = result
    assert (code, out, changed) == (cli.EXIT_CONFIG, "", []), result
    assert err.startswith("error: ") and err.endswith("\n") and len(err.splitlines()) == 1, err
    assert [f for f in fragments if f not in err] == [], err


def collect(table, check):
    """Collect each entry of `table` as a test of this module, under its
    name: `check(row, tmp_path)` on its one row (a tuple), or on each of its
    rows (a dict), by id, each an item of its own.  The entries keep the
    names, and the rows the ids, that they had as tests of their own."""
    for name, rows in table.items():
        if isinstance(rows, tuple):
            def test(tmp_path, row=rows):
                check(row, tmp_path)
        else:
            @pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))
            def test(tmp_path, row):
                check(row, tmp_path)
        globals()[name] = test


# -- config handling ---------------------------------------------------------

def test_config_text_round_trip():
    config = cli.default_config()
    config["x"] = 0.47
    config["initial_history"] = (1, 0)
    parsed = cli.parse_config_text(cli.config_text(config))
    assert parsed["x"] == 0.47
    assert parsed["initial_history"] == (1, 0)
    assert parsed["equilibration_steps"] is None  # "auto" survives


@st.composite
def resolved_configs(draw):
    memory = draw(st.integers(1, 4))
    total_steps = draw(st.integers(1, 10**9))
    raw = {
        "schema_version": cli.SCHEMA_VERSION,
        "model": draw(st.sampled_from(["main", "ez"])),
        "n_agents": draw(st.integers(2, 2**20)),
        "x": draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        "total_steps": total_steps,
        "equilibration_steps": draw(st.none() | st.integers(0, total_steps - 1)),
        "memory_m": memory,
        "initial_history": tuple(draw(st.lists(st.integers(0, 1), min_size=memory,
                                               max_size=memory))),
        "vote_mode": draw(st.sampled_from(["strategy", "iid"])),
        "seed": draw(st.integers(0, 2**64)),
        "ez_a": draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    }
    return cli.resolve_config(raw)


@settings(max_examples=200)
@given(resolved_configs())
def test_config_text_round_trip_of_resolved_configs(config):
    text = cli.config_text(config)
    again = cli.resolve_config(cli.parse_config_text(text))
    assert again == config
    assert cli.config_text(again) == text
    assert cli.config_digest(again) == cli.config_digest(config)


# Digests of the resolved default config and of the benchmark's three run
# configs (seed 900001, 2x10^5 steps); config text is the run directory's
# name, so these must not move without a schema change.
PINNED_DIGESTS = [
    ([], "f2320a90d7b59a37fd97d3f9b97a4eaec791e873688bdb52385e622988d1bb82"),
    (["model=main", "n_agents=10000", "x=0.41", "vote_mode=strategy"],
     "9debcda4a72442bb1f196197df38d15262610e94705e484b6975f4940ba9a9ab"),
    (["model=main", "n_agents=10000", "x=0.41", "vote_mode=iid"],
     "2b725c8b2f2bbff2ef845917590c7a2d2d33549ecc719f32bd309dbde1213436"),
    (["model=ez", "n_agents=10000", "ez_a=0.01"],
     "f758c44ead3832b0658274ba3636250adae04c6a9500811d973dade657945026"),
]


@pytest.mark.parametrize("overrides, digest", PINNED_DIGESTS,
                         ids=["default", "desk_strategy", "desk_iid", "ez_desk"])
def test_config_digests_are_pinned(overrides, digest):
    if overrides:
        overrides = [*overrides, "total_steps=200000", "seed=900001"]
    config = cli.resolve_config(cli.apply_overrides(cli.default_config(), overrides))
    assert cli.config_digest(config) == digest


# sha256 of every digested artifact of three short runs (300 agents, 3x10^4
# steps, x = 0.41, seed 1).  A change to the simulation loop, the partition
# or the writers must leave these bytes alone unless it bumps the schema.
PINNED_ARTIFACTS = {
    "vote_mode=strategy": {
        "config.txt": "e553298a2f7246db80cbf105e49460a61f5269d165fdb304842b820d540b400f",
        "returns_raw.bin": "f36369971181bd37f8761478f441aca2f797139903f0514002b9ffa4b405f45b",
        "size_histogram.csv": "169f5e1e0c99278630afac785c4b33e74d42b557b15a66e1134d30dc3b424cb5",
        "summary.json": "bcce805db75d50386e2828500f3c616f98738bdf8d190cc53d7649ae0a12d7dd",
    },
    "vote_mode=iid": {
        "config.txt": "97b9527f74f44971c8f8a89bf214434af8d3aeb1cb8dbaa1c7054535b4bac3e4",
        "returns_raw.bin": "668c82aff2819980ce6d22ccc8d0b7b7a24e0c5aad535229a73ec4e6eadce097",
        "size_histogram.csv": "de73e34b006c1471abbe4ca2310eda97fa3f5903a380954b360347d98d6c2d77",
        "summary.json": "43915165706226cf17172552e9a0350498148d9fc9d4496211cb66d15640c041",
    },
    "model=ez": {
        "config.txt": "9f65e8089da591c4fb0bbaac61e33ea54d1794ec8db9327272510e9481bfea83",
        "returns_raw.bin": "00cf2b41bacf54debc0329946a5f37a5fb8a012693e7d0b23f38c3c10bb95b16",
        "size_histogram.csv": "87c258aa37cbb7ff929ce3c0f3dadddbb856792dbab5844551bcf85b110afb0d",
        "summary.json": "32815a0525ca393fae05dc45c3606e4c4b01ab78e203399ae09e82f74163a94d",
    },
}


def test_desk_iid_run_past_the_exact_sizes_is_pinned(tmp_path):
    """The desk iid config (10^4 agents, 2x10^5 steps, x = 0.41) at seed
    900003 trades groups above 64 agents (its largest |r| is 67), so its
    returns depend on the summed decision CDFs that `voting.fill_cdfs` fills
    above the exact counts; the pinned 300-agent runs never reach them."""
    argv = ["run", "--out", str(tmp_path)]
    for item in ("n_agents=10000", "x=0.41", "vote_mode=iid", "total_steps=200000",
                 "seed=900003"):
        argv += ["--set", item]
    path = os.path.join(run_ok(argv), "returns_raw.bin")
    assert int(np.abs(read_returns_binary(path)).max()) == 67
    assert (artifacts.sha256_file(path)
            == "ccb96d979d331f87174d67af639fade974c4ffd564149c8df3ae6f14d472195f")


# sha256 of the analysis outputs of the same three runs: analysis/ccdf.csv,
# pdf.csv and fit.csv and the summary CSV, of returns summed over pairs of
# steps (False, the default --rescale-k 2) and of the raw series (True,
# --rescale-k 1).  Computed while `analyze` parsed the text series and took k
# from the run's config; these show that the bytes did not move.  Except: an
# E-Z fit.csv labels its row "ez a=<a>", as the summary does, where it once
# echoed an x that the E-Z model never read; every fitted value is unchanged.
PINNED_ANALYSIS = {
    ("vote_mode=strategy", False): {
        "ccdf.csv": "9064eebe574739ea5f1971d802db17e98332d1009bdb59062b96df066e640ed5",
        "pdf.csv": "8579bc559a1f702a9ea12a1ca9e5f1a8e21448650e87edf3fa41031ad4a8daed",
        "fit.csv": "8881dc931568c9062037e140b1afcd97961a019100fd3aa9834f8cac84a40c0b",
        "summary": "738046a0b1dc7c6cb30fb8108ef8a0579d93ddcf034a397895e3c3a7685c5ca0",
    },
    ("vote_mode=strategy", True): {
        "ccdf.csv": "2c0836ac3ff88ad6a46d1cbafd567f976f057abae526724aa637eccf29e16fb7",
        "pdf.csv": "e2efdead72fcc67d8fad03cdd9a241f75eb10fe031339f554bed3cb1b22260c9",
        "fit.csv": "48eff042ae6f46b5d7e507187c3f66dccf48c81b086a848e76ac5ea5bf0c1177",
        "summary": "3cc05d10769c79a2d7796b230a55765499a72f5b012af3cccd8bb0ec856cb445",
    },
    ("vote_mode=iid", False): {
        "ccdf.csv": "a69729d4958e7558ee37a21f55f7a7cb2ce3e52638ba94d37be5ea2d9a363691",
        "pdf.csv": "761f6995b2a00e61c1d3513e66eb9ca6030f243161e239093b29d998db6b25b7",
        "fit.csv": "cf1f1814c35845123e9aaf482fb9ce2ed6baa61563e6d01bf75fd4df0e77362a",
        "summary": "4a52e3b3eff03c717f5f16fede3c4880818b8bddaecb93d29125f17fc6dd3d56",
    },
    ("vote_mode=iid", True): {
        "ccdf.csv": "0795757fd6b8084ff09bd887ba2ee5e5104400b795f4d351fbb8401872798cb3",
        "pdf.csv": "d7cc90288811d2c11fac94b74917d8dbdab9493d4edc91ef4c77e62d458f293b",
        "fit.csv": "a10fc221e720216b4004f1ea706c26e48cfac5c6955cee31ea33706c90ecff0c",
        "summary": "6188a181f0f498191debb5089ea97728d0d662ccc4d1c4f4c7aa24c3704a9078",
    },
    ("model=ez", False): {
        "ccdf.csv": "0ca4b3e3b8af2ec0163d551c432d056727fed94adddceba2db2c23bd6de60c5a",
        "pdf.csv": "625583adc75fc5667d9d53791e23b848f73fbb29a0c211009f7f3540ffa2cea5",
        "fit.csv": "d0f34e9feb6b5afe0ad908e6f91bc4dc4209cadbeadef4af482d959a59752616",
        "summary": "b507cd7ac1afe4c1fc269dbeb61a59861fd99a2d381e1ac04cf79ab0f133eab2",
    },
    ("model=ez", True): {
        "ccdf.csv": "c5f26674b2bf5d5a20a1edb3da77a6f0d49055b9c512b596bd540c0a8a2b1516",
        "pdf.csv": "0637e17d85459ad67486526a3e47c96ab7a46d9e10c033295766c8109da19cb9",
        "fit.csv": "845561c19dc7b5440963be3deb202e50846fbee0d2f8eabf1b7a2b9a0953dfe8",
        "summary": "6da737b20de7caefed143c1dbda1bb7e81c772f7f039a5659327ba096108945c",
    },
}


@pytest.fixture(scope="module")
def pinned_run(tmp_path_factory):
    """The run directory of a pinned config, run once for all the tests here."""
    runs = {}

    def run_of(override):
        if override not in runs:
            runs[override] = run_ok([
                "run", "--out", str(tmp_path_factory.mktemp("pinned")), "--set", "n_agents=300",
                "--set", "total_steps=30000", "--set", "x=0.41", "--set", "seed=1",
                "--set", override])
        return runs[override]
    return run_of


@pytest.mark.parametrize("override", list(PINNED_ARTIFACTS))
def test_run_artifacts_are_pinned(pinned_run, override):
    assert recorded(pinned_run(override)) == PINNED_ARTIFACTS[override]


@pytest.mark.parametrize("override, use_raw", list(PINNED_ANALYSIS))
def test_analyze_outputs_are_pinned(tmp_path, pinned_run, override, use_raw):
    """What `analyze` writes of a pinned run at --rescale-k 2 and at 1.
    `analyze` loads no NumPy (`test_each_command_loads_only_its_layers`), so
    no CPU dispatch of NumPy's can move these bytes."""
    run_dir = pinned_run(override)
    summary = tmp_path / "summary.csv"
    run_ok(["analyze", run_dir, "--rescale-k", "1" if use_raw else "2", "--out", str(summary)])
    written = {name: os.path.join(run_dir, "analysis", name)
               for name in ("ccdf.csv", "pdf.csv", "fit.csv")}
    digests = {name: artifacts.sha256_file(path)
               for name, path in {**written, "summary": summary}.items()}
    assert digests == PINNED_ANALYSIS[override, use_raw]


def test_docstring_table_is_the_defaults():
    table = cli.__doc__.split("`default_config()`):\n\n", 1)[1].split("\n\n", 1)[0]
    assert len(table.splitlines()) == len(cli.default_config())
    assert cli.parse_config_text(table) == cli.default_config()


def test_unknown_key_is_named():
    with pytest.raises(cli.ConfigError, match="no_such_key"):
        cli.parse_config_text("no_such_key = 4\n")


def test_bad_value_is_named():
    with pytest.raises(cli.ConfigError, match="n_agents"):
        cli.parse_config_text("n_agents = many\n")


def test_override_parsing():
    config = cli.apply_overrides(cli.default_config(), ["x=0.45", "seed=9"])
    assert config["x"] == 0.45 and config["seed"] == 9


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["no-such-command"])
    assert excinfo.value.code == cli.EXIT_USAGE


# -- refusals that need only an argv -------------------------------------------

# Every input the command line refuses on its argv alone.  An entry is a
# test (see `collect`).  A row is an argv and a fragment of its error line,
# "{tmp}" standing for the test's directory, laid out by `_refused`.
REFUSALS = {
    "test_missing_config_file_is_config_error": (
        "run --config {tmp}/absent.cfg --out {tmp}/runs",
        "config file not found: {tmp}/absent.cfg"),
    "test_unreadable_config_file_is_config_error": {
        "directory": ("run --config {tmp}/dir --out {tmp}/runs",
                      "cannot read config file {tmp}/dir: Is a directory"),
        "not_utf8": ("run --config {tmp}/not_utf8.cfg --out {tmp}/runs",
                     "{tmp}/not_utf8.cfg: not UTF-8 text"),
        "key_twice": ("run --config {tmp}/key_twice.cfg --out {tmp}/runs",
                      "{tmp}/key_twice.cfg: line 4: 'x' is set twice, on lines 1 and 4"),
    },
    "test_memory_over_table_budget_is_config_error": (
        "run --out {tmp}/runs --set memory_m=40", "exceed the budget of 16777216 entries"),
    "test_negative_seed_is_config_error": {
        model: (f"run --out {{tmp}}/runs --set model={model} --set seed=-1",
                "seed must be >= 0, got -1") for model in ("main", "ez")
    },
    # the window length is `analyze --rescale-k`; no simulation reads it
    "test_rescale_k_is_an_unknown_key": (
        "run --out {tmp}/runs --set rescale_k=2", "unknown config key 'rescale_k'"),
    "test_bad_vote_mode_names_the_allowed_values": (
        "run --out {tmp}/runs --set vote_mode=majority",
        "vote_mode must be 'strategy' or 'iid', got 'majority'"),
    "test_malformed_history_is_config_error": (
        "run --out {tmp}/runs --set initial_history=1,x",
        "error: initial_history must be comma-separated bits, got '1,x'"),
    "test_bad_config_is_config_error": {
        name: (f"run --out {{tmp}}/runs --set {overrides}", message)
        for name, overrides, message in (
            ("unknown_model", "model=foo", "model must be 'main' or 'ez', got 'foo'"),
            ("set_without_equals", "x:0.4", "--set expects key=value, got 'x:0.4'"),
            ("unknown_key", "bogus=1", "unknown config key 'bogus'"),
            ("not_a_number", "n_agents=many", "bad value for 'n_agents': 'many'"),
            ("schema_version_2", "schema_version=2",
             "schema_version 2 is not supported (supported: 3)"),
            ("one_agent", "n_agents=1", "n_agents must be in [2, 16777216], got 1"),
            ("x_above_1", "x=1.5", "x must be in (0, 1), got 1.5"),
            ("ez_a_0", "model=ez --set ez_a=0", "trade probability must be in (0, 1), got 0.0"),
            ("equilibration_is_total", "total_steps=100 --set equilibration_steps=100",
             "equilibration_steps must be in [0, total_steps), got 100 of 100"),
            ("total_steps_0", "total_steps=0", "total_steps must be >= 1"),
            ("memory_0", "memory_m=0", "memory must be >= 1"),
            ("history_length", "memory_m=3 --set initial_history=1,1",
             "initial_history length 2 != memory 3"),
            ("history_bit_2", "initial_history=1,2",
             "initial_history bits must be 0 or 1, got (1, 2)"),
        )
    },
    # more than 2**24 agents is refused before the state or the solver's arrays exist
    "test_population_over_the_agent_limit_is_config_error": {
        "run": ("run --out {tmp}/runs --set n_agents=16777217",
                "n_agents must be in [2, 16777216], got 16777217"),
        "run_ez": ("run --out {tmp}/runs --set model=ez --set n_agents=200000000",
                   "n_agents must be in [2, 16777216], got 200000000"),
        "meanfield": ("meanfield --n-agents 100000000 --x 0.41 --out {tmp}/dist.txt",
                      "n_agents must be in [2, 16777216], got 100000000"),
    },
    "test_sweep_empty_grid_rejected": (
        "sweep --x 0.41 --replicates 0 --out {tmp}/runs", "sweep grid is empty"),
    "test_sweep_malformed_grid_value_rejected": {
        "grid0": ("sweep --x 0.41,abc --out {tmp}/runs", "bad grid values '0.41,abc'"),
        "grid1": ("sweep --n-agents 100,1.5 --out {tmp}/runs", "bad grid values '100,1.5'"),
    },
    # a non-finite x would make sweep.json's x_values invalid JSON
    "test_sweep_non_finite_grid_value_rejected": {
        x: (f"sweep --x {x} --out {{tmp}}/runs",
            f"error: bad grid values '{x}': every value must be finite")
        for x in ("nan,0.41", "0.41,inf", "0.41,-inf")
    },
    # E-Z has no x: a grid over it would run one simulation per point
    "test_sweep_over_x_of_the_ez_model_is_config_error": (
        "sweep --x 0.41,0.45 --set model=ez --out {tmp}/runs",
        "--x sets the voting model's consensus parameter; model 'ez' has no x"),
    "test_sweep_workers_below_one_rejected": {
        n: (f"sweep --x 0.41,0.47 --workers {n} --out {{tmp}}/runs",
            f"--workers must be >= 1, got {n}") for n in ("0", "-1")
    },
    # every point shares the base config's fault: no point runs or is recorded
    "test_sweep_with_no_runnable_point_is_config_error": (
        "sweep --n-agents 50,60 --set vote_mode=bogus --set total_steps=100 --out {tmp}/out2",
        "error: vote_mode must be 'strategy' or 'iid', got 'bogus'"),
    "test_meanfield_bad_input_is_config_error": {
        f"{flag}-{value}": (
            f"meanfield --n-agents 6 --x 0.41 {flag} {value} --out {{tmp}}/dist.txt", message)
        for flag, value, message in (
            ("--n-agents", "1", "n_agents must be in [2, 16777216], got 1"),
            ("--x", "0.3", "solver requires 1/3 < x < 1, got x=0.3"),
            ("--x", "1.5", "solver requires 1/3 < x < 1, got x=1.5"),
            ("--tolerance", "0", "tolerance must be finite and > 0, got 0.0"),
            ("--tolerance", "nan", "tolerance must be finite and > 0, got nan"),
            ("--tolerance", "inf", "tolerance must be finite and > 0, got inf"),
            ("--max-iterations", "0", "max_iterations must be >= 1, got 0"),
        )
    },
    "test_analyze_missing_artifact_named": (
        "analyze {tmp}/dir --out {tmp}/s.csv", "cannot read {tmp}/dir/config.txt"),
    # refused with the option named before any run directory is read
    "test_analyze_bad_option_is_config_error": {
        f"{option}-{value}": (f"analyze {{tmp}}/no_run {option} {value} --out {{tmp}}/s.csv",
                              f"{option} must be {rule}, got {shown}")
        for option, value, rule, shown in (
            ("--r-min", "0", "finite and > 0", "0.0"),
            ("--r-min", "-5", "finite and > 0", "-5.0"),
            ("--r-min", "nan", "finite and > 0", "nan"),
            ("--r-min", "inf", "finite and > 0", "inf"),
            ("--tail-threshold", "0", "finite and > 0", "0.0"),
            ("--tail-threshold", "nan", "finite and > 0", "nan"),
            ("--bins-per-decade", "0", "in [1, 1000000000000]", "0"),
            ("--bins-per-decade", "1000000000001", "in [1, 1000000000000]", "1000000000001"),
            ("--rescale-k", "0", ">= 1", "0"),
        )
    },
    # a file where an output directory must go, or a directory where
    # `meanfield`'s report or `sweep.json` must go
    "test_out_under_an_existing_file_is_config_error": {
        "run": ("run --out {tmp}/a_file", "cannot write in {tmp}/a_file"),
        "sweep": ("sweep --x 0.41,0.47 --out {tmp}/a_file", "cannot write in {tmp}/a_file"),
        "meanfield": ("meanfield --n-agents 6 --x 0.41 --out {tmp}/a_file/d.txt",
                      "cannot write in {tmp}/a_file"),
        "analyze": ("analyze {tmp}/dir --r-min 1 --out {tmp}/a_file/s.csv",
                    "cannot write in {tmp}/a_file"),
        "meanfield_report": ("meanfield --n-agents 6 --x 0.41 --out {tmp}/d.txt",
                             "cannot write {tmp}/d.txt.report.json: it names a directory"),
        "sweep_json": ("sweep --x 0.41,0.47 --out {tmp}",
                       "cannot write {tmp}/sweep.json: it names a directory"),
    },
}


def _ruled_out(*_args, **_kwargs):
    pytest.fail("called a function the test rules out")


def _refused(row, root):
    """A `REFUSALS` row, run in `root` laid out with the files the rows name
    and with every layer that works patched to fail: a refusal comes before
    any work.  The solve is `_solve`, as `solve_stationary` checks the
    inputs first."""
    (root / "dir").mkdir()
    (root / "not_utf8.cfg").write_bytes(b"n_agents = 150\nx = 0.4\xff\n")
    (root / "key_twice.cfg").write_bytes(b"x = 0.41\n# a comment\nseed = 2\nx = 0.45\n")
    (root / "a_file").write_text("")
    (root / "d.txt.report.json").mkdir()
    (root / "sweep.json").mkdir()
    args, fragment = row
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        for module, name in ((engine, "run"), (cli, "ez_run"), (meanfield, "_solve"),
                             (analysis, "histogram")):
            patch.setattr(module, name, _ruled_out)
        assert_refusal(outcome([arg.format(tmp=root) for arg in args.split()], root),
                       fragment.format(tmp=root))


collect(REFUSALS, _refused)


# -- run ----------------------------------------------------------------------

def test_run_writes_all_artifacts(tmp_path):
    run_dir = run_ok(tiny_run_args(tmp_path / "runs"))
    names = sorted(os.listdir(run_dir))
    assert names == [
        "config.txt", "manifest.json", "returns_raw.bin", "size_histogram.csv", "summary.json",
    ]
    manifest = json.loads(Path(run_dir, "manifest.json").read_text())
    assert manifest["config"]["x"] == "0.41"
    assert set(manifest["artifacts"]) == set(names) - {"manifest.json"}
    summary = json.loads(Path(run_dir, "summary.json").read_text())
    raw = read_returns_binary(os.path.join(run_dir, "returns_raw.bin"))
    assert len(raw) == summary["recorded_steps"]


def test_run_twice_is_idempotent_and_deterministic(tmp_path):
    dir_a = run_ok(tiny_run_args(tmp_path / "a"))
    assert run_ok(tiny_run_args(tmp_path / "a")) == dir_a
    dir_b = run_ok(tiny_run_args(tmp_path / "b"))
    assert recorded(dir_a) == recorded(dir_b)
    assert os.path.basename(dir_a) == os.path.basename(dir_b)  # digest-addressed


def test_rerun_leaves_manifest_byte_identical(tmp_path):
    manifest = Path(run_ok(tiny_run_args(tmp_path)), "manifest.json")
    before = manifest.read_bytes()
    run_ok(tiny_run_args(tmp_path))
    assert manifest.read_bytes() == before
    # a manifest that no longer matches its verified artifacts is refused
    manifest.write_text('{"artifacts": {}}')
    assert_refusal(outcome(tiny_run_args(tmp_path), tmp_path), f"refusing to overwrite {manifest}")


@pytest.mark.parametrize("model, unread", [
    ("ez", ["x=0.45", "vote_mode=iid"]),
    ("main", ["ez_a=0.02"]),
])
def test_keys_the_model_does_not_read_name_no_second_directory(tmp_path, model, unread):
    """A key the model does not read is dropped: the run that sets it is the
    run that does not, verified in place with its manifest left as it was."""
    run_dir = run_ok(tiny_run_args(tmp_path, extra=["--set", f"model={model}"]))
    manifest = Path(run_dir) / "manifest.json"
    before = manifest.read_bytes()
    extra = ["--set", f"model={model}", *(arg for kv in unread for arg in ("--set", kv))]
    assert run_ok(tiny_run_args(tmp_path, extra=extra)) == run_dir
    assert os.listdir(tmp_path) == [os.path.basename(run_dir)]
    assert manifest.read_bytes() == before


@pytest.mark.parametrize("command, module, writer, crash_on", [
    ("run", engine, "write_returns_binary", "returns_raw.bin"),
    ("analyze", cli, "_write_csv", "summary.csv"),
    ("meanfield", cli, "_write_json", "dist.txt.report.json"),
    ("sweep", cli, "_write_json", "sweep.json"),
], ids=["run", "analyze", "meanfield", "sweep"])
def test_crash_mid_write_leaves_no_partial_artifact(tmp_path, monkeypatch,
                                                    command, module, writer, crash_on):
    """A writer that dies part-way through one file publishes none of the
    command's files: every output path, and the directories made for them,
    are left as they were, with no staging left behind.  A rerun then
    writes what a clean run does."""
    argv = {
        "run": tiny_run_args(tmp_path / "a"),
        "analyze": ["analyze", "RUN_DIR", "--r-min", "1", "--out", str(tmp_path / "summary.csv")],
        "meanfield": ["meanfield", "--n-agents", "6", "--x", "0.41",
                      "--out", str(tmp_path / "m" / "dist.txt")],
        "sweep": sweep_args(tmp_path / "s", 1),
    }[command]
    if command == "analyze":
        argv[1] = run_ok(tiny_run_args(tmp_path / "runs"))
    before = tree(tmp_path)
    write = getattr(module, writer)

    def crashing_writer(path, *args):
        if os.path.basename(path) != crash_on:
            return write(path, *args)
        with open(path, "w") as fh:
            fh.write("12\n-3\n")  # part of the file, then the writer dies
        raise OSError("disk full")

    monkeypatch.setattr(module, writer, crashing_writer)
    with pytest.raises(OSError, match="disk full"):
        cli.main(argv)
    monkeypatch.undo()
    after = tree(tmp_path)
    assert not any(".staging-" in path for path in after)
    if command == "sweep":  # each grid point's run is whole, published before sweep.json
        runs = list((tmp_path / "s").iterdir())
        assert len(runs) == 2 and all((p / "manifest.json").exists() for p in runs)
    else:
        assert after == before

    run_ok(argv)
    if command == "run":
        (run_dir,) = (tmp_path / "a").iterdir()
        fresh_dir = run_ok(tiny_run_args(tmp_path / "b"))
        assert tree(run_dir).keys() == tree(fresh_dir).keys()
        assert recorded(run_dir) == recorded(fresh_dir)
    else:
        written = {"analyze": ["summary.csv", "runs/*/analysis/fit.csv"],
                   "meanfield": ["m/dist.txt", "m/dist.txt.report.json"],
                   "sweep": ["s/sweep.json"]}[command]
        assert all(list(tmp_path.glob(pattern)) for pattern in written)
        assert not any(".staging-" in path for path in tree(tmp_path))


def test_scipy_stays_off_the_run_and_analyze_path(tmp_path):
    """No command loads SciPy, and only a parallel sweep loads multiprocessing
    (the sweep here is serial; `test_sweep_pool_is_no_larger_than_the_grid_or_the_cpus`
    covers the pool)."""
    script = f"""
import contextlib, io, sys
from herdvote import cli
assert "scipy" not in sys.modules, "import herdvote.cli"
assert "concurrent.futures.process" not in sys.modules, "import herdvote.cli"
run_args = {tiny_run_args(tmp_path / "runs")!r}
with contextlib.redirect_stdout(io.StringIO()) as printed:
    for extra in ([], ["--set", "model=ez"], ["--set", "vote_mode=iid"]):
        assert cli.main([*run_args, *extra]) == 0
run_dir = printed.getvalue().splitlines()[0]
# np.unique without return_counts imports numpy.ma: 10-13 ms per process
assert "numpy.ma" not in sys.modules, "run"
assert cli.main(["analyze", run_dir, "--out", {str(tmp_path / "summary.csv")!r}]) == 0
assert "numpy.ma" not in sys.modules, "analyze"
argv = ["meanfield", "--n-agents", "400", "--x", "0.41", "--out", {str(tmp_path / "dist.txt")!r}]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(argv) == 0
    assert cli.main(["validate"]) == 0
    assert cli.main({sweep_args(tmp_path / "sweep", 1)!r}) == 0
assert "scipy" not in sys.modules
assert "concurrent.futures.process" not in sys.modules
"""
    result = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


BASE_MODULES = {"herdvote", "herdvote.artifacts", "herdvote.cli", "herdvote.config"}
SIMULATOR = {"herdvote.engine", "herdvote.population", "herdvote.series"}
COMMAND_MODULES = {
    "version": BASE_MODULES,
    "meanfield": BASE_MODULES | {"herdvote.cli_meanfield", "herdvote.meanfield",
                                 "herdvote.voting"},
    "analyze": BASE_MODULES | {"herdvote.cli_analyze", "herdvote.analysis", "herdvote.series"},
    "validate": BASE_MODULES | {"herdvote.cli_validate", "herdvote.analysis",
                                "herdvote.meanfield", "herdvote.voting"},
    "sweep": BASE_MODULES | SIMULATOR | {"herdvote.cli_sweep"},
    "run": BASE_MODULES | SIMULATOR,
    "run_iid": BASE_MODULES | SIMULATOR | {"herdvote.voting"},
    "run_ez": BASE_MODULES | SIMULATOR | {"herdvote.ez"},
}


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_each_command_loads_only_its_layers(tmp_path, command):
    """The package modules a fresh process holds after one command: an eager
    import added anywhere shows here before it slows every command down.
    A command compiles no other command's body (`cli_<command>`), and only
    an iid run among the runs loads `voting`."""
    run_args = tiny_run_args(tmp_path / "runs")
    argv = {
        "version": ["--version"],
        "meanfield": ["meanfield", "--n-agents", "50", "--x", "0.41",
                      "--out", str(tmp_path / "dist.txt")],
        "analyze": ["analyze", "RUN_DIR", "--r-min", "1", "--out", str(tmp_path / "s.csv")],
        "validate": ["validate"],
        "sweep": sweep_args(tmp_path / "sweep", 1),
        "run": run_args,
        "run_iid": [*run_args, "--set", "vote_mode=iid"],
        "run_ez": [*run_args, "--set", "model=ez"],
    }[command]
    if command == "analyze":
        argv[1] = run_ok(run_args)
    script = """
import contextlib, io, json, sys
from herdvote import cli
assert "numpy" not in sys.modules, "import herdvote.cli"
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(json.loads(sys.argv[1]))
    except SystemExit as exc:  # --version
        code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "herdvote"),
                  sorted(m for m in ("numpy", "hashlib", "csv") if m in sys.modules)]))
"""
    result = subprocess.run([sys.executable, "-c", script, json.dumps(argv)], env=fresh_env(),
                            capture_output=True, text=True, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    code, modules, loaded = json.loads(result.stdout)
    assert code == 0
    assert set(modules) == COMMAND_MODULES[command]
    bodies = {m for m in modules if m.startswith("herdvote.cli_")}
    assert bodies <= {f"herdvote.cli_{command}"}
    if command in ("run", "run_ez"):  # strategy votes and E-Z decisions need no `voting`
        assert "herdvote.voting" not in modules
    if command in ("version", "analyze"):  # their layers are standard library only
        assert "numpy" not in loaded
    if command in ("version", "meanfield"):  # they digest no file and write no CSV
        assert not {"hashlib", "csv"} & set(loaded)


# The per-step oracles and what only they call: the tests and the
# benchmark's tracer call them, and no command does.
PER_STEP_ORACLES = [
    (engine, "step"), (engine, "update_history"), (ez, "ez_step"),
    *((Partition, name) for name in ("merge", "fragment", "members", "size_of", "group_of")),
    (voting, "consensus_options"), (voting, "decide"),
]


def test_no_command_reaches_the_per_step_oracles(tmp_path, monkeypatch):
    """Strategy runs at memory 2 and at memory 4 (which packs rows on
    demand), iid and E-Z runs, a serial sweep and `analyze` all run with
    the oracles failing, and write the digests they write without."""
    models = [["--set", kv] for kv in ("memory_m=2", "memory_m=4", "vote_mode=iid", "model=ez")]
    expected = [recorded(run_ok(tiny_run_args(tmp_path / "plain", extra))) for extra in models]
    for owner, name in PER_STEP_ORACLES:
        monkeypatch.setattr(owner, name, _ruled_out)
    run_dirs = [run_ok(tiny_run_args(tmp_path / "runs", extra)) for extra in models]
    assert [recorded(run_dir) for run_dir in run_dirs] == expected
    run_ok(sweep_args(tmp_path / "sweep", 1))
    run_ok(["analyze", *run_dirs, "--r-min", "1", "--out", str(tmp_path / "summary.csv")])


def test_python_m_compiles_the_cli_once(tmp_path):
    """`python -m herdvote.cli` runs `cli` as `__main__`; a command body that
    imports `herdvote.cli` finds that module, so no package file is
    compiled twice."""
    result = subprocess.run(
        [sys.executable, "-v", "-m", "herdvote.cli", "meanfield", "--n-agents", "20",
         "--x", "0.41", "--out", str(tmp_path / "dist.txt")],
        env=fresh_env(PYTHONDONTWRITEBYTECODE="1"), capture_output=True, text=True, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    compiled = [line.rsplit(os.sep, 1)[-1] for line in result.stderr.splitlines()
                if line.startswith("# code object from ") and os.path.dirname(cli.__file__) in line]
    assert sorted(compiled) == sorted({*compiled}) and "cli.py" in compiled, compiled


def test_package_names_resolve_on_first_access():
    """`import herdvote` loads no subpackage; each exported name then
    resolves to the object its home module defines."""
    script = """
import sys
import herdvote
assert sorted(m for m in sys.modules if m.startswith("herdvote")) == ["herdvote"]
for name in herdvote.__all__:
    getattr(herdvote, name)
assert herdvote.run is sys.modules["herdvote.engine"].run
assert herdvote.SimConfig is sys.modules["herdvote.config"].SimConfig
assert herdvote.engine is sys.modules["herdvote.engine"]
assert set(herdvote.__all__) <= set(dir(herdvote))
"""
    result = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    with pytest.raises(AttributeError, match="no_such_name"):
        herdvote.no_such_name


def test_absolute_majority_warning_lands_in_manifest(tmp_path, capsys):
    run_dir = run_ok(tiny_run_args(tmp_path / "runs", extra=["--set", "x=0.9"]))
    manifest = json.loads(Path(run_dir, "manifest.json").read_text())
    assert any("absolute-majority" in w for w in manifest["warnings"])
    assert "absolute-majority" in capsys.readouterr().err


@pytest.mark.parametrize("x, regime", [
    (0.30, "no-fragmentation"), (1 / 3, "no-fragmentation"), (0.41, None),
    (0.6, "absolute-majority"),
])
def test_regime_warnings(x, regime):
    warnings = cli.regime_warnings({"model": "main", "x": x})
    assert [regime in w for w in warnings] == ([] if regime is None else [True])
    assert cli.regime_warnings({"model": "ez", "ez_a": 0.01}) == []


@pytest.mark.parametrize("command, message", [
    ("run", ""), ("analyze", "Unable to allocate 13.1 GiB for an array"),
], ids=["run", "analyze"])
def test_refused_allocation_is_config_error(tmp_path, monkeypatch, command, message):
    """An allocation the machine refuses, such as the series of a 10^12-step
    run, ends in one error line and exit 3, with nothing published, in
    `run` and in `analyze`.  The layer raises here: an allocation that size
    would start for real on a host that overcommits."""

    def refused(*_args, **_kwargs):
        raise MemoryError(message)

    argv = tiny_run_args(tmp_path / "runs")
    if command == "analyze":
        argv = ["analyze", run_ok(argv), "--out", str(tmp_path / "s.csv")]
        monkeypatch.setattr(analysis, "log_binned_pdf", refused)
    else:
        monkeypatch.setattr(engine, "run", refused)
    assert_refusal(outcome(argv, tmp_path),
                   f"error: out of memory: {message or 'an allocation was refused'}\n")


def test_run_ez_model(tmp_path):
    run_dir = run_ok([
        "run", "--out", str(tmp_path),
        "--set", "model=ez", "--set", "n_agents=200",
        "--set", "total_steps=5000", "--set", "ez_a=0.05",
    ])
    summary = json.loads(Path(run_dir, "summary.json").read_text())
    assert summary["decision_counts"]["fragment"] == 0


def test_memory_alone_sets_the_history_length(tmp_path):
    """The default history is `memory_m` ones, echoed as resolved (an
    explicit history of another length is refused: `REFUSALS`)."""
    run_dir = run_ok(tiny_run_args(tmp_path / "runs", extra=["--set", "memory_m=3"]))
    config_lines = Path(run_dir, "config.txt").read_text().splitlines()
    assert "initial_history = 1,1,1" in config_lines and "memory_m = 3" in config_lines


def test_resolved_config_echoes_its_dataclass():
    """Every key of the model is echoed as its dataclass resolved it, "auto"
    values included, and a key the config omits takes its default."""
    config = cli.resolve_config({"schema_version": cli.SCHEMA_VERSION, "model": "main",
                                 "memory_m": 4, "total_steps": 500})
    assert config["initial_history"] == (1, 1, 1, 1) and config["equilibration_steps"] == 50
    assert config["n_agents"] == 10_000 and "ez_a" not in config


def test_run_config_file_plus_override(tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("n_agents = 150\ntotal_steps = 3000\nx = 0.37\n# comment\n")
    run_dir = run_ok(["run", "--config", str(cfg), "--set", "x=0.45",
                      "--out", str(tmp_path / "runs")])
    echoed = Path(run_dir, "config.txt").read_text()
    assert "x = 0.45" in echoed
    assert "n_agents = 150" in echoed


# -- sweep ----------------------------------------------------------------------

def sweep_args(out, workers):
    return [
        "sweep", "--x", "0.41,0.47", "--replicates", "1",
        "--set", "seed=5", "--workers", str(workers), "--out", str(out),
        "--set", "n_agents=120", "--set", "total_steps=2000",
    ]


def test_sweep_worker_count_does_not_change_outputs(tmp_path):
    sweep1 = json.loads(Path(run_ok(sweep_args(tmp_path / "w1", 1))).read_text())
    sweep2 = json.loads(Path(run_ok(sweep_args(tmp_path / "w2", 2))).read_text())
    digests1 = {r["x"]: r["config_digest"] for r in sweep1["runs"]}
    digests2 = {r["x"]: r["config_digest"] for r in sweep2["runs"]}
    assert digests1 == digests2
    for record in sweep1["runs"]:
        assert record["status"] == "ok"
        other = os.path.join(tmp_path / "w2", os.path.basename(record["run_dir"]))
        for name in ("returns_raw.bin", "summary.json", "config.txt"):
            assert (Path(record["run_dir"], name).read_bytes()
                    == Path(other, name).read_bytes())


def test_sweep_drops_repeated_grid_values(tmp_path):
    sweep_json = run_ok(["sweep", "--x", "0.41,0.43,0.41", "--n-agents", "100,100",
                         "--set", "total_steps=1000", "--out", str(tmp_path)])
    sweep = json.loads(Path(sweep_json).read_text())
    assert sweep["x_values"] == [0.41, 0.43]
    assert sweep["n_agents_values"] == [100]
    assert [r["x"] for r in sweep["runs"]] == [0.41, 0.43]
    assert len({r["run_dir"] for r in sweep["runs"]}) == 2


@pytest.mark.parametrize("grid, cpus, pool_size", [
    (["--x", "0.41,0.47"], 8, 2), (["--replicates", "6"], 4, 4), (["--replicates", "6"], None, None),
], ids=["two_points", "six_replicates", "cpu_count_unknown"])
def test_sweep_pool_is_no_larger_than_the_grid_or_the_cpus(
        tmp_path, monkeypatch, grid, cpus, pool_size):
    """A pool can start all its workers on its first task, whatever the grid:
    `--workers 1000000` gets one per grid point, at most one per CPU, and a
    pool of one is the serial path.  The stand-in pool starts no process."""
    sizes = []

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return contextlib.nullcontext(types.SimpleNamespace(map=map))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    run_ok(["sweep", *grid, "--workers", "1000000", "--set", "n_agents=50",
            "--set", "total_steps=500", "--out", str(tmp_path)])
    assert sizes == ([] if pool_size is None else [pool_size])
    runs = json.loads((tmp_path / "sweep.json").read_text())["runs"]
    assert len(runs) == (2 if "--x" in grid else 6)
    assert all(r["status"] == "ok" for r in runs)


def test_sweep_with_a_failing_grid_point_publishes_the_others(tmp_path, capsys):
    """A grid point its config refuses is an `error` record and one stderr
    line; the other points still run and are published, and the exit is 3."""
    out = tmp_path / "runs"
    code = cli.main(["sweep", "--n-agents", "20,1", "--set", "total_steps=200", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == ("error: grid point x=0.37 n_agents=1: "
                                       "n_agents must be in [2, 16777216], got 1\n")
    ok, failed = json.loads((out / "sweep.json").read_text())["runs"]
    assert (ok["status"], ok["n_agents"], failed["status"], failed["n_agents"]) == (
        "ok", 20, "error", 1)
    assert failed["error"] == "n_agents must be in [2, 16777216], got 1"
    assert "run_dir" not in failed
    published = recorded(ok["run_dir"])
    assert {name: artifacts.sha256_file(os.path.join(ok["run_dir"], name))
            for name in published} == published
    assert sorted(os.listdir(out)) == sorted([os.path.basename(ok["run_dir"]), "sweep.json"])


def test_sweep_records_only_the_keys_the_model_reads(tmp_path):
    """An E-Z sweep labels and seeds its points without x, which that model
    never reads; a voting-model sweep keeps the seeds it always had."""
    ez_sweep = ["sweep", "--n-agents", "100,120", "--replicates", "2", "--set", "seed=5",
                "--set", "model=ez", "--set", "total_steps=1000", "--out", str(tmp_path / "ez")]
    sweep = json.loads(Path(run_ok(ez_sweep)).read_text())
    assert "x_values" not in sweep and sweep["n_agents_values"] == [100, 120]
    assert [(r["n_agents"], r["seed"]) for r in sweep["runs"]] == [
        (n, cli_sweep.derive_seed(5, None, n, rep)) for n in (100, 120) for rep in range(2)]
    assert all(set(r) == {"n_agents", "seed", "status", "run_dir", "config_digest"}
               for r in sweep["runs"])
    assert len({r["run_dir"] for r in sweep["runs"]}) == 4
    sweep = json.loads(Path(run_ok(sweep_args(tmp_path / "main", 1))).read_text())
    assert [(r["x"], r["n_agents"], r["seed"]) for r in sweep["runs"]] == [
        (0.41, 120, 3760007070974085378), (0.47, 120, 8313916661294398450)]


def test_derived_seeds_are_stable():
    derive_seed = cli_sweep.derive_seed
    assert derive_seed(1, 0.37, 100, 0) == derive_seed(1, 0.37, 100, 0)
    assert derive_seed(1, 0.37, 100, 0) != derive_seed(1, 0.37, 100, 1)
    assert derive_seed(1, 0.37, 100, 0) != derive_seed(2, 0.37, 100, 0)


# -- meanfield -------------------------------------------------------------------

# the report: the call's settings, then every `SolverReport` field in its order
REPORT_KEYS = ["n_agents", "x", "tolerance", "iterations", "residual", "converged", "support"]


def _solved(row, root):
    """The `meanfield` contract at x = 0.41, for a row of the agent count N,
    the output path under `root` and a predicate of the counts (by size)
    and the report, or None.  Exit 0 with nothing on stderr; N lines
    `s n_s` for s = 1..N; the report, written with sorted keys and printed
    as one line in `REPORT_KEYS` order, `converged` true; and no path made
    but those two files and the directories they need."""
    n_agents, out, holds = row
    argv = ["meanfield", "--n-agents", str(n_agents), "--x", "0.41", "--out", str(root / out)]
    code, printed, err, changed = outcome(argv, root)
    assert (code, err) == (cli.EXIT_OK, "")
    rows = [line.split() for line in (root / out).read_text().splitlines()]
    assert [s for s, _ in rows] == [str(s) for s in range(1, n_agents + 1)]
    report = json.loads((root / f"{out}.report.json").read_text())
    assert list(report) == sorted(REPORT_KEYS)
    assert printed == json.dumps({key: report[key] for key in REPORT_KEYS}) + "\n"
    assert report["converged"] is True
    made = {out, f"{out}.report.json", *map(str, Path(out).parents)} - {"."}
    assert changed == sorted(made)
    assert holds is None or holds({int(s): float(n) for s, n in rows}, report)


MEANFIELD = {
    "test_meanfield_command": (6, "dist.txt", None),
    "test_meanfield_prints_the_report_it_writes": (
        400, "dist.txt", lambda counts, report: report["support"] == 256),
    "test_meanfield_creates_a_missing_out_directory": (6, "missing/dist.txt", None),
    "test_meanfield_two_agent_file": (
        2, "n2.txt", lambda counts, report: counts[2] == pytest.approx(1.0)),
}
collect(MEANFIELD, _solved)


def test_meanfield_support_over_the_limit_is_config_error(tmp_path, monkeypatch):
    """A solve whose groups reach past `config.SUPPORT_LIMIT` sizes (x near
    1/3 at a large N) is refused with one error line, exit 3 and nothing
    written, instead of running O(S^2) sweeps for hours."""
    monkeypatch.setattr(meanfield, "SUPPORT_LIMIT", 64)
    argv = ["meanfield", "--n-agents", "1000", "--x", "0.41",
            "--out", str(tmp_path / "m" / "dist.txt")]
    assert_refusal(outcome(argv, tmp_path), "support limit of 64")


def test_meanfield_nonconvergence_exit_code(tmp_path):
    out = tmp_path / "bad.txt"
    code = cli.main(["meanfield", "--n-agents", "20", "--x", "0.41",
                     "--tolerance", "1e-30", "--max-iterations", "3", "--out", str(out)])
    assert code == cli.EXIT_NONCONVERGENCE
    assert out.exists()  # partial result still written


# -- the console entry -------------------------------------------------------------

def cli_process(args, cwd, **kwargs):
    """`python -m herdvote.cli ARGS`, the console entry, in a fresh process
    whose output to a file or pipe is block-buffered."""
    env = fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "herdvote.cli", *args], env=env, cwd=cwd,
                            **kwargs)


@pytest.mark.parametrize("command", ["meanfield", "run", "analyze"])
def test_console_entry_flushes_redirected_output(tmp_path, command):
    """The process ends without interpreter teardown once `main` returns.  A
    stdout redirected to a file is block-buffered, and still gets its whole
    last line."""
    args = {"meanfield": ["meanfield", "--n-agents", "400", "--x", "0.41", "--out", "dist.txt"],
            "run": tiny_run_args("runs"),
            "analyze": ["analyze", "RUN_DIR", "--r-min", "1", "--out", "s.csv"]}[command]
    if command == "analyze":
        args[1] = run_ok(tiny_run_args(tmp_path / "runs"))
    with open(tmp_path / "stdout.txt", "w") as out:
        proc = cli_process(args, tmp_path, stdout=out, stderr=subprocess.PIPE, text=True)
        _, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    text = (tmp_path / "stdout.txt").read_text()
    assert text.endswith("\n")
    last = text.splitlines()[-1]
    if command == "meanfield":
        assert json.loads(last)["converged"] is True
    elif command == "run":
        assert (tmp_path / last / "manifest.json").is_file()
    else:
        assert last == "s.csv" and (tmp_path / last).is_file()


@pytest.mark.parametrize("args, code", [
    (["meanfield", "--n-agents", "20", "--x", "0.41", "--out", "d.txt"], cli.EXIT_OK),
    (["meanfield", "--n-agents", "20"], cli.EXIT_USAGE),  # argparse exits inside `main`
    (["meanfield", "--n-agents", "1", "--x", "0.41", "--out", "d.txt"], cli.EXIT_CONFIG),
    (["meanfield", "--n-agents", "20", "--x", "0.41", "--tolerance", "1e-30",
      "--max-iterations", "3", "--out", "d.txt"], cli.EXIT_NONCONVERGENCE),
], ids=["ok", "usage", "config", "nonconvergence"])
def test_console_entry_exit_codes(tmp_path, args, code):
    proc = cli_process(args, tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == code, err
    assert "Traceback" not in err
    if code in (cli.EXIT_OK, cli.EXIT_NONCONVERGENCE):
        assert json.loads(out.splitlines()[-1])["iterations"] > 0


def _session_of(stat_path: Path):
    try:
        fields = stat_path.read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):  # the process ended while it was read
        return None
    return int(fields[3])  # state, ppid, pgrp, session


def test_parallel_sweep_leaves_no_process(tmp_path):
    """A parallel sweep joins its pool before the process ends: once the
    command has exited, no process of its session is left.  A worker left
    behind would also hold the pipes open, and `communicate` would wait."""
    args = ["sweep", "--x", "0.41,0.45", "--set", "n_agents=200", "--set", "total_steps=4000",
            "--workers", "2", "--out", "runs"]
    proc = cli_process(args, tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, start_new_session=True)
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    assert json.loads((tmp_path / out.strip()).read_text())["runs"][1]["status"] == "ok"
    if os.path.isdir("/proc"):
        left = [p.parent.name for p in Path("/proc").glob("[0-9]*/stat")
                if _session_of(p) == proc.pid]
        assert left == []


# -- analyze ----------------------------------------------------------------------

def test_analyze_run_dir(tmp_path):
    run_dir = run_ok(tiny_run_args(tmp_path / "runs"))
    out_csv = tmp_path / "summary.csv"
    argv = ["analyze", run_dir, "--tail-threshold", "5", "--r-min", "1", "--out", str(out_csv)]
    run_ok(argv)
    assert (tmp_path / "summary.csv").exists()
    for name in ("ccdf.csv", "pdf.csv", "fit.csv"):
        assert os.path.exists(os.path.join(run_dir, "analysis", name))
    first = out_csv.read_bytes()
    run_ok(argv)
    assert out_csv.read_bytes() == first  # deterministic re-analysis
    written = [out_csv] + [os.path.join(run_dir, "analysis", name)
                           for name in ("ccdf.csv", "pdf.csv", "fit.csv")]
    for path in written:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows
        for row in rows:
            for cell in row:
                float(cell)  # a NumPy repr such as "np.float64(0.5)" fails here


def test_analyze_gives_every_run_dir_its_own_row(tmp_path, monkeypatch):
    # same x and seed: the seed label repeats too, so the third row names its directory
    monkeypatch.chdir(tmp_path)
    run_dirs = [run_ok(["run", "--out", "runs",
                        "--set", f"n_agents={n_agents}", "--set", "total_steps=4000",
                        "--set", "x=0.41", "--set", "seed=1"]) for n_agents in (200, 300, 400)]
    out_csv = tmp_path / "summary.csv"
    # a directory named again, with a trailing slash, as an absolute path or
    # through a symlink, is analysed once, under the first spelling
    os.symlink(tmp_path / "runs", tmp_path / "link")
    repeats = [run_dirs[1] + os.sep, str(tmp_path / run_dirs[2]),
               os.path.join("link", os.path.basename(run_dirs[0]))]
    run_ok(["analyze", *run_dirs, *repeats, "--r-min", "1",
            "--tail-threshold", "5", "--out", str(out_csv)])
    with open(out_csv, newline="") as fh:
        labels = [row[0] for row in list(csv.reader(fh))[1:]]
    assert labels == ["0.41", "0.41 seed=1", f"0.41 {run_dirs[2]}"]


def _series_bytes(values) -> bytes:
    return len(values).to_bytes(8, "little") + np.array(values, dtype="<i8").tobytes()


def write_analyze_inputs(run_dir, series_bytes, config_text=None):
    """A run directory holding only what `analyze` reads: config.txt (the
    given text, else a resolved config's), a returns_raw.bin of the given
    bytes and a manifest of their digests.  Returns `run_dir`."""
    run_dir.mkdir()
    if config_text is None:
        config_text = cli.config_text(cli.resolve_config(cli.apply_overrides(
            cli.default_config(), ["n_agents=100", "total_steps=1000"])))
    files = {"config.txt": config_text.encode(), "returns_raw.bin": series_bytes}
    for name, data in files.items():
        (run_dir / name).write_bytes(data)
    digests = {name: artifacts.sha256_file(run_dir / name) for name in files}
    (run_dir / "manifest.json").write_text(json.dumps({"artifacts": digests}))
    return run_dir


def test_analyze_reads_the_series_without_copying_it(tmp_path):
    run_dir = tmp_path / "run"
    rng = np.random.default_rng(5)
    write_analyze_inputs(run_dir, _series_bytes(rng.integers(-100, 101, 10**6)))
    read = (run_dir / "returns_raw.bin").stat().st_size
    tracemalloc.start()
    try:
        _, returns = cli_analyze._read_run_returns(str(run_dir), 2)
        hist = analysis.histogram(returns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hist.length == 5 * 10**5
    assert peak - read < 1 << 20, f"{peak - read} bytes traced beyond the {read} read"


def test_analyze_takes_a_return_of_the_whole_population(tmp_path):
    """A return of exactly the run's 100 agents, of either sign, is no
    damage; one past it is (`test_analyze_refuses_a_return_beyond_the_population`)."""
    write_analyze_inputs(tmp_path / "run", _series_bytes([100, -100, 7] * 50))
    run_ok(["analyze", str(tmp_path / "run"), "--r-min", "1", "--out", str(tmp_path / "s.csv")])


@pytest.mark.parametrize("name", ["returns_raw.bin", "manifest.json"],
                         ids=["bin_deleted", "manifest_deleted"])
def test_rerun_restores_a_deleted_artifact(tmp_path, capsys, name):
    """A deleted file is not damage: the rerun completes the directory with
    the recorded digests (damage is `test_rerun_damaged_artifact_is_named`)."""
    run_dir = Path(run_ok(tiny_run_args(tmp_path)))
    digests = recorded(run_dir)
    os.remove(run_dir / name)
    run_ok(tiny_run_args(tmp_path))
    assert capsys.readouterr().err == ""
    assert recorded(run_dir) == digests
    assert {p.name: artifacts.sha256_file(p) for p in run_dir.iterdir()
            if p.name != "manifest.json"} == digests


def test_analyze_summary_fits_at_the_largest_own_cutoff(tmp_path):
    """Without --r-min the summary equals `cutoff_scan`'s own KS scan, byte
    for byte, on desk-sized populations (strategy, iid and E-Z runs)."""
    run_dirs = []
    for extra in ([], ["vote_mode=iid"], ["model=ez"]):
        argv = ["run", "--out", str(tmp_path / "runs"), "--set", "n_agents=10000",
                "--set", "total_steps=100000", "--set", "seed=7"]
        run_dirs.append(run_ok(argv + [a for kv in extra for a in ("--set", kv)]))
    out_csv = tmp_path / "summary.csv"
    run_ok(["analyze", *run_dirs, "--out", str(out_csv)])

    returns_by_x = {}
    for run_dir in run_dirs:
        config, returns = cli_analyze._read_run_returns(run_dir, 2)
        returns_by_x[f"{config['model']} {config.get('vote_mode')}"] = returns
    rows = analysis.cutoff_scan(returns_by_x)  # r_min=None: its own scan
    own = []
    for run_dir in run_dirs:
        with open(os.path.join(run_dir, "analysis", "fit.csv"), newline="") as fh:
            (fit,) = csv.DictReader(fh)
        own.append(float(fit["r_min"]))
    assert len(set(own)) == 3  # the summary's cutoff is the largest of three
    assert all(r["r_min"] == max(own) for r in rows)
    expected = tmp_path / "expected.csv"
    cli._write_csv(
        expected,
        ("x", "alpha_density", "alpha_cumulative", "r_min", "stderr", "n_tail",
         "tail_threshold", "tail_mass"),
        ((x, r["alpha_density"], r["alpha_cumulative"], r["r_min"], r["stderr"],
          r["n_tail"], r["tail_threshold"], r["tail_mass"])
         for x, r in zip(("0.37", "0.37 seed=7", "ez a=0.01"), rows)),
    )
    assert out_csv.read_bytes() == expected.read_bytes()


def test_analyze_fits_a_run_without_any_tail_at_a_fixed_cutoff(tmp_path):
    """The run that `test_analyze_without_any_tail_fit_asks_for_r_min` is
    refused on, analysed at --r-min 1: its fit is left empty."""
    run_dir = run_ok(["run", "--out", str(tmp_path / "runs"), "--set", "n_agents=300",
                      "--set", "total_steps=100"])
    out_csv = tmp_path / "summary.csv"
    run_ok(["analyze", run_dir, "--r-min", "1", "--out", str(out_csv)])
    with open(out_csv, newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["r_min"] == "1.0" and row["alpha_density"] == "nan"


# -- refusals of files on disk -------------------------------------------------------

def _truncate(path):
    path.write_bytes(path.read_bytes()[:-5])


def _flip_one_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x10
    path.write_bytes(bytes(data))


def _unparseable(path):
    path.write_text('{"artifacts": {')


def _without_series_entry(path):
    manifest = json.loads(path.read_text())
    del manifest["artifacts"]["returns_raw.bin"]
    path.write_text(json.dumps(manifest))


def _edit_seed(path):
    text = path.read_text()
    assert "seed = 3\n" in text
    path.write_text(text.replace("seed = 3\n", "seed = 4\n"))


def _artifacts_list(path):
    manifest = json.loads(path.read_text())
    manifest["artifacts"] = list(manifest["artifacts"].items())
    path.write_text(json.dumps(manifest))


def a_run(*overrides):
    """A layout: the `tiny_run_args` run under `runs/`, with these overrides."""
    return lambda root: run_ok(tiny_run_args(root / "runs", [
        arg for kv in overrides for arg in ("--set", kv)]))


def inputs(series_bytes, config_text=None):
    """A layout: `write_analyze_inputs` of these bytes, as `run/`."""
    return lambda root: write_analyze_inputs(root / "run", series_bytes, config_text)


RERUN = " ".join(tiny_run_args("{tmp}/runs"))
ANALYZE = "analyze {run0} --out {tmp}/summary.csv"
SCHEMA_2_CONFIG = (
    "schema_version = 2\nmodel = main\nn_agents = 100\nx = 0.41\ntotal_steps = 1000\n"
    "equilibration_steps = 100\nmemory_m = 2\ninitial_history = 1,1\nvote_mode = strategy\n"
    "seed = 1\nrescale_k = 2\nez_a = 0.01\n")

# Every refusal of what a command finds on disk: damaged, blocked or
# unusable run directories.  An entry is a test (see `collect`).  A row is
# the directories to lay out, each a layout (`a_run`, `inputs`) that
# "{run0}", "{run1}", ... then name; the damage to do after them, a path
# and a function of it, or None; an argv; and a fragment of the error line.
# "{tmp}" stands for the test's directory.
FILE_REFUSALS = {
    # nothing is written, also for an intact run directory named before the
    # damaged one; a changed file is named by its digest
    "test_analyze_damaged_artifact_is_named": {
        id: ((a_run("seed=5"), a_run()), (f"{{run1}}/{name}", damage),
             "analyze {run0} {run1} --r-min 1 --out {tmp}/summary.csv",
             f"{what} {{run1}}/{name}{why}")
        for id, name, damage, what, why in (
            ("bin_truncated", "returns_raw.bin", _truncate, "damaged artifact", ": sha256"),
            ("bin_byte_flipped", "returns_raw.bin", _flip_one_byte, "damaged artifact", ": sha256"),
            ("bin_deleted", "returns_raw.bin", os.remove, "cannot read", ""),
            ("manifest_deleted", "manifest.json", os.remove, "cannot read", ""),
            ("manifest_unparseable", "manifest.json", _unparseable, "damaged manifest", ""),
            ("manifest_without_entry", "manifest.json", _without_series_entry, "damaged manifest",
             ": no entry 'returns_raw.bin'"),
            ("config_edited", "config.txt", _edit_seed, "damaged artifact", ": sha256"),
        )
    },
    # a rerun into a damaged directory leaves it as it was; a deleted file
    # is not damage (`test_rerun_restores_a_deleted_artifact`)
    "test_rerun_damaged_artifact_is_named": {
        id: ((a_run(),), (f"{{run0}}/{name}", damage), RERUN, f"{{run0}}/{name}")
        for id, name, damage in (
            ("bin_truncated", "returns_raw.bin", _truncate),
            ("summary_byte_flipped", "summary.json", _flip_one_byte),
            ("manifest_unparseable", "manifest.json", _unparseable),
            ("manifest_json_list", "manifest.json", lambda path: path.write_text(
                json.dumps(list(json.loads(path.read_text())["artifacts"].items())))),
            ("manifest_artifacts_list", "manifest.json", _artifacts_list),
            ("manifest_deeply_nested", "manifest.json",
             lambda path: path.write_text("[" * 100_000)),
        )
    },
    # a file named like a run's analysis directory, a directory named like
    # the summary or like one of a run's analysis files, or a summary named
    # like a run's `fit.csv`, named before anything is written
    "test_analyze_output_blocked_is_config_error": {
        id: ((a_run(),), damage, f"analyze {{run0}} --r-min 1 --out {out}", blocked)
        for id, damage, out, blocked in (
            ("analysis", ("{run0}/analysis", lambda path: path.write_text("")),
             "{tmp}/summary.csv", "{run0}/analysis"),
            ("summary.csv", ("{tmp}/summary.csv", os.makedirs), "{tmp}/summary.csv",
             "{tmp}/summary.csv"),
            ("fit.csv", ("{run0}/analysis/fit.csv", os.makedirs), "{tmp}/summary.csv",
             "{run0}/analysis/fit.csv"),
            ("summary_is_fit.csv", None, "{run0}/analysis/fit.csv", "{run0}/analysis/fit.csv"),
        )
    },
    "test_analyze_no_trades_is_explicit": (
        (inputs((100).to_bytes(8, "little") + bytes(8 * 100)),), None, ANALYZE,
        "no trades in {run0}"),
    # named before any window is summed; the run records 2000 - 200 steps
    "test_analyze_window_longer_than_the_series_is_config_error": (
        (a_run("total_steps=2000", "x=0.37"),), None,
        "analyze {run0} --rescale-k 100000 --out {tmp}/summary.csv",
        "--rescale-k 100000 is longer than the 1800 returns recorded in {run0}"),
    # a count that disagrees with the values, recorded as such in the manifest
    "test_analyze_damaged_returns_file": (
        (inputs((4).to_bytes(8, "little") + np.array([3, -1, 2], dtype="<i8").tobytes()),),
        None, ANALYZE,
        "damaged artifact {run0}/returns_raw.bin"),
    # more than the run's 100 agents, of either sign, marks a damaged series
    "test_analyze_refuses_a_return_beyond_the_population": {
        id: ((inputs(_series_bytes(values * 50)),), None,
             "analyze {run0} --r-min 1 --out {tmp}/s.csv", "a return exceeds the run's 100 agents")
        for id, values in (("values1-False", [101, 3]), ("values2-False", [-101, 3]),
                           ("values3-False", [2**40]), ("values4-False", [-2**63]))
    },
    # intact by its manifest, refused by its schema_version: not as damage,
    # and not by the rescale_k key it holds
    "test_analyze_refuses_a_run_of_another_schema": (
        (inputs((3).to_bytes(8, "little") + bytes(range(1, 25)), SCHEMA_2_CONFIG),), None,
        ANALYZE, f"error: {{run0}}/config.txt: schema_version 2 is not supported "
                 f"(supported: {cli.SCHEMA_VERSION})\n"),
    # nothing is written: neither the summary nor the run's analysis directory
    "test_analyze_without_any_tail_fit_asks_for_r_min": (
        (a_run("n_agents=300", "total_steps=100", "x=0.37", "seed=1"),), None, ANALYZE,
        "pass --r-min"),
}


def _file_refused(row, root):
    """A `FILE_REFUSALS` row: its directories laid out under `root` and its
    damage done, its argv is refused with its fragment."""
    layout, damage, args, fragment = row
    names = {"tmp": root, **{f"run{i}": lay_out(root) for i, lay_out in enumerate(layout)}}
    if damage is not None:
        path, harm = damage
        harm(Path(path.format(**names)))
    assert_refusal(outcome([arg.format(**names) for arg in args.split()], root),
                   fragment.format(**names))


collect(FILE_REFUSALS, _file_refused)


# -- arbitrary input ---------------------------------------------------------------

ARBITRARY_INPUT = {
    "config.txt": st.binary(),
    "manifest.json": st.binary(),
    "returns_raw.bin": st.binary() | st.lists(st.integers(-2**63, 2**63 - 1)).map(_series_bytes),
    "--set": st.text() | st.builds("{}={}".format, st.sampled_from(list(cli._CONFIG_SPEC)),
                                   st.text()),
}


@pytest.mark.parametrize("target", list(ARBITRARY_INPUT))
@settings(max_examples=40)
@given(data=st.data())
def test_arbitrary_input_exits_0_or_3_and_leaves_no_partial_output(target, data):
    """Arbitrary bytes as a config file, a run's manifest or series, and
    arbitrary `--set` text: the command returns 0 or 3 (an exception here is
    a traceback at the command line), exit 3 is a refusal, and every run a
    success leaves verifies."""
    payload = data.draw(ARBITRARY_INPUT[target])
    tiny = ["--set", "n_agents=50", "--set", "total_steps=300"]  # the fuzzed value comes first
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        runs = str(root / "runs")
        summary = ["--r-min", "1", "--out", str(root / "summary.csv")]
        if target == "config.txt":
            (root / "in.cfg").write_bytes(payload)
            argvs = [["run", "--config", str(root / "in.cfg"), *tiny, "--out", runs]]
        elif target == "--set":
            argvs = [["run", f"--set={payload}", *tiny, "--out", runs]]
        elif target == "manifest.json":
            run_dir = run_ok(["run", *tiny, "--out", runs])
            Path(run_dir, "manifest.json").write_bytes(payload)
            argvs = [["run", *tiny, "--out", runs], ["analyze", run_dir, *summary]]
        else:
            write_analyze_inputs(root / "run", payload)
            argvs = [["analyze", str(root / "run"), *summary]]
        for argv in argvs:
            result = outcome(argv, root)
            if result[0] == cli.EXIT_CONFIG:
                assert_refusal(result)
                continue
            assert result[0] == cli.EXIT_OK
            assert not any(".staging-" in path for path in result[3])
            for manifest in Path(root).rglob("manifest.json"):
                artifacts.read_verified(manifest.parent, list(recorded(manifest.parent)))
            if argv[0] == "analyze":
                assert (root / "summary.csv").exists()
            if target == "returns_raw.bin":  # only a series a run could write: |r| <= N
                series = read_returns_binary(root / "run" / "returns_raw.bin")
                assert all(-100 <= v <= 100 for v in series)


# -- validate ----------------------------------------------------------------------

def test_validate_passes():
    out = run_ok(["validate"])
    assert "PASS" in out and "FAIL" not in out


def test_validate_negative_control(capsys, monkeypatch):
    """The checks fail when the fragmentation probability is off by 1e-6."""
    exact = voting.fragmentation_probability
    monkeypatch.setattr(voting, "fragmentation_probability",
                        lambda s, x: min(1.0, exact(s, x) + 1e-6))
    code = cli.main(["validate"])
    assert code == cli.EXIT_VALIDATION
    assert "FAIL" in capsys.readouterr().out


# -- the settable surface ----------------------------------------------------------

SURFACE = {
    "herdvote": ["--help", "--version", "-h"],
    "run": ["--config", "--help", "--out", "--set", "-h"],
    "sweep": ["--config", "--help", "--n-agents", "--out", "--replicates",
              "--set", "--workers", "--x", "-h"],
    "meanfield": ["--help", "--max-iterations", "--n-agents", "--out", "--tolerance", "--x", "-h"],
    "analyze": ["--bins-per-decade", "--help", "--out", "--r-min", "--rescale-k",
                "--tail-threshold", "-h", "run_dirs"],
    "validate": ["--help", "-h"],
}
# the simulator's own parameters: a run's settings come from its config alone
SIGNATURES = {
    "SimState.__init__": ["self", "config"],
    "advance": ["state", "n_steps", "returns"],
    "init_state": ["config"],
}
# the state's fields: a field that copies the config shows here as a parameter does
SIMSTATE_SLOTS = (
    "config", "partition", "history", "step_index", "decision_counts",
    "_cdf", "_rows", "_width", "_single", "_group_votes",
    "_rng", "_ubuf", "_upicks", "_upos",
)
CONFIG_FIELDS = {
    "SimConfig": ["n_agents", "total_steps", "equilibration_steps", "seed",
                  "x", "memory", "initial_history", "vote_mode"],
    "EzConfig": ["n_agents", "total_steps", "equilibration_steps", "seed", "a"],
}


def test_settable_surface_is_pinned():
    """Every option, config field and environment read the package has.  A
    new setting edits this test, so that it shows in review."""

    def options(parser):
        return sorted(opt for action in parser._actions
                      if not isinstance(action, argparse._SubParsersAction)
                      for opt in action.option_strings or [action.dest])

    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {"herdvote": options(parser)}
    surface.update({name: options(sub) for name, sub in commands.choices.items()})
    assert surface == SURFACE

    assert {cls.__name__: [f.name for f in dataclasses.fields(cls)]
            for cls in (herdvote.SimConfig, herdvote.EzConfig)} == CONFIG_FIELDS
    assert {name: list(inspect.signature(function).parameters) for name, function in (
        ("SimState.__init__", engine.SimState.__init__), ("advance", engine.advance),
        ("init_state", engine.init_state),
    )} == SIGNATURES
    assert engine.SimState.__slots__ == SIMSTATE_SLOTS

    environment = {"environ", "environb", "getenv", "getenvb"}
    for module in sorted(Path(herdvote.__file__).parent.glob("*.py")):
        tree = ast.parse(module.read_text())
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert not names & environment, module
