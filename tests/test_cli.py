import argparse
import ast
import concurrent.futures
import contextlib
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import herdvote
from herdvote import analysis, artifacts, cli, cli_analyze, cli_sweep, engine, meanfield
from herdvote.series import read_returns_binary


def run_cli(argv):
    return cli.main(argv)


def sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def tiny_run_args(out, extra=()):
    return [
        "run", "--out", str(out),
        "--set", "n_agents=200", "--set", "total_steps=4000",
        "--set", "x=0.41", "--set", "seed=3",
        *extra,
    ]


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


@settings(max_examples=200, deadline=None)
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


@pytest.mark.parametrize("override", list(PINNED_ARTIFACTS))
def test_run_artifacts_are_pinned(tmp_path, capsys, override):
    argv = ["run", "--out", str(tmp_path), "--set", "n_agents=300", "--set", "total_steps=30000",
            "--set", "x=0.41", "--set", "seed=1", "--set", override]
    assert run_cli(argv) == 0
    run_dir = capsys.readouterr().out.strip()
    manifest = json.loads(Path(run_dir, "manifest.json").read_text())
    assert manifest["artifacts"] == PINNED_ARTIFACTS[override]


def test_desk_iid_run_past_the_exact_sizes_is_pinned(tmp_path, capsys):
    """The desk iid config (10^4 agents, 2x10^5 steps, x = 0.41) at seed
    900003 trades groups above 64 agents (its largest |r| is 67), so its
    returns depend on the summed decision CDFs that `voting.fill_cdfs` fills
    above the exact counts; the pinned 300-agent runs never reach them."""
    argv = ["run", "--out", str(tmp_path)]
    for item in ("n_agents=10000", "x=0.41", "vote_mode=iid", "total_steps=200000",
                 "seed=900003"):
        argv += ["--set", item]
    assert run_cli(argv) == 0
    path = os.path.join(capsys.readouterr().out.strip(), "returns_raw.bin")
    assert int(np.abs(read_returns_binary(path)).max()) == 67
    assert sha256_of(path) == "ccb96d979d331f87174d67af639fade974c4ffd564149c8df3ae6f14d472195f"


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


def _pinned_run(tmp_path, capsys, override) -> str:
    argv = ["run", "--out", str(tmp_path), "--set", "n_agents=300", "--set", "total_steps=30000",
            "--set", "x=0.41", "--set", "seed=1", "--set", override]
    assert run_cli(argv) == 0
    return capsys.readouterr().out.strip()


def _analysis_digests(run_dir, summary) -> dict:
    digests = {name: sha256_of(os.path.join(run_dir, "analysis", name))
               for name in ("ccdf.csv", "pdf.csv", "fit.csv")}
    return {**digests, "summary": sha256_of(summary)}


@pytest.mark.parametrize("override, use_raw", list(PINNED_ANALYSIS))
def test_analyze_outputs_are_pinned(tmp_path, capsys, override, use_raw):
    """The pinned bytes, written in this process and again by `analyze` in a
    process whose NumPy may use no AVX-512 kernel, as on an AVX2-only host.
    NumPy's AVX-512 power once rounded some log-bin edges differently from
    the C library's pow."""
    run_dir = _pinned_run(tmp_path, capsys, override)
    summary = tmp_path / "summary.csv"
    rescale = ["--rescale-k", "1"] if use_raw else []
    assert run_cli(["analyze", run_dir, "--out", str(summary), *rescale]) == 0
    assert _analysis_digests(run_dir, summary) == PINNED_ANALYSIS[override, use_raw]

    summary = tmp_path / "summary_no_avx512.csv"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4")
    result = subprocess.run(
        [sys.executable, "-m", "herdvote.cli", "analyze", run_dir, "--out", str(summary), *rescale],
        env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert _analysis_digests(run_dir, summary) == PINNED_ANALYSIS[override, use_raw]


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
    with pytest.raises(cli.ConfigError):
        cli.apply_overrides(cli.default_config(), ["x:0.45"])
    with pytest.raises(cli.ConfigError):
        cli.apply_overrides(cli.default_config(), ["bogus=1"])


def test_missing_config_file_is_config_error(tmp_path, capsys):
    code = run_cli(["run", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["directory", "not_utf8", "key_twice"])
def test_unreadable_config_file_is_config_error(tmp_path, capsys, case):
    """Exit 3 with one error line naming the file, before any run."""
    cfg = tmp_path / "base.cfg"
    if case == "directory":
        cfg.mkdir()
    else:
        cfg.write_bytes({"not_utf8": b"n_agents = 150\nx = 0.4\xff\n",
                         "key_twice": b"x = 0.41\n# a comment\nseed = 2\nx = 0.45\n"}[case])
    code = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "runs")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1 and str(cfg) in err
    expected = {"directory": "Is a directory", "not_utf8": "not UTF-8 text",
                "key_twice": "line 4: 'x' is set twice, on lines 1 and 4"}[case]
    assert expected in err
    assert not (tmp_path / "runs").exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["no-such-command"])
    assert excinfo.value.code == cli.EXIT_USAGE


# -- run ----------------------------------------------------------------------

def test_run_writes_all_artifacts(tmp_path, capsys):
    assert run_cli(tiny_run_args(tmp_path / "runs")) == 0
    run_dir = capsys.readouterr().out.strip()
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


def test_run_twice_is_idempotent_and_deterministic(tmp_path, capsys):
    assert run_cli(tiny_run_args(tmp_path / "a")) == 0
    dir_a = capsys.readouterr().out.strip()
    assert run_cli(tiny_run_args(tmp_path / "a")) == 0
    assert capsys.readouterr().out.strip() == dir_a
    assert run_cli(tiny_run_args(tmp_path / "b")) == 0
    dir_b = capsys.readouterr().out.strip()
    man_a = json.loads(Path(dir_a, "manifest.json").read_text())
    man_b = json.loads(Path(dir_b, "manifest.json").read_text())
    assert man_a["artifacts"] == man_b["artifacts"]
    assert os.path.basename(dir_a) == os.path.basename(dir_b)  # digest-addressed


def test_rerun_leaves_manifest_byte_identical(tmp_path, capsys):
    assert run_cli(tiny_run_args(tmp_path)) == 0
    run_dir = capsys.readouterr().out.strip()
    manifest = os.path.join(run_dir, "manifest.json")
    with open(manifest, "rb") as fh:
        before = fh.read()
    assert run_cli(tiny_run_args(tmp_path)) == 0
    with open(manifest, "rb") as fh:
        assert fh.read() == before
    # a manifest that no longer matches its verified artifacts is refused
    with open(manifest, "w") as fh:
        fh.write('{"artifacts": {}}')
    assert run_cli(tiny_run_args(tmp_path)) == cli.EXIT_CONFIG
    assert "manifest.json" in capsys.readouterr().err


@pytest.mark.parametrize("model, unread", [
    ("ez", ["x=0.45", "vote_mode=iid"]),
    ("main", ["ez_a=0.02"]),
])
def test_keys_the_model_does_not_read_name_no_second_directory(tmp_path, capsys, model, unread):
    """A key the model does not read is dropped: the run that sets it is the
    run that does not, verified in place with its manifest left as it was."""
    assert run_cli(tiny_run_args(tmp_path, extra=["--set", f"model={model}"])) == 0
    run_dir = capsys.readouterr().out.strip()
    manifest = Path(run_dir) / "manifest.json"
    before = manifest.read_bytes()
    extra = ["--set", f"model={model}", *(arg for kv in unread for arg in ("--set", kv))]
    assert run_cli(tiny_run_args(tmp_path, extra=extra)) == 0
    assert capsys.readouterr().out.strip() == run_dir
    assert os.listdir(tmp_path) == [os.path.basename(run_dir)]
    assert manifest.read_bytes() == before


def tree(root) -> dict:
    """Every path under `root`, with each file's bytes (None for a directory)."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in Path(root).rglob("*")}


@pytest.mark.parametrize("command, module, writer, crash_on", [
    ("run", engine, "write_returns_binary", "returns_raw.bin"),
    ("analyze", cli, "_write_csv", "summary.csv"),
    ("meanfield", cli, "_write_json", "dist.txt.report.json"),
    ("sweep", cli, "_write_json", "sweep.json"),
], ids=["run", "analyze", "meanfield", "sweep"])
def test_crash_mid_write_leaves_no_partial_artifact(tmp_path, capsys, monkeypatch,
                                                    command, module, writer, crash_on):
    """A writer that dies part-way through one file publishes none of the
    command's files: every output path, and the directories made for them,
    are left as they were, with no staging left behind.  A rerun then
    writes what a clean run does."""
    if command == "analyze":
        assert run_cli(tiny_run_args(tmp_path / "runs")) == 0
        run_dir = Path(capsys.readouterr().out.strip())
    argv = {
        "run": tiny_run_args(tmp_path / "a"),
        "analyze": ["analyze", "RUN_DIR", "--r-min", "1", "--out", str(tmp_path / "summary.csv")],
        "meanfield": ["meanfield", "--n-agents", "6", "--x", "0.41",
                      "--out", str(tmp_path / "m" / "dist.txt")],
        "sweep": sweep_args(tmp_path / "s", 1),
    }[command]
    if command == "analyze":
        argv[1] = str(run_dir)
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
        run_cli(argv)
    monkeypatch.undo()
    after = tree(tmp_path)
    assert not any(".staging-" in path for path in after)
    if command == "sweep":  # each grid point's run is whole, published before sweep.json
        runs = list((tmp_path / "s").iterdir())
        assert len(runs) == 2 and all((p / "manifest.json").exists() for p in runs)
    else:
        assert after == before

    assert run_cli(argv) == 0
    capsys.readouterr()
    if command == "run":
        (run_dir,) = (tmp_path / "a").iterdir()
        assert run_cli(tiny_run_args(tmp_path / "b")) == 0
        fresh_dir = capsys.readouterr().out.strip()
        assert tree(run_dir).keys() == tree(fresh_dir).keys()
        man_a = json.loads(Path(run_dir, "manifest.json").read_text())
        man_b = json.loads(Path(fresh_dir, "manifest.json").read_text())
        assert man_a["artifacts"] == man_b["artifacts"]
    else:
        written = {"analyze": ["summary.csv", "runs/*/analysis/fit.csv"],
                   "meanfield": ["m/dist.txt", "m/dist.txt.report.json"],
                   "sweep": ["s/sweep.json"]}[command]
        assert all(list(tmp_path.glob(pattern)) for pattern in written)
        assert not any(".staging-" in path for path in tree(tmp_path))


def test_scipy_stays_off_the_run_and_analyze_path(tmp_path):
    """No command loads SciPy, and only a parallel sweep loads multiprocessing."""
    out = str(tmp_path / "runs")
    script = f"""
import contextlib, io, sys
from herdvote import cli, voting
assert "scipy" not in sys.modules, "import herdvote.cli"
assert "concurrent.futures.process" not in sys.modules, "import herdvote.cli"
run_dirs = []
for extra in ([], ["--set", "model=ez"], ["--set", "vote_mode=iid"]):
    argv = ["run", "--out", {out!r}, "--set", "n_agents=300", "--set", "total_steps=3000", *extra]
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        assert cli.main(argv) == 0
    run_dirs.append(printed.getvalue().strip())
# np.unique without return_counts imports numpy.ma: 10-13 ms per process
assert "numpy.ma" not in sys.modules, "run"
assert cli.main(["analyze", run_dirs[0], "--out", {str(tmp_path / "summary.csv")!r}]) == 0
assert "numpy.ma" not in sys.modules, "analyze"
argv = ["meanfield", "--n-agents", "400", "--x", "0.41", "--out", {str(tmp_path / "dist.txt")!r}]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(argv) == 0
    assert cli.main(["validate"]) == 0
assert voting.fragmentation_probability(10_000, 0.41) == 1.0 - voting.consensus_probability(10_000, 0.41)
assert "scipy" not in sys.modules
"""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", script], env=env,
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
def test_each_command_loads_only_its_layers(tmp_path, capsys, command):
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
        assert run_cli(run_args) == 0
        argv[1] = capsys.readouterr().out.strip()
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
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", script, json.dumps(argv)], env=env,
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


def test_python_m_compiles_the_cli_once(tmp_path):
    """`python -m herdvote.cli` runs `cli` as `__main__`; a command body that
    imports `herdvote.cli` finds that module, so no package file is
    compiled twice."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-v", "-m", "herdvote.cli", "meanfield", "--n-agents", "20",
         "--x", "0.41", "--out", str(tmp_path / "dist.txt")],
        env=env, capture_output=True, text=True, cwd=tmp_path)
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
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    with pytest.raises(AttributeError, match="no_such_name"):
        herdvote.no_such_name


def test_absolute_majority_warning_lands_in_manifest(tmp_path, capsys):
    code = run_cli(tiny_run_args(tmp_path / "runs", extra=["--set", "x=0.9"]))
    assert code == 0
    out = capsys.readouterr()
    run_dir = out.out.strip()
    manifest = json.loads(Path(run_dir, "manifest.json").read_text())
    assert any("absolute-majority" in w for w in manifest["warnings"])
    assert "absolute-majority" in out.err


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
def test_refused_allocation_is_config_error(tmp_path, capsys, monkeypatch, command, message):
    """An allocation the machine refuses, such as the series of a 10^12-step
    run, ends in one error line and exit 3, with nothing published, in
    `run` and in `analyze`.  The layer raises here: an allocation that size
    would start for real on a host that overcommits."""

    def refused(*_args, **_kwargs):
        raise MemoryError(message)

    argv = tiny_run_args(tmp_path / "runs")
    if command == "analyze":
        assert run_cli(argv) == 0
        argv = ["analyze", capsys.readouterr().out.strip(), "--out", str(tmp_path / "s.csv")]
        monkeypatch.setattr(analysis, "log_binned_pdf", refused)
    else:
        monkeypatch.setattr(engine, "run", refused)
    before = tree(tmp_path)
    assert run_cli(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: out of memory: {message or 'an allocation was refused'}\n"
    assert tree(tmp_path) == before


def test_run_ez_model(tmp_path, capsys):
    code = run_cli([
        "run", "--out", str(tmp_path),
        "--set", "model=ez", "--set", "n_agents=200",
        "--set", "total_steps=5000", "--set", "ez_a=0.05",
    ])
    assert code == 0
    run_dir = capsys.readouterr().out.strip()
    summary = json.loads(Path(run_dir, "summary.json").read_text())
    assert summary["decision_counts"]["fragment"] == 0


@pytest.mark.parametrize("command", ["run", "run_ez", "meanfield"])
def test_population_over_the_agent_limit_is_config_error(tmp_path, capsys, monkeypatch, command):
    """More than 2**24 agents is refused before the state or the solver's
    arrays are allocated: one error line, exit 3, nothing written."""
    monkeypatch.setattr(engine, "run", lambda *_: pytest.fail("simulated"))
    monkeypatch.setattr(cli, "ez_run", lambda *_: pytest.fail("simulated"))
    monkeypatch.setattr(meanfield, "_size_rates", lambda *_: pytest.fail("allocated the solver"))
    argv = {
        "run": tiny_run_args(tmp_path / "runs", extra=["--set", f"n_agents={2**24 + 1}"]),
        "run_ez": tiny_run_args(tmp_path / "runs", extra=["--set", "model=ez",
                                                          "--set", "n_agents=200000000"]),
        "meanfield": ["meanfield", "--n-agents", "100000000", "--x", "0.41",
                      "--out", str(tmp_path / "dist.txt")],
    }[command]
    assert run_cli(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert "n_agents" in captured.err and str(2**24) in captured.err
    assert list(tmp_path.iterdir()) == []
    # the limit itself is accepted: building a config allocates nothing
    herdvote.EzConfig(n_agents=2**24)


def test_memory_over_table_budget_is_config_error(tmp_path, capsys):
    code = run_cli(tiny_run_args(tmp_path / "runs", extra=["--set", "memory_m=40"]))
    assert code == cli.EXIT_CONFIG
    assert "budget" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "runs")


def test_memory_alone_sets_the_history_length(tmp_path, capsys):
    """The default history is `memory_m` ones, echoed as resolved; an
    explicit history of another length is still refused."""
    assert run_cli(tiny_run_args(tmp_path / "runs", extra=["--set", "memory_m=3"])) == 0
    run_dir = capsys.readouterr().out.strip()
    config_lines = Path(run_dir, "config.txt").read_text().splitlines()
    assert "initial_history = 1,1,1" in config_lines and "memory_m = 3" in config_lines

    code = run_cli(tiny_run_args(tmp_path / "other", extra=[
        "--set", "memory_m=3", "--set", "initial_history=1,1"]))
    assert code == cli.EXIT_CONFIG
    assert "initial_history length 2 != memory 3" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "other")


def test_resolved_config_echoes_its_dataclass():
    """Every key of the model is echoed as its dataclass resolved it, "auto"
    values included, and a key the config omits takes its default."""
    config = cli.resolve_config({"schema_version": cli.SCHEMA_VERSION, "model": "main",
                                 "memory_m": 4, "total_steps": 500})
    assert config["initial_history"] == (1, 1, 1, 1) and config["equilibration_steps"] == 50
    assert config["n_agents"] == 10_000 and "ez_a" not in config


@pytest.mark.parametrize("model", ["main", "ez"])
def test_negative_seed_is_config_error(tmp_path, capsys, model):
    code = run_cli(tiny_run_args(tmp_path / "runs", extra=["--set", f"model={model}",
                                                           "--set", "seed=-1"]))
    assert code == cli.EXIT_CONFIG
    assert "seed" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "runs")


def test_rescale_k_is_an_unknown_key(tmp_path, capsys):
    """The window length is `analyze --rescale-k`; no simulation reads it."""
    code = run_cli(tiny_run_args(tmp_path / "runs", extra=["--set", "rescale_k=2"]))
    assert code == cli.EXIT_CONFIG
    assert "unknown config key 'rescale_k'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "runs")


def test_bad_vote_mode_names_the_allowed_values(tmp_path, capsys):
    code = run_cli(tiny_run_args(tmp_path / "runs", extra=["--set", "vote_mode=majority"]))
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "vote_mode" in err and "'strategy'" in err and "'iid'" in err
    assert not os.path.exists(tmp_path / "runs")


def test_malformed_history_is_config_error(tmp_path, capsys):
    code = run_cli(tiny_run_args(tmp_path / "runs", extra=["--set", "initial_history=1,x"]))
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: initial_history must be comma-separated bits, got '1,x'\n")
    assert not os.path.exists(tmp_path / "runs")


def test_run_config_file_plus_override(tmp_path, capsys):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("n_agents = 150\ntotal_steps = 3000\nx = 0.37\n# comment\n")
    code = run_cli(["run", "--config", str(cfg), "--set", "x=0.45",
                    "--out", str(tmp_path / "runs")])
    assert code == 0
    run_dir = capsys.readouterr().out.strip()
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


def test_sweep_worker_count_does_not_change_outputs(tmp_path, capsys):
    assert run_cli(sweep_args(tmp_path / "w1", 1)) == 0
    assert run_cli(sweep_args(tmp_path / "w2", 2)) == 0
    capsys.readouterr()
    sweep1 = json.loads((tmp_path / "w1" / "sweep.json").read_text())
    sweep2 = json.loads((tmp_path / "w2" / "sweep.json").read_text())
    digests1 = {r["x"]: r["config_digest"] for r in sweep1["runs"]}
    digests2 = {r["x"]: r["config_digest"] for r in sweep2["runs"]}
    assert digests1 == digests2
    for record in sweep1["runs"]:
        assert record["status"] == "ok"
        other = os.path.join(tmp_path / "w2", os.path.basename(record["run_dir"]))
        for name in ("returns_raw.bin", "summary.json", "config.txt"):
            assert (Path(record["run_dir"], name).read_bytes()
                    == Path(other, name).read_bytes())


def test_sweep_empty_grid_rejected(tmp_path):
    code = run_cli(["sweep", "--x", "0.41", "--replicates", "0", "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("grid", [["--x", "0.41,abc"], ["--n-agents", "100,1.5"]])
def test_sweep_malformed_grid_value_rejected(tmp_path, capsys, grid):
    code = run_cli(["sweep", *grid, "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "bad grid values" in capsys.readouterr().err


@pytest.mark.parametrize("x", ["nan,0.41", "0.41,inf", "0.41,-inf"])
def test_sweep_non_finite_grid_value_rejected(tmp_path, capsys, x):
    """A non-finite x is refused before any grid point runs: no run
    directory and no sweep.json, whose x_values it would make invalid JSON."""
    code = run_cli(["sweep", "--x", x, "--set", "n_agents=50", "--set", "total_steps=1000",
                    "--out", str(tmp_path / "runs")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: bad grid values") and len(err.splitlines()) == 1
    assert not (tmp_path / "runs").exists()


def test_sweep_drops_repeated_grid_values(tmp_path, capsys):
    code = run_cli(["sweep", "--x", "0.41,0.43,0.41", "--n-agents", "100,100",
                    "--set", "total_steps=1000", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    sweep = json.loads((tmp_path / "sweep.json").read_text())
    assert sweep["x_values"] == [0.41, 0.43]
    assert sweep["n_agents_values"] == [100]
    assert [r["x"] for r in sweep["runs"]] == [0.41, 0.43]
    assert len({r["run_dir"] for r in sweep["runs"]}) == 2


def test_sweep_over_x_of_the_ez_model_is_config_error(tmp_path, capsys):
    """E-Z has no x: a grid over it would run one simulation per point."""
    code = run_cli(["sweep", "--x", "0.41,0.45", "--set", "model=ez", "--out", str(tmp_path / "runs")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--x" in err
    assert not os.path.exists(tmp_path / "runs")


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_workers_below_one_rejected(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setattr(engine, "run", lambda *_: pytest.fail("ran a grid point"))
    code = run_cli([*sweep_args(tmp_path / "runs", 1), "--workers", workers])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--workers" in err and workers in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grid, cpus, pool_size", [
    (["--x", "0.41,0.47"], 8, 2), (["--replicates", "6"], 4, 4), (["--replicates", "6"], None, None),
], ids=["two_points", "six_replicates", "cpu_count_unknown"])
def test_sweep_pool_is_no_larger_than_the_grid_or_the_cpus(
        tmp_path, capsys, monkeypatch, grid, cpus, pool_size):
    """A pool can start all its workers on its first task, whatever the grid:
    `--workers 1000000` gets one per grid point, at most one per CPU, and a
    pool of one is the serial path.  The stand-in pool starts no process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *_exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    code = run_cli(["sweep", *grid, "--workers", "1000000", "--set", "n_agents=50",
                    "--set", "total_steps=500", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    assert sizes == ([] if pool_size is None else [pool_size])
    runs = json.loads((tmp_path / "sweep.json").read_text())["runs"]
    assert len(runs) == (2 if "--x" in grid else 6)
    assert all(r["status"] == "ok" for r in runs)


def test_sweep_with_a_failing_grid_point_publishes_the_others(tmp_path, capsys):
    """A grid point its config refuses is an `error` record and one stderr
    line; the other points still run and are published, and the exit is 3."""
    out = tmp_path / "runs"
    code = run_cli(["sweep", "--n-agents", "20,1", "--set", "total_steps=200", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == ("error: grid point x=0.37 n_agents=1: "
                                       "n_agents must be in [2, 16777216], got 1\n")
    ok, failed = json.loads((out / "sweep.json").read_text())["runs"]
    assert (ok["status"], ok["n_agents"], failed["status"], failed["n_agents"]) == (
        "ok", 20, "error", 1)
    assert failed["error"] == "n_agents must be in [2, 16777216], got 1"
    assert "run_dir" not in failed
    published = json.loads(Path(ok["run_dir"], "manifest.json").read_text())["artifacts"]
    assert {name: sha256_of(os.path.join(ok["run_dir"], name)) for name in published} == published
    assert sorted(os.listdir(out)) == sorted([os.path.basename(ok["run_dir"]), "sweep.json"])


def test_sweep_records_only_the_keys_the_model_reads(tmp_path, capsys):
    """An E-Z sweep labels and seeds its points without x, which that model
    never reads; a voting-model sweep keeps the seeds it always had."""
    ez_sweep = ["sweep", "--n-agents", "100,120", "--replicates", "2", "--set", "seed=5",
                "--set", "model=ez", "--set", "total_steps=1000", "--out", str(tmp_path / "ez")]
    assert run_cli(ez_sweep) == 0
    assert run_cli(sweep_args(tmp_path / "main", 1)) == 0
    capsys.readouterr()
    sweep = json.loads((tmp_path / "ez" / "sweep.json").read_text())
    assert "x_values" not in sweep and sweep["n_agents_values"] == [100, 120]
    assert [(r["n_agents"], r["seed"]) for r in sweep["runs"]] == [
        (n, cli_sweep.derive_seed(5, None, n, rep)) for n in (100, 120) for rep in range(2)]
    assert all(set(r) == {"n_agents", "seed", "status", "run_dir", "config_digest"}
               for r in sweep["runs"])
    assert len({r["run_dir"] for r in sweep["runs"]}) == 4
    sweep = json.loads((tmp_path / "main" / "sweep.json").read_text())
    assert [(r["x"], r["n_agents"], r["seed"]) for r in sweep["runs"]] == [
        (0.41, 120, 3760007070974085378), (0.47, 120, 8313916661294398450)]


def test_derived_seeds_are_stable():
    derive_seed = cli_sweep.derive_seed
    assert derive_seed(1, 0.37, 100, 0) == derive_seed(1, 0.37, 100, 0)
    assert derive_seed(1, 0.37, 100, 0) != derive_seed(1, 0.37, 100, 1)
    assert derive_seed(1, 0.37, 100, 0) != derive_seed(2, 0.37, 100, 0)


@pytest.mark.parametrize("command", ["run", "sweep", "meanfield", "analyze",
                                     "meanfield_report", "sweep_json"])
def test_out_under_an_existing_file_is_config_error(tmp_path, monkeypatch, capsys, command):
    """Refused before any simulation, solve or analysis output, with the path
    named, and nothing left behind: a file where an output directory must
    go, or a directory where `meanfield`'s report or `sweep.json` must go."""
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    if command == "analyze":
        assert run_cli(tiny_run_args(tmp_path / "runs")) == 0
        run_dir = capsys.readouterr().out.strip()

    def no_work(*_args, **_kwargs):
        raise AssertionError("worked although the output cannot be written")

    monkeypatch.setattr(engine, "run", no_work)
    monkeypatch.setattr(meanfield, "solve_stationary", no_work)
    argv = {
        "run": tiny_run_args(blocker),
        "sweep": sweep_args(blocker, 1),
        "meanfield": ["meanfield", "--n-agents", "6", "--x", "0.41",
                      "--out", str(blocker / "dist.txt")],
        "analyze": ["analyze", "RUN_DIR", "--r-min", "1", "--out", str(blocker / "s.csv")],
        "meanfield_report": ["meanfield", "--n-agents", "6", "--x", "0.41",
                             "--out", str(tmp_path / "m" / "d.txt")],
        "sweep_json": sweep_args(tmp_path / "s", 1),
    }[command]
    if command == "analyze":
        argv[1] = run_dir
    if command in ("meanfield_report", "sweep_json"):
        blocker = tmp_path / {"meanfield_report": "m/d.txt.report.json",
                              "sweep_json": "s/sweep.json"}[command]
        blocker.mkdir(parents=True)
    before = tree(tmp_path)
    assert run_cli(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1 and str(blocker) in err
    assert tree(tmp_path) == before


@pytest.mark.parametrize("blocked", ["analysis", "summary.csv", "fit.csv", "summary_is_fit.csv"])
def test_analyze_output_blocked_is_config_error(tmp_path, capsys, blocked):
    """A file named like a run's analysis directory, a directory named like
    the summary or like one of a run's analysis files, or a summary named
    like a run's `fit.csv` is refused with the path named before anything
    is written."""
    assert run_cli(tiny_run_args(tmp_path / "runs")) == 0
    run_dir = capsys.readouterr().out.strip()
    analysis_dir = Path(run_dir) / "analysis"
    out_csv = tmp_path / "summary.csv"
    blocked_path = {"analysis": analysis_dir, "summary.csv": out_csv,
                    "fit.csv": analysis_dir / "fit.csv",
                    "summary_is_fit.csv": analysis_dir / "fit.csv"}[blocked]
    if blocked == "analysis":
        analysis_dir.write_text("")
    elif blocked == "summary_is_fit.csv":
        out_csv = blocked_path
    else:
        blocked_path.mkdir(parents=True)
    before = tree(tmp_path)
    code = run_cli(["analyze", run_dir, "--r-min", "1", "--out", str(out_csv)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1 and str(blocked_path) in err
    assert tree(tmp_path) == before


# -- meanfield -------------------------------------------------------------------

@pytest.mark.parametrize("flag, value", [
    ("--n-agents", "1"), ("--x", "0.3"), ("--x", "1.5"), ("--tolerance", "0"),
    ("--tolerance", "nan"), ("--tolerance", "inf"), ("--max-iterations", "0"),
])
def test_meanfield_bad_input_is_config_error(tmp_path, capsys, flag, value):
    out = tmp_path / "dist.txt"
    args = {"--n-agents": "6", "--x": "0.41", flag: value, "--out": str(out)}
    code = run_cli(["meanfield", *(item for pair in args.items() for item in pair)])
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and value in captured.err.splitlines()[0]
    assert list(tmp_path.iterdir()) == []


def test_meanfield_command(tmp_path, capsys):
    out = tmp_path / "dist.txt"
    code = run_cli(["meanfield", "--n-agents", "6", "--x", "0.41", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    report = json.loads(Path(f"{out}.report.json").read_text())
    assert report["converged"] is True


def test_meanfield_prints_the_report_it_writes(tmp_path, capsys):
    """The printed line is the written report: the call's settings, then
    every `SolverReport` field in its order.  The file sorts its keys."""
    out = tmp_path / "dist.txt"
    assert run_cli(["meanfield", "--n-agents", "400", "--x", "0.41", "--out", str(out)]) == 0
    report = json.loads(Path(f"{out}.report.json").read_text())
    keys = ["n_agents", "x", "tolerance", "iterations", "residual", "converged", "support"]
    assert sorted(report) == sorted(keys)
    assert capsys.readouterr().out == json.dumps({key: report[key] for key in keys}) + "\n"
    assert report["support"] == 256 and report["converged"] is True


def test_meanfield_creates_a_missing_out_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "dist.txt"
    assert run_cli(["meanfield", "--n-agents", "6", "--x", "0.41", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 6
    assert json.loads(Path(f"{out}.report.json").read_text())["converged"] is True


def test_meanfield_two_agent_file(tmp_path):
    out = tmp_path / "n2.txt"
    assert run_cli(["meanfield", "--n-agents", "2", "--x", "0.41", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split()[1]) == pytest.approx(1.0)


def test_meanfield_support_over_the_limit_is_config_error(tmp_path, capsys, monkeypatch):
    """A solve whose groups reach past `config.SUPPORT_LIMIT` sizes (x near
    1/3 at a large N) is refused with one error line, exit 3 and nothing
    written, instead of running O(S^2) sweeps for hours."""
    monkeypatch.setattr(meanfield, "SUPPORT_LIMIT", 64)
    code = run_cli(["meanfield", "--n-agents", "1000", "--x", "0.41",
                    "--out", str(tmp_path / "m" / "dist.txt")])
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert "support limit of 64" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_meanfield_nonconvergence_exit_code(tmp_path, capsys):
    out = tmp_path / "bad.txt"
    code = run_cli(["meanfield", "--n-agents", "20", "--x", "0.41",
                    "--tolerance", "1e-30", "--max-iterations", "3", "--out", str(out)])
    assert code == cli.EXIT_NONCONVERGENCE
    assert out.exists()  # partial result still written


# -- the console entry -------------------------------------------------------------

def cli_process(args, cwd, **kwargs):
    """`python -m herdvote.cli ARGS`, the console entry, in a fresh process
    whose output to a file or pipe is block-buffered."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "herdvote.cli", *args], env=env, cwd=cwd,
                            **kwargs)


@pytest.mark.parametrize("command", ["meanfield", "run"])
def test_console_entry_flushes_redirected_output(tmp_path, command):
    """The process ends without interpreter teardown once `main` returns.  A
    stdout redirected to a file is block-buffered, and still gets its whole
    last line."""
    args = {"meanfield": ["meanfield", "--n-agents", "400", "--x", "0.41", "--out", "dist.txt"],
            "run": tiny_run_args("runs")}[command]
    with open(tmp_path / "stdout.txt", "w") as out:
        proc = cli_process(args, tmp_path, stdout=out, stderr=subprocess.PIPE, text=True)
        _, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    text = (tmp_path / "stdout.txt").read_text()
    assert text.endswith("\n")
    last = text.splitlines()[-1]
    if command == "meanfield":
        assert json.loads(last)["converged"] is True
    else:
        assert (tmp_path / last / "manifest.json").is_file()


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

def test_analyze_run_dir(tmp_path, capsys):
    assert run_cli(tiny_run_args(tmp_path / "runs")) == 0
    run_dir = capsys.readouterr().out.strip()
    out_csv = tmp_path / "summary.csv"
    code = run_cli(["analyze", run_dir, "--tail-threshold", "5",
                    "--r-min", "1", "--out", str(out_csv)])
    assert code == 0
    assert (tmp_path / "summary.csv").exists()
    for name in ("ccdf.csv", "pdf.csv", "fit.csv"):
        assert os.path.exists(os.path.join(run_dir, "analysis", name))
    first = out_csv.read_bytes()
    assert run_cli(["analyze", run_dir, "--tail-threshold", "5",
                    "--r-min", "1", "--out", str(out_csv)]) == 0
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


def test_analyze_gives_every_run_dir_its_own_row(tmp_path, capsys, monkeypatch):
    # same x and seed: the seed label repeats too, so the third row names its directory
    monkeypatch.chdir(tmp_path)
    run_dirs = []
    for n_agents in (200, 300, 400):
        assert run_cli(["run", "--out", "runs",
                        "--set", f"n_agents={n_agents}", "--set", "total_steps=4000",
                        "--set", "x=0.41", "--set", "seed=1"]) == 0
        run_dirs.append(capsys.readouterr().out.strip())
    out_csv = tmp_path / "summary.csv"
    # a directory named again, with a trailing slash, as an absolute path or
    # through a symlink, is analysed once, under the first spelling
    os.symlink(tmp_path / "runs", tmp_path / "link")
    repeats = [run_dirs[1] + os.sep, str(tmp_path / run_dirs[2]),
               os.path.join("link", os.path.basename(run_dirs[0]))]
    code = run_cli(["analyze", *run_dirs, *repeats, "--r-min", "1",
                    "--tail-threshold", "5", "--out", str(out_csv)])
    assert code == 0
    with open(out_csv, newline="") as fh:
        labels = [row[0] for row in list(csv.reader(fh))[1:]]
    assert labels == ["0.41", "0.41 seed=1", f"0.41 {run_dirs[2]}"]


def test_analyze_missing_artifact_named(tmp_path, capsys):
    missing = tmp_path / "not_a_run"
    missing.mkdir()
    code = run_cli(["analyze", str(missing)])
    assert code == cli.EXIT_CONFIG
    assert "config.txt" in capsys.readouterr().err


def write_analyze_inputs(run_dir, series_bytes, config_text=None):
    """A run directory holding only what `analyze` reads: config.txt (the
    given text, else a resolved config's), a returns_raw.bin of the given
    bytes and a manifest of their digests."""
    run_dir.mkdir()
    if config_text is None:
        config_text = cli.config_text(cli.resolve_config(cli.apply_overrides(
            cli.default_config(), ["n_agents=100", "total_steps=1000"])))
    files = {"config.txt": config_text.encode(), "returns_raw.bin": series_bytes}
    for name, data in files.items():
        (run_dir / name).write_bytes(data)
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    (run_dir / "manifest.json").write_text(json.dumps({"artifacts": digests}))


def test_analyze_no_trades_is_explicit(tmp_path, capsys):
    run_dir = tmp_path / "zero"
    write_analyze_inputs(run_dir, (100).to_bytes(8, "little") + bytes(8 * 100))
    code = run_cli(["analyze", str(run_dir)])
    assert code == cli.EXIT_CONFIG
    assert "no trades" in capsys.readouterr().err


def test_analyze_window_longer_than_the_series_is_config_error(tmp_path, capsys):
    """A window longer than the recorded series is named.  `analyze` runs in
    a process of its own, so a crash there fails this test alone."""
    assert run_cli(["run", "--out", str(tmp_path / "runs"), "--set", "n_agents=200",
                    "--set", "total_steps=2000", "--set", "seed=3"]) == 0
    run_dir = capsys.readouterr().out.strip()
    with open(os.path.join(run_dir, "summary.json")) as fh:
        recorded = json.load(fh)["recorded_steps"]
    proc = cli_process(["analyze", run_dir, "--rescale-k", "100000", "--out", "summary.csv"],
                       tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == cli.EXIT_CONFIG, err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "--rescale-k 100000" in err and run_dir in err and f" {recorded} " in err
    assert not (tmp_path / "summary.csv").exists()


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


def test_analyze_damaged_returns_file(tmp_path, capsys):
    """A series file whose count disagrees with its values, recorded as such
    in the manifest, is refused by the reader."""
    run_dir = tmp_path / "damaged"
    values = np.array([3, -1, 2], dtype="<i8").tobytes()
    write_analyze_inputs(run_dir, (4).to_bytes(8, "little") + values)
    code = run_cli(["analyze", str(run_dir), "--out", str(tmp_path / "summary.csv")])
    assert code == cli.EXIT_CONFIG
    assert "returns_raw.bin" in capsys.readouterr().err


@pytest.mark.parametrize("values, ok", [
    ([100, -100, 7], True), ([101, 3], False), ([-101, 3], False), ([2**40], False),
    ([-2**63], False),
])
def test_analyze_refuses_a_return_beyond_the_population(tmp_path, capsys, values, ok):
    """A return of more than the run's 100 agents, of either sign, marks a
    damaged series; one of exactly 100 does not."""
    run_dir = tmp_path / "run"
    write_analyze_inputs(run_dir, _series_bytes(values * 50))
    code = run_cli(["analyze", str(run_dir), "--r-min", "1", "--out", str(tmp_path / "s.csv")])
    err = capsys.readouterr().err
    if ok:
        assert code == 0, err
    else:
        assert code == cli.EXIT_CONFIG
        assert "a return exceeds the run's 100 agents" in err


def test_analyze_refuses_a_run_of_another_schema(tmp_path, capsys):
    """A schema-2 run directory, intact by its manifest, is refused by its
    schema_version: not as damage, and not by the rescale_k key it holds."""
    run_dir = tmp_path / "schema2"
    config = ("schema_version = 2\nmodel = main\nn_agents = 100\nx = 0.41\n"
              "total_steps = 1000\nequilibration_steps = 100\nmemory_m = 2\n"
              "initial_history = 1,1\nvote_mode = strategy\nseed = 1\nrescale_k = 2\n"
              "ez_a = 0.01\n")
    write_analyze_inputs(run_dir, (3).to_bytes(8, "little") + bytes(range(1, 25)), config)
    out_csv = tmp_path / "summary.csv"
    assert run_cli(["analyze", str(run_dir), "--out", str(out_csv)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert str(run_dir / "config.txt") in err
    assert f"schema_version 2 is not supported (supported: {cli.SCHEMA_VERSION})" in err
    assert "rescale_k" not in err and "damaged" not in err
    assert not out_csv.exists() and not (run_dir / "analysis").exists()


@pytest.mark.parametrize("option, value", [
    ("--r-min", "0"), ("--r-min", "-5"), ("--r-min", "nan"), ("--r-min", "inf"),
    ("--tail-threshold", "0"), ("--tail-threshold", "nan"),
    ("--bins-per-decade", "0"), ("--bins-per-decade", "1000000000001"), ("--rescale-k", "0"),
])
def test_analyze_bad_option_is_config_error(tmp_path, capsys, option, value):
    """Refused with the option named before any run directory is read (the
    one named here does not exist)."""
    out_csv = tmp_path / "summary.csv"
    code = run_cli(["analyze", str(tmp_path / "no_run"), option, value, "--out", str(out_csv)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert f"{option} must be" in err and value in err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("name, damage", [
    ("returns_raw.bin", _truncate),
    ("returns_raw.bin", _flip_one_byte),
    ("returns_raw.bin", os.remove),
    ("manifest.json", os.remove),
    ("manifest.json", _unparseable),
    ("manifest.json", _without_series_entry),
    ("config.txt", _edit_seed),
], ids=["bin_truncated", "bin_byte_flipped", "bin_deleted", "manifest_deleted",
        "manifest_unparseable", "manifest_without_entry", "config_edited"])
def test_analyze_damaged_artifact_is_named(tmp_path, capsys, name, damage):
    """Exit 3 with one error line naming the file; nothing is written, also
    for an intact run directory named before the damaged one."""
    assert run_cli(tiny_run_args(tmp_path / "runs", extra=["--set", "seed=5"])) == 0
    intact = capsys.readouterr().out.strip()
    assert run_cli(tiny_run_args(tmp_path / "runs")) == 0
    damaged = capsys.readouterr().out.strip()
    damage(Path(damaged) / name)
    out_csv = tmp_path / "summary.csv"
    code = run_cli(["analyze", intact, damaged, "--r-min", "1", "--out", str(out_csv)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert os.path.join(damaged, name) in err
    assert not out_csv.exists()
    for run_dir in (intact, damaged):
        assert not os.path.exists(os.path.join(run_dir, "analysis"))


def _json_list(path):
    path.write_text(json.dumps(list(json.loads(path.read_text())["artifacts"].items())))


def _artifacts_list(path):
    manifest = json.loads(path.read_text())
    manifest["artifacts"] = list(manifest["artifacts"].items())
    path.write_text(json.dumps(manifest))


def _deeply_nested(path):
    path.write_text("[" * 100_000)


@pytest.mark.parametrize("name, damage", [
    ("returns_raw.bin", _truncate),
    ("summary.json", _flip_one_byte),
    ("manifest.json", _unparseable),
    ("manifest.json", _json_list),
    ("manifest.json", _artifacts_list),
    ("manifest.json", _deeply_nested),
    ("returns_raw.bin", os.remove),
    ("manifest.json", os.remove),
], ids=["bin_truncated", "summary_byte_flipped", "manifest_unparseable", "manifest_json_list",
        "manifest_artifacts_list", "manifest_deeply_nested", "bin_deleted", "manifest_deleted"])
def test_rerun_damaged_artifact_is_named(tmp_path, capsys, name, damage):
    """A rerun into a damaged directory exits 3 with one error line naming
    the file and leaves the directory as it was; a deleted file is not
    damage: the rerun completes the directory with the recorded digests."""
    assert run_cli(tiny_run_args(tmp_path)) == 0
    run_dir = Path(capsys.readouterr().out.strip())
    recorded = json.loads((run_dir / "manifest.json").read_text())["artifacts"]
    damage(run_dir / name)
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    code = run_cli(tiny_run_args(tmp_path))
    err = capsys.readouterr().err
    if damage is os.remove:
        assert code == 0 and err == ""
        restored = json.loads((run_dir / "manifest.json").read_text())["artifacts"]
        assert restored == recorded
        assert {p.name: sha256_of(p) for p in run_dir.iterdir()
                if p.name != "manifest.json"} == recorded
    else:
        assert code == cli.EXIT_CONFIG
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert str(run_dir / name) in err
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


def test_analyze_summary_fits_at_the_largest_own_cutoff(tmp_path, capsys):
    """Without --r-min the summary equals `cutoff_scan`'s own KS scan, byte
    for byte, on desk-sized populations (strategy, iid and E-Z runs)."""
    run_dirs = []
    for extra in ([], ["vote_mode=iid"], ["model=ez"]):
        argv = ["run", "--out", str(tmp_path / "runs"), "--set", "n_agents=10000",
                "--set", "total_steps=100000", "--set", "seed=7"]
        assert run_cli(argv + [a for kv in extra for a in ("--set", kv)]) == 0
        run_dirs.append(capsys.readouterr().out.strip())
    out_csv = tmp_path / "summary.csv"
    assert run_cli(["analyze", *run_dirs, "--out", str(out_csv)]) == 0

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


def test_analyze_without_any_tail_fit_asks_for_r_min(tmp_path, capsys):
    assert run_cli(["run", "--out", str(tmp_path / "runs"), "--set", "n_agents=300",
                    "--set", "total_steps=100"]) == 0
    run_dir = capsys.readouterr().out.strip()
    out_csv = tmp_path / "summary.csv"
    code = run_cli(["analyze", run_dir, "--out", str(out_csv)])
    assert code == cli.EXIT_CONFIG
    assert "--r-min" in capsys.readouterr().err
    # nothing is written: neither the summary nor the run's analysis directory
    assert not out_csv.exists()
    assert not os.path.exists(os.path.join(run_dir, "analysis"))
    # with a fixed cutoff the same run is analysed, its fit left empty
    assert run_cli(["analyze", run_dir, "--r-min", "1", "--out", str(out_csv)]) == 0
    with open(out_csv, newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["r_min"] == "1.0" and row["alpha_density"] == "nan"


# -- arbitrary input ---------------------------------------------------------------

def _series_bytes(values) -> bytes:
    return len(values).to_bytes(8, "little") + np.array(values, dtype="<i8").tobytes()


ARBITRARY_INPUT = {
    "config.txt": st.binary(),
    "manifest.json": st.binary(),
    "returns_raw.bin": st.binary() | st.lists(st.integers(-2**63, 2**63 - 1)).map(_series_bytes),
    "--set": st.text() | st.builds("{}={}".format, st.sampled_from(list(cli._CONFIG_SPEC)),
                                   st.text()),
}


@pytest.mark.parametrize("target", list(ARBITRARY_INPUT))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_arbitrary_input_exits_0_or_3_and_leaves_no_partial_output(target, data):
    """Arbitrary bytes as a config file, a run's manifest or series, and
    arbitrary `--set` text: the command returns 0 or 3 (an exception here is
    a traceback at the command line), exit 3 prints one error line and
    changes no file, and every run a success leaves verifies."""
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
            with contextlib.redirect_stdout(io.StringIO()) as printed:
                assert cli.main(["run", *tiny, "--out", runs]) == 0
            run_dir = printed.getvalue().strip()
            Path(run_dir, "manifest.json").write_bytes(payload)
            argvs = [["run", *tiny, "--out", runs], ["analyze", run_dir, *summary]]
        else:
            write_analyze_inputs(root / "run", payload)
            argvs = [["analyze", str(root / "run"), *summary]]
        for argv in argvs:
            before = tree(root)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(argv)
            after = tree(root)
            assert not any(".staging-" in path for path in after)
            if code == cli.EXIT_CONFIG:
                assert err.getvalue().startswith("error:")
                assert len(err.getvalue().splitlines()) == 1
                assert after == before
            else:
                assert code == cli.EXIT_OK
                for manifest in Path(root).rglob("manifest.json"):
                    artifacts.read_verified(manifest.parent, list(artifacts.recorded_digests(
                        str(manifest))))
                if argv[0] == "analyze":
                    assert (root / "summary.csv").exists()
                if target == "returns_raw.bin":  # only a series a run could write: |r| <= N
                    series = read_returns_binary(root / "run" / "returns_raw.bin")
                    assert all(-100 <= v <= 100 for v in series)


# -- validate ----------------------------------------------------------------------

def test_validate_passes(capsys):
    assert run_cli(["validate"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_validate_negative_control(capsys, monkeypatch):
    """The checks fail when the fragmentation probability is off by 1e-6."""
    from herdvote import voting

    exact = voting.fragmentation_probability
    monkeypatch.setattr(voting, "fragmentation_probability",
                        lambda s, x: min(1.0, exact(s, x) + 1e-6))
    code = run_cli(["validate"])
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
