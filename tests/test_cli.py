import csv
import json
import os

import numpy as np
import pytest

from herdvote import cli
from herdvote.engine import read_returns_binary, read_returns_text


def run_cli(argv):
    return cli.main(argv)


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
        "config.txt", "manifest.json", "returns_raw.bin", "returns_raw.txt",
        "returns_rescaled_k2.txt", "size_histogram.csv", "summary.json",
    ]
    manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
    assert manifest["config"]["x"] == "0.41"
    assert set(manifest["artifacts"]) == set(names) - {"manifest.json"}
    raw = read_returns_text(os.path.join(run_dir, "returns_raw.txt"))
    assert np.array_equal(raw, read_returns_binary(os.path.join(run_dir, "returns_raw.bin")))
    rescaled = read_returns_text(os.path.join(run_dir, "returns_rescaled_k2.txt"))
    assert len(rescaled) == len(raw) // 2


def test_run_twice_is_idempotent_and_deterministic(tmp_path, capsys):
    assert run_cli(tiny_run_args(tmp_path / "a")) == 0
    dir_a = capsys.readouterr().out.strip()
    assert run_cli(tiny_run_args(tmp_path / "a")) == 0
    assert capsys.readouterr().out.strip() == dir_a
    assert run_cli(tiny_run_args(tmp_path / "b")) == 0
    dir_b = capsys.readouterr().out.strip()
    man_a = json.load(open(os.path.join(dir_a, "manifest.json")))
    man_b = json.load(open(os.path.join(dir_b, "manifest.json")))
    assert man_a["artifacts"] == man_b["artifacts"]
    assert os.path.basename(dir_a) == os.path.basename(dir_b)  # digest-addressed


def test_absolute_majority_warning_lands_in_manifest(tmp_path, capsys):
    code = run_cli(tiny_run_args(tmp_path / "runs", extra=["--set", "x=0.9"]))
    assert code == 0
    out = capsys.readouterr()
    run_dir = out.out.strip()
    manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
    assert any("absolute-majority" in w for w in manifest["warnings"])
    assert "absolute-majority" in out.err


def test_run_ez_model(tmp_path, capsys):
    code = run_cli([
        "run", "--out", str(tmp_path),
        "--set", "model=ez", "--set", "n_agents=200",
        "--set", "total_steps=5000", "--set", "ez_a=0.05",
    ])
    assert code == 0
    run_dir = capsys.readouterr().out.strip()
    summary = json.load(open(os.path.join(run_dir, "summary.json")))
    assert summary["decision_counts"]["fragment"] == 0


def test_run_config_file_plus_override(tmp_path, capsys):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("n_agents = 150\ntotal_steps = 3000\nx = 0.37\n# comment\n")
    code = run_cli(["run", "--config", str(cfg), "--set", "x=0.45",
                    "--out", str(tmp_path / "runs")])
    assert code == 0
    run_dir = capsys.readouterr().out.strip()
    echoed = open(os.path.join(run_dir, "config.txt")).read()
    assert "x = 0.45" in echoed
    assert "n_agents = 150" in echoed


# -- sweep ----------------------------------------------------------------------

def sweep_args(out, workers):
    return [
        "sweep", "--x", "0.41,0.47", "--replicates", "1",
        "--master-seed", "5", "--workers", str(workers), "--out", str(out),
        "--set", "n_agents=120", "--set", "total_steps=2000",
    ]


def test_sweep_worker_count_does_not_change_outputs(tmp_path, capsys):
    assert run_cli(sweep_args(tmp_path / "w1", 1)) == 0
    assert run_cli(sweep_args(tmp_path / "w2", 2)) == 0
    capsys.readouterr()
    sweep1 = json.load(open(tmp_path / "w1" / "sweep.json"))
    sweep2 = json.load(open(tmp_path / "w2" / "sweep.json"))
    digests1 = {r["x"]: r["config_digest"] for r in sweep1["runs"]}
    digests2 = {r["x"]: r["config_digest"] for r in sweep2["runs"]}
    assert digests1 == digests2
    for record in sweep1["runs"]:
        assert record["status"] == "ok"
        other = os.path.join(tmp_path / "w2", os.path.basename(record["run_dir"]))
        for name in ("returns_raw.txt", "summary.json", "config.txt"):
            assert open(os.path.join(record["run_dir"], name)).read() == open(
                os.path.join(other, name)).read()


def test_sweep_empty_grid_rejected(tmp_path):
    code = run_cli(["sweep", "--x", "0.41", "--replicates", "0", "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("grid", [["--x", "0.41,abc"], ["--n-agents", "100,1.5"]])
def test_sweep_malformed_grid_value_rejected(tmp_path, capsys, grid):
    code = run_cli(["sweep", *grid, "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "bad grid values" in capsys.readouterr().err


def test_sweep_drops_repeated_grid_values(tmp_path, capsys):
    code = run_cli(["sweep", "--x", "0.41,0.43,0.41", "--n-agents", "100,100",
                    "--set", "total_steps=1000", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    sweep = json.load(open(tmp_path / "sweep.json"))
    assert sweep["x_values"] == [0.41, 0.43]
    assert sweep["n_agents_values"] == [100]
    assert [r["x"] for r in sweep["runs"]] == [0.41, 0.43]
    assert len({r["run_dir"] for r in sweep["runs"]}) == 2


def test_derived_seeds_are_stable():
    assert cli.derive_seed(1, 0.37, 100, 0) == cli.derive_seed(1, 0.37, 100, 0)
    assert cli.derive_seed(1, 0.37, 100, 0) != cli.derive_seed(1, 0.37, 100, 1)
    assert cli.derive_seed(1, 0.37, 100, 0) != cli.derive_seed(2, 0.37, 100, 0)


def test_workers_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.WORKERS_ENV, "2")
    code = run_cli(["sweep", "--x", "0.41", "--replicates", "1",
                    "--set", "n_agents=100", "--set", "total_steps=1000",
                    "--out", str(tmp_path / "env")])
    assert code == 0
    assert (tmp_path / "env" / "sweep.json").exists()


# -- meanfield -------------------------------------------------------------------

def test_meanfield_command(tmp_path, capsys):
    out = tmp_path / "dist.txt"
    code = run_cli(["meanfield", "--n-agents", "6", "--x", "0.41", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    report = json.load(open(str(out) + ".report.json"))
    assert report["converged"] is True


def test_meanfield_two_agent_file(tmp_path):
    out = tmp_path / "n2.txt"
    assert run_cli(["meanfield", "--n-agents", "2", "--x", "0.41", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split()[1]) == pytest.approx(1.0)


def test_meanfield_nonconvergence_exit_code(tmp_path, capsys):
    out = tmp_path / "bad.txt"
    code = run_cli(["meanfield", "--n-agents", "20", "--x", "0.41",
                    "--tolerance", "1e-30", "--max-iterations", "3", "--out", str(out)])
    assert code == cli.EXIT_NONCONVERGENCE
    assert out.exists()  # partial result still written


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


def test_analyze_missing_artifact_named(tmp_path, capsys):
    missing = tmp_path / "not_a_run"
    missing.mkdir()
    code = run_cli(["analyze", str(missing)])
    assert code == cli.EXIT_CONFIG
    assert "config.txt" in capsys.readouterr().err


def test_analyze_no_trades_is_explicit(tmp_path, capsys):
    run_dir = tmp_path / "zero"
    run_dir.mkdir()
    config = cli.resolve_config(cli.apply_overrides(
        cli.default_config(), ["n_agents=100", "total_steps=1000"]))
    (run_dir / "config.txt").write_text(cli.config_text(config))
    (run_dir / "returns_rescaled_k2.txt").write_text("0\n" * 50)
    code = run_cli(["analyze", str(run_dir)])
    assert code == cli.EXIT_CONFIG
    assert "no trades" in capsys.readouterr().err


def test_analyze_damaged_returns_file(tmp_path, capsys):
    run_dir = tmp_path / "damaged"
    run_dir.mkdir()
    config = cli.resolve_config(cli.apply_overrides(
        cli.default_config(), ["n_agents=100", "total_steps=1000"]))
    (run_dir / "config.txt").write_text(cli.config_text(config))
    (run_dir / "returns_rescaled_k2.txt").write_text("3\n-1\ngarbage\n2\n")
    code = run_cli(["analyze", str(run_dir), "--out", str(tmp_path / "summary.csv")])
    assert code == cli.EXIT_CONFIG
    assert "returns_rescaled_k2.txt" in capsys.readouterr().err


# -- validate ----------------------------------------------------------------------

def test_validate_passes(capsys):
    assert run_cli(["validate"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_validate_negative_control(capsys):
    code = run_cli(["validate", "--perturb-pfrg", "1e-6"])
    assert code == cli.EXIT_VALIDATION
    assert "FAIL" in capsys.readouterr().out
