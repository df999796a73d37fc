"""The benchmark harness still finds every name it reaches into.

`perfbench/tracer.py` wraps package callables by attribute name, and
`perfbench/setup_probe.py` builds each workload's initial state through the
package's public names.  A rename that breaks either would otherwise show
only in a traced benchmark run; so would a write that bypasses the wrapped
writers.  Each check runs in its own process from a temporary directory,
with bytecode writing off, so `perfbench/` is only read.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
PROBE = str(PERFBENCH / "setup_probe.py")


@pytest.mark.parametrize("argv", [
    ["-c", "from tracer import Tracer, install; install(Tracer())"],
    [PROBE, "1", "main", "50", "0.41", "strategy"],
    [PROBE, "1", "ez", "50"],
], ids=["tracer_install", "setup_probe_main", "setup_probe_ez"])
def test_harness_entry_points_run(tmp_path, argv):
    run_in_perfbench_env(tmp_path, argv)


def run_in_perfbench_env(cwd, argv) -> str:
    path = [str(ROOT / "src"), str(PERFBENCH), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, *argv], env=env, cwd=cwd,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_tracer_sees_every_write(tmp_path):
    """The benchmark's `cli.write_s` and `cli.bytes_written` sum the tracer's
    `write.*` spans, which wrap the writers by attribute name.  Every file
    that `run`, `analyze` and `meanfield` write goes through one of them,
    with its bytes counted, so the benchmark does not lose a write."""
    def traced_writes(name, *cli_args):
        trace_path = tmp_path / f"{name}.json"
        stdout = run_in_perfbench_env(tmp_path, [str(PERFBENCH / "tracer.py"), str(trace_path),
                                                 *cli_args])
        spans = json.loads(trace_path.read_text())["spans"]
        writes = {(s["name"], s["file"]): s["bytes"]
                  for s in spans if s["name"].startswith("write.")}
        assert all(size > 0 for size in writes.values()), writes
        return stdout, set(writes)

    stdout, run = traced_writes("run", "run", "--out", "runs", "--set", "n_agents=200",
                                "--set", "total_steps=4000", "--set", "x=0.41")
    _, analyze = traced_writes("analyze", "analyze", stdout.split()[-1], "--r-min", "1",
                               "--out", "summary.csv")
    _, solve = traced_writes("meanfield", "meanfield", "--n-agents", "20", "--x", "0.41",
                             "--out", "dist.txt")
    assert run == {("write.write_text", "config.txt"),
                   ("write.write_returns_binary", "returns_raw.bin"),
                   ("write.write_histogram", "size_histogram.csv"),
                   ("write.write_json", "summary.json"), ("write.write_json", "manifest.json")}
    assert analyze == {("write.write_csv", name)
                       for name in ("ccdf.csv", "pdf.csv", "fit.csv", "summary.csv")}
    assert solve == {("write.write_distribution", "dist.txt"),
                     ("write.write_json", "dist.txt.report.json")}
