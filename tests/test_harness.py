"""The benchmark harness still finds every name it reaches into.

`perfbench/tracer.py` wraps package callables by attribute name, and
`perfbench/setup_probe.py` builds each workload's initial state through the
package's public names.  A rename that breaks either would otherwise show
only in a traced benchmark run.  Each check runs in its own process from a
temporary directory, with bytecode writing off, so `perfbench/` is only read.
"""

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
    path = [str(ROOT / "src"), str(PERFBENCH), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, *argv], env=env, cwd=tmp_path,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
