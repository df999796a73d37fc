"""The demos run against the package as it is.

Each demo runs as its own process in a temporary directory: it must exit
0 and leave the files it writes (about 10 s for all four).  Each one is
also parsed: every `from herdvote... import name` must resolve, as must
every `import herdvote...`, so a missing name is reported by name.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WRITES = {  # the files each demo writes into its working directory (figures aside)
    "01_decision_rule.py": ["decision_probabilities.csv"],
    "02_stationary_group_sizes.py": ["stationary_n100.txt"],
    "03_return_tails.py": ["ccdf_x0.37.csv", "ccdf_x0.41.csv", "ccdf_x0.47.csv",
                           "tail_comparison.csv"],
    "04_ez_vs_voting.py": [],
}


def _resolves(module, name: str) -> bool:
    if hasattr(module, name):
        return True
    try:  # a submodule that the package does not import itself
        importlib.import_module(f"{module.__name__}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_there_are_demos():
    assert len(DEMOS) >= 4
    assert sorted(WRITES) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    for name in WRITES[demo.name]:
        assert (tmp_path / name).stat().st_size > 0, name


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_imports_resolve(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
    checked = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "herdvote":
                    importlib.import_module(alias.name)
                    checked += 1
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "herdvote":
            module = importlib.import_module(node.module)
            missing = [a.name for a in node.names if not _resolves(module, a.name)]
            assert not missing, f"{demo.name}:{node.lineno}: {node.module} has no {missing}"
            checked += len(node.names)
    assert checked, f"{demo.name} imports nothing from herdvote"
