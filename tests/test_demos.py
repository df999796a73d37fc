"""The demos import only names that exist.

The demos are too slow to run in the suite (03 simulates at desk scale), so
each one is parsed, not run: every `from herdvote... import name` must
resolve, as must every `import herdvote...`.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


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
