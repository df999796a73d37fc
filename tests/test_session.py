"""The suite's pytest settings report every failing test.  A failing
Hypothesis test imports libcst to suggest a patch, and that import warns:
as an error, the warning once ended the session before any later test ran."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_failing_property_test_hides_no_later_failure(tmp_path):
    """Both tests of a file fail and are reported, under the repository's
    pytest settings and conftest."""
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path)
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\ndef test_property(n):\n    assert n > 0\n\n"
        "def test_plain():\n    assert False\n")
    result = subprocess.run(
        # no assertion rewriting: where bytecode is not cached, rewriting the
        # plugins' modules would take longer than the run
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--assert=plain",
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in result.stdout + result.stderr, result.stdout
    failed = [line.split(" - ")[0] for line in result.stdout.splitlines()
              if line.startswith("FAILED ")]
    assert failed == ["FAILED test_two.py::test_property", "FAILED test_two.py::test_plain"], \
        result.stdout
