"""The repository's pytest settings report a failing property test like any other.

`pyproject.toml` turns every warning into an error.  Hypothesis' failure
report raises a DeprecationWarning inside a pytest hook, which under that
setting would abort the run after the first failing property test.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_a_failing_property_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_one_of_each.py").write_text(TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_one_of_each.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout.splitlines()[-1], run.stdout
