"""The pytest settings of pyproject.toml: a failing property test is reported, not fatal."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

CASE = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_fails_and_the_run_goes_on(tmp_path):
    # hypothesis explains a failure with libcst, whose import warns through
    # mypy_extensions; with every DeprecationWarning an error, that warning
    # ended the run in INTERNALERROR (exit 3) before test_passes ran
    (tmp_path / "test_case.py").write_text(CASE)
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG)]
    run = subprocess.run(
        cmd + ["--rootdir", str(tmp_path), "test_case.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
