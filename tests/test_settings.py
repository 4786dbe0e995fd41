"""The test settings of pyproject.toml, as README states them."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_property_fails(x):
    assert x < 5


def test_deprecation_fails():
    warnings.warn("deprecated", DeprecationWarning)
'''


def test_failing_property_prints_its_example(tmp_path):
    # hypothesis imports libcst to print a failing example's patch; libcst's
    # own DeprecationWarning must not abort the run, while a
    # DeprecationWarning of the code under test still fails its test.
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1, run.stdout
    assert "Falsifying example" in run.stdout
    assert "2 failed" in run.stdout
