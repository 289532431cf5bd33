"""The repository's pytest configuration keeps hypothesis failures reportable."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYTEST_INI = Path(__file__).resolve().parents[1] / "pytest.ini"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_small(value):
    assert value < 5
'''


def test_failing_hypothesis_test_prints_its_counterexample(tmp_path):
    # On failure the hypothesis plugin imports libcst, which warns about
    # mypy_extensions.TypedDict; under `error::DeprecationWarning` alone that
    # warning ends the session in INTERNALERROR before the example prints.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYTEST_INI), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert "Falsifying example" in output, output
    assert result.returncode == 1, output
