"""Every example script imports cleanly and exposes a ``main`` entry point.

The examples are loaded as modules without running ``main()``, so this
catches a stale import in any of them in well under a second.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_are_found():
    assert _EXAMPLES


@pytest.mark.parametrize("path", _EXAMPLES, ids=lambda path: path.stem)
def test_example_imports_and_defines_main(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))
