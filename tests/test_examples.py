"""Every example script imports cleanly and exposes a ``main`` entry point.

The examples are loaded as modules without running ``main()``, so this
catches a stale import in any of them in well under a second.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from tests.serving_parity import assert_serving_parity

_EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_are_found():
    assert _EXAMPLES


@pytest.mark.parametrize("path", _EXAMPLES, ids=lambda path: path.stem)
def test_example_imports_and_defines_main(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))


def test_shielded_serving_example_serves_three_ways_identically(capsys):
    """The serving example's helper, on a small CNN: the three scheduling
    policies it compares keep the gateway's parity contract against
    one-at-a-time serving, which is byte-identical to eager."""
    import numpy as np

    from repro.models.simple import SimpleCNN, SimpleCNNConfig

    path = next(path for path in _EXAMPLES if path.stem == "shielded_serving")
    spec = importlib.util.spec_from_file_location("example_shielded_serving_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    model = SimpleCNN(SimpleCNNConfig(in_channels=3, num_classes=4, widths=(4, 8), image_size=8))
    inputs = np.random.default_rng(0).uniform(size=(12, 3, 8, 8))
    _, continuous = module._serve(model, inputs, "continuous", policy="continuous", max_batch=8)
    _, static = module._serve(model, inputs, "static", policy="static", max_batch=8)
    _, single = module._serve(model, inputs, "single", policy="continuous", max_batch=1, replicas=1)
    assert_serving_parity(continuous.logits(), single.logits())
    assert_serving_parity(static.logits(), single.logits())
    np.testing.assert_array_equal(continuous.predictions(), model.predict(inputs))
    assert single.metrics["batches"] == len(inputs)
    assert capsys.readouterr().out.count("world switches/request") == 3
