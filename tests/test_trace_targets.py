"""Every program name the end-to-end benchmark's tracer patches still exists.

``benchmarks/e2e/trace.py`` wraps a fixed table of program functions from
outside the program.  A refactor that renames or moves one of them would
otherwise only show as a crash of the benchmark's traced run; here it fails
the test suite instead.  The tracer is loaded by path, with its own
``_resolve``, exactly as the benchmark loads it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "trace.py"


def _load_trace():
    spec = importlib.util.spec_from_file_location("e2e_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACE = _load_trace()

#: (module, attribute path) of every patch target, the reply stream included.
TARGETS = [
    (module, path) for module, path, *_ in (*_TRACE.SPAN_PATCHES, *_TRACE.COUNT_PATCHES)
] + [("repro.fl.runtime.transport", "Transport.exchange_stream")]


@pytest.mark.parametrize("module, path", TARGETS, ids=[f"{m}:{p}" for m, p in TARGETS])
def test_patch_target_resolves_to_a_callable(module, path):
    _, _, value = _TRACE._resolve(module, path)
    assert callable(value)


def test_update_observer_reads_payload_nbytes():
    """The ``UpdateEnvelope.open`` observer counts ``ModelUpdate.payload_nbytes``."""
    from repro.fl.messages import ModelUpdate

    assert isinstance(ModelUpdate.__dict__["payload_nbytes"], property)
