"""Tests for repro.utils (rng, serialization, logging)."""

from __future__ import annotations

import logging

import numpy as np

from repro.utils import (
    RngRegistry,
    get_logger,
    get_rng,
    load_state,
    save_state,
    set_global_seed,
    spawn_rng,
)


class TestRng:
    def test_same_name_returns_same_generator(self):
        assert get_rng("a") is get_rng("a")

    def test_different_names_return_different_streams(self):
        a = spawn_rng("stream-a").random(8)
        b = spawn_rng("stream-b").random(8)
        assert not np.allclose(a, b)

    def test_spawn_is_deterministic_for_same_seed(self):
        set_global_seed(5)
        first = spawn_rng("x").random(4)
        set_global_seed(5)
        second = spawn_rng("x").random(4)
        np.testing.assert_allclose(first, second)

    def test_reset_changes_streams(self):
        set_global_seed(1)
        first = spawn_rng("x").random(4)
        set_global_seed(2)
        second = spawn_rng("x").random(4)
        assert not np.allclose(first, second)

    def test_registry_seed_property(self):
        registry = RngRegistry(seed=42)
        assert registry.seed == 42
        registry.reset(43)
        assert registry.seed == 43

    def test_registry_get_caches(self):
        registry = RngRegistry(seed=0)
        assert registry.get("s") is registry.get("s")

    def test_registry_spawn_independent_of_cache(self):
        registry = RngRegistry(seed=0)
        cached = registry.get("s")
        fresh = registry.spawn("s")
        assert cached is not fresh


class TestSerialization:
    def test_save_and_load_roundtrip(self, tmp_path):
        state = {"weight": np.arange(6).reshape(2, 3).astype(np.float64), "bias": np.ones(3)}
        path = tmp_path / "state.npz"
        save_state(path, state)
        loaded = load_state(path)
        assert set(loaded) == {"weight", "bias"}
        np.testing.assert_allclose(loaded["weight"], state["weight"])
        np.testing.assert_allclose(loaded["bias"], state["bias"])


class TestLogging:
    def test_logger_namespace(self):
        logger = get_logger("something")
        assert logger.name == "repro.something"

    def test_logger_existing_namespace_kept(self):
        logger = get_logger("repro.eval")
        assert logger.name == "repro.eval"

    def test_logger_is_logging_logger(self):
        assert isinstance(get_logger("x"), logging.Logger)
