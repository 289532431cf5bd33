"""Tests of the experiment engine: cache, registry, executor, results, cells."""

from __future__ import annotations

import functools
import multiprocessing
import os
import struct
import zipfile

import numpy as np
import pytest

from repro.attacks import FGSM, PGD, make_attacker_view
from repro.autodiff import Tensor, conv2d
from repro.eval.engine import (
    ArtifactCache,
    CellExecutor,
    ExecutorConfig,
    ExperimentEngine,
    Scenario,
    build_scenario,
    list_scenarios,
    load_run,
    record_to_dict,
    register_scenario,
    run_attack_in_batches,
    save_run,
    scaled_experiment_config,
    stable_hash,
    unregister_scenario,
)
from repro.eval.engine.executor import _openblas
from repro.eval.harness import ExperimentConfig
from repro.eval.tables import render_run
from repro.models.simple import SimpleCNN, SimpleCNNConfig
from repro.utils.rng import set_global_seed

#: Unit-test-sized configuration (simple models, few samples, few steps).
_TINY = dict(
    dataset="cifar10",
    models=("simple_cnn",),
    attacks=("fgsm", "pgd"),
    image_size=16,
    train_per_class=12,
    test_per_class=4,
    train_epochs=2,
    train_lr=5e-3,
    eval_samples=6,
    attack_batch_size=6,
    max_attack_steps=2,
    apgd_steps=2,
    saga_steps=2,
    epsilon_scale=2.0,
    ensemble_vit="simple_cnn",
    ensemble_cnn="mlp",
)


def _tiny_config(**overrides) -> ExperimentConfig:
    values = dict(_TINY)
    values.update(overrides)
    return ExperimentConfig(**values)


class TestStableHash:
    def test_deterministic_and_order_independent(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})


class TestArtifactCache:
    def test_same_config_hits_without_retraining(self):
        cache = ArtifactCache()
        config = _tiny_config()
        first = cache.get_defender("simple_cnn", config)
        second = cache.get_defender("simple_cnn", config)
        assert first is second
        assert cache.stats.trainings == 1
        assert cache.stats.defender_hits == 1
        assert cache.stats.defender_misses == 1

    def test_training_call_spy_confirms_single_fit(self, monkeypatch):
        import repro.eval.engine.cache as cache_module

        calls = []
        real_fit = cache_module.fit_classifier

        def spy(*args, **kwargs):
            calls.append(args[0])
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(cache_module, "fit_classifier", spy)
        cache = ArtifactCache()
        config = _tiny_config()
        cache.get_defender("simple_cnn", config)
        cache.get_defender("simple_cnn", config)
        assert len(calls) == 1

    def test_changed_config_field_misses(self):
        cache = ArtifactCache()
        config = _tiny_config()
        cache.get_defender("simple_cnn", config)
        cache.get_defender("simple_cnn", _tiny_config(train_lr=1e-3))
        assert cache.stats.trainings == 2
        assert cache.stats.defender_hits == 0

    def test_eval_only_fields_do_not_change_the_key(self):
        cache = ArtifactCache()
        config = _tiny_config()
        key = cache.defender_key("simple_cnn", config)
        assert key == cache.defender_key("simple_cnn", _tiny_config(eval_samples=99))
        assert key == cache.defender_key("simple_cnn", _tiny_config(max_attack_steps=9))
        assert key != cache.defender_key("mlp", config)

    def test_key_depends_on_global_seed(self):
        cache = ArtifactCache()
        config = _tiny_config()
        key = cache.defender_key("simple_cnn", config)
        set_global_seed(4321)
        assert key != cache.defender_key("simple_cnn", config)

    def test_disk_tier_round_trips_state_dict_bit_exactly(self, tmp_path):
        config = _tiny_config()
        writer = ArtifactCache(directory=tmp_path)
        trained = writer.get_defender("simple_cnn", config)
        reader = ArtifactCache(directory=tmp_path)
        loaded = reader.get_defender("simple_cnn", config)
        assert reader.stats.trainings == 0
        assert reader.stats.disk_hits == 1
        original = trained.state_dict()
        restored = loaded.state_dict()
        assert set(original) == set(restored)
        for name, value in original.items():
            assert value.dtype == restored[name].dtype
            np.testing.assert_array_equal(value, restored[name], err_msg=name)

    def test_dataset_cache_hits(self):
        cache = ArtifactCache()
        config = _tiny_config()
        assert cache.get_dataset(config) is cache.get_dataset(config)
        assert cache.stats.dataset_misses == 1
        assert cache.stats.dataset_hits == 1

    def test_stale_disk_artifact_falls_back_to_retraining(self, tmp_path):
        """A cached state_dict that no longer fits the architecture must be
        discarded (with a retrain), not crash the run."""
        from repro.utils.serialization import load_state, save_state

        config = _tiny_config()
        writer = ArtifactCache(directory=tmp_path)
        writer.get_defender("simple_cnn", config)
        key = writer.defender_key("simple_cnn", config)
        path = tmp_path / "defenders" / f"{key}.npz"
        state = load_state(path)
        name = next(iter(state))
        state[f"renamed::{name}"] = state.pop(name)  # simulate a code change
        save_state(path, state)
        reader = ArtifactCache(directory=tmp_path)
        model = reader.get_defender("simple_cnn", config)
        assert reader.stats.trainings == 1
        assert reader.stats.disk_hits == 0
        assert not model.training

    @pytest.mark.parametrize("damage", ["truncated", "flipped_data_byte", "empty"])
    def test_corrupt_disk_artifact_is_a_logged_miss(self, tmp_path, damage, caplog):
        """A damaged archive must retrain and be rewritten, not crash the run."""
        config = _tiny_config()
        writer = ArtifactCache(directory=tmp_path)
        writer.get_defender("simple_cnn", config)
        path = tmp_path / "defenders" / f"{writer.defender_key('simple_cnn', config)}.npz"
        raw = bytearray(path.read_bytes())
        if damage == "truncated":
            raw = raw[: len(raw) // 2]
        elif damage == "flipped_data_byte":
            with zipfile.ZipFile(path) as archive:
                member = max(archive.infolist(), key=lambda info: info.compress_size)
            name_len, extra_len = struct.unpack_from("<HH", raw, member.header_offset + 26)
            data_start = member.header_offset + 30 + name_len + extra_len
            raw[data_start + member.compress_size - 1] ^= 0xFF
        else:
            raw = bytearray()
        path.write_bytes(bytes(raw))
        reader = ArtifactCache(directory=tmp_path)
        model = reader.get_defender("simple_cnn", config)
        assert reader.stats.trainings == 1
        assert reader.stats.disk_hits == 0
        assert not model.training
        assert "discarding unreadable cached defender" in caplog.text
        rewritten = ArtifactCache(directory=tmp_path)
        rewritten.get_defender("simple_cnn", config)
        assert rewritten.stats.trainings == 0
        assert rewritten.stats.disk_hits == 1


class TestCacheDiskBudget:
    def test_fresh_write_survives_even_a_tiny_budget(self, tmp_path):
        cache = ArtifactCache(directory=tmp_path, max_disk_bytes=1)
        cache.get_defender("simple_cnn", _tiny_config())
        stats = cache.disk_stats()
        assert stats["defenders"] == 1  # the hottest entry is never evicted
        assert cache.stats.evictions == 0

    def test_lru_eviction_drops_the_stalest_archive(self, tmp_path):
        import os
        import time

        cache = ArtifactCache(directory=tmp_path, max_disk_bytes=0)  # no eviction yet
        for epochs in (1, 2, 3):
            cache.get_defender("simple_cnn", _tiny_config(train_epochs=epochs))
            time.sleep(0.01)  # distinct mtimes
        entries = cache._disk_entries()
        assert len(entries) == 3
        # Reading the oldest artifact refreshes its LRU clock...
        reader = ArtifactCache(directory=tmp_path, max_disk_bytes=0)
        reader.get_defender("simple_cnn", _tiny_config(train_epochs=1))
        assert reader.stats.disk_hits == 1
        # ...so a budgeted write evicts epochs=2 (now the stalest), keeping
        # the artifact that was just read and the one just written.
        size = max(entry["bytes"] for entry in entries)
        writer = ArtifactCache(directory=tmp_path, max_disk_bytes=3 * size)
        writer.get_defender("simple_cnn", _tiny_config(train_epochs=4))
        remaining = {entry["key"] for entry in writer._disk_entries()}
        evicted_key = writer.defender_key("simple_cnn", _tiny_config(train_epochs=2))
        touched_key = writer.defender_key("simple_cnn", _tiny_config(train_epochs=1))
        assert evicted_key not in remaining
        assert touched_key in remaining
        assert len(remaining) == 3
        assert writer.stats.evictions == 1

    def test_disk_stats_payload(self, tmp_path):
        cache = ArtifactCache(directory=tmp_path, max_disk_bytes=64 * 1024 * 1024)
        cache.get_defender("simple_cnn", _tiny_config())
        stats = cache.disk_stats()
        assert stats["defenders"] == 1
        assert stats["total_bytes"] > 0
        assert stats["budget_bytes"] == 64 * 1024 * 1024
        assert stats["entries"][0]["model"] == "simple_cnn"

    def test_env_budget_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BUDGET_MB", "7")
        cache = ArtifactCache(directory=tmp_path)
        assert cache.max_disk_bytes == 7 * 1024 * 1024


class TestTrainEachDefenderOnce:
    def test_table3_plus_table4_train_each_distinct_defender_once(self, monkeypatch):
        """Acceptance: running Table III then Table IV through one engine
        trains each distinct defender exactly once."""
        import repro.eval.engine.cache as cache_module

        trained_models = []
        real_fit = cache_module.fit_classifier

        def spy(*args, **kwargs):
            trained_models.append(type(args[0]).__name__)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(cache_module, "fit_classifier", spy)
        engine = ExperimentEngine()
        config = _tiny_config(models=("simple_cnn", "mlp"), attacks=("fgsm",))
        table3 = engine.run(Scenario(name="t3", kind="individual", config=config))
        # Table IV uses the same two defenders (simple_cnn as the "ViT"
        # member, mlp as the "CNN" member) under an identical train config.
        table4 = engine.run(
            Scenario(
                name="t4",
                kind="ensemble",
                config=_tiny_config(
                    models=("simple_cnn", "mlp"),
                    attacks=("fgsm",),
                    ensemble_vit="simple_cnn",
                    ensemble_cnn="mlp",
                ),
            )
        )
        assert len(table3.results) == 2
        assert set(table4.results.robust) == {"none", "vit_only", "cnn_only", "both"}
        assert len(trained_models) == 2, trained_models
        assert engine.cache.stats.trainings == 2
        assert engine.cache.stats.defender_hits >= 2

    def test_fig4_reuses_table4_defenders(self):
        engine = ExperimentEngine()
        config = _tiny_config()
        engine.run(Scenario(name="t4", kind="ensemble", config=config))
        trainings = engine.cache.stats.trainings
        engine.run(
            Scenario(name="f4", kind="saga_samples", config=config, params={"sample_index": 0})
        )
        assert engine.cache.stats.trainings == trainings


class TestScenarioRegistry:
    def test_builtins_are_registered(self):
        names = set(list_scenarios())
        assert {"table3_cifar10", "table4_cifar10", "fig3_geometry", "fig4_saga_sample"} <= names

    def test_build_scenario_applies_scale_and_overrides(self):
        scenario = build_scenario("table3_cifar10", scale="tiny", eval_samples=3)
        assert scenario.kind == "individual"
        assert scenario.config.eval_samples == 3
        assert scenario.config.image_size == 16  # tiny preset

    def test_unknown_scenario_and_scale_raise(self):
        with pytest.raises(KeyError):
            build_scenario("no_such_scenario")
        with pytest.raises(KeyError):
            scaled_experiment_config("huge")

    def test_register_and_unregister_custom_scenario(self):
        @register_scenario("custom_test_scenario", "registry test entry")
        def _build(scale, overrides):
            return Scenario(
                name="custom_test_scenario",
                kind="individual",
                config=scaled_experiment_config(scale, **overrides),
            )

        try:
            assert "custom_test_scenario" in list_scenarios()
            scenario = build_scenario("custom_test_scenario", scale="tiny")
            assert scenario.description == "registry test entry"
            with pytest.raises(ValueError):
                register_scenario("custom_test_scenario")(lambda s, o: None)
        finally:
            unregister_scenario("custom_test_scenario")
        assert "custom_test_scenario" not in list_scenarios()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Scenario(name="x", kind="nope", config=ExperimentConfig())

    def test_scalar_param_overrides_do_not_iterate_strings(self):
        sweep = build_scenario("robustness_curve", scale="tiny", epsilons=0.05)
        assert sweep.params["epsilons"] == (0.05,)
        ablation = build_scenario("ablation_upsampling", scale="tiny", strategies="average")
        assert ablation.params["strategies"] == ("average",)
        multi = build_scenario("robustness_curve", scale="tiny", epsilons=("0.01", "0.02"))
        assert multi.params["epsilons"] == (0.01, 0.02)


def _double_cell(payload: dict) -> dict:
    return {"value": payload["value"] * 2}


def _blas_threads_cell(payload: dict) -> dict:
    return {"threads": _openblas().scipy_openblas_get_num_threads64_()}


class TestCellExecutor:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_backends_preserve_order(self, backend):
        executor = CellExecutor(ExecutorConfig(backend=backend, max_workers=3))
        payloads = [{"value": index} for index in range(7)]
        results = executor.map(_double_cell, payloads)
        assert [cell["value"] for cell in results] == [0, 2, 4, 6, 8, 10, 12]

    def test_wrapped_callable_reaches_process_workers(self):
        # A wrapper carrying the wrapped function's name is not the module
        # attribute pickle would look up; the fork hands it over instead.
        @functools.wraps(_double_cell)
        def wrapped(payload):
            return _double_cell(payload)

        payloads = [{"value": index} for index in range(5)]
        serial = CellExecutor(ExecutorConfig(backend="serial")).map(wrapped, payloads)
        executor = CellExecutor(ExecutorConfig(backend="process", max_workers=2))
        assert executor.map(wrapped, payloads) == serial
        assert list(executor.imap(wrapped, payloads)) == serial

    def test_process_workers_pin_blas_to_their_core_share(self):
        if _openblas() is None:
            pytest.skip("NumPy's OpenBLAS has no thread setter")
        executor = CellExecutor(ExecutorConfig(backend="process", max_workers=2))
        results = executor.map(_blas_threads_cell, [{}, {}])
        expected = max(1, (os.cpu_count() or 1) // 2)
        assert [cell["threads"] for cell in results] == [expected, expected]

    def test_env_provides_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "serial")
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "5")
        executor = CellExecutor()
        assert executor.config.backend == "serial"
        assert executor.config.max_workers == 5

    def test_explicit_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "process")
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "8")
        executor = CellExecutor(ExecutorConfig(backend="serial", max_workers=1))
        assert executor.config.backend == "serial"
        assert executor.config.max_workers == 1

    @pytest.mark.parametrize("backend", ["auto", "process"])
    def test_parallel_backend_without_workers_uses_the_machine(self, backend, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_ENGINE_WORKERS", raising=False)
        executor = CellExecutor(ExecutorConfig(backend=backend))
        resolved, workers = executor.resolve(num_tasks=1000)
        expected = os.cpu_count() or 1
        assert workers == min(expected, 1000)
        assert resolved == ("process" if workers > 1 else "serial")
        assert executor.resolve(num_tasks=1) == ("serial", 1)

    def test_no_fork_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        executor = CellExecutor(ExecutorConfig(backend="process", max_workers=2))
        assert executor.resolve(num_tasks=4) == ("serial", 1)

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            ExecutorConfig(backend="gpu")

    @pytest.mark.slow
    def test_process_backend_matches_serial_on_real_cells(self):
        def run(backend):
            set_global_seed(777)
            engine = ExperimentEngine(
                executor=CellExecutor(ExecutorConfig(backend=backend, max_workers=4))
            )
            record = engine.run(Scenario(name="eq", kind="individual", config=_tiny_config()))
            return [result.robust for result in record.results]

        assert run("serial") == run("process")


class TestBlasThreadInvariance:
    """Pool workers run at fewer BLAS threads than the parent; kernels must not care."""

    @staticmethod
    def _gradients(threads: int) -> list[bytes]:
        library = _openblas()
        before = library.scipy_openblas_get_num_threads64_()
        library.scipy_openblas_set_num_threads64_(threads)
        try:
            rng = np.random.default_rng(3)
            x = Tensor(rng.normal(size=(8, 16, 32, 32)), requires_grad=True)
            w = Tensor(rng.normal(size=(32, 16, 3, 3)), requires_grad=True)
            conv2d(x, w, None, stride=1, padding=1).backward(rng.normal(size=(8, 32, 32, 32)))
            a = Tensor(rng.normal(size=(256, 384)), requires_grad=True)
            b = Tensor(rng.normal(size=(384, 320)), requires_grad=True)
            (a @ b).backward(rng.normal(size=(256, 320)))
            return [tensor.grad.tobytes() for tensor in (x, w, a, b)]
        finally:
            library.scipy_openblas_set_num_threads64_(before)

    def test_conv2d_and_matmul_gradients_identical_at_1_and_2_threads(self):
        if _openblas() is None:
            pytest.skip("NumPy's OpenBLAS has no thread setter")
        assert self._gradients(1) == self._gradients(2)


class TestStructuredResults:
    def test_record_round_trips_through_json(self, tmp_path):
        engine = ExperimentEngine()
        record = engine.run(Scenario(name="json_rt", kind="individual", config=_tiny_config()))
        path = save_run(record, tmp_path)
        loaded = load_run(path)
        assert loaded["scenario"] == "json_rt"
        assert loaded["kind"] == "individual"
        assert loaded["results"] == record_to_dict(record)["results"]
        # The rendered table is identical from the live record and the JSON.
        assert render_run(loaded) == render_run(record)

    def test_ensemble_and_fig4_render_from_json(self, tmp_path):
        engine = ExperimentEngine()
        config = _tiny_config()
        for name, kind, params in (
            ("rt_t4", "ensemble", {}),
            ("rt_f4", "saga_samples", {"sample_index": 0}),
        ):
            record = engine.run(Scenario(name=name, kind=kind, config=config, params=params))
            loaded = load_run(save_run(record, tmp_path))
            assert render_run(loaded) == render_run(record)

    def test_persisted_run_keeps_semantic_row_order(self, tmp_path):
        engine = ExperimentEngine()
        record = engine.run(Scenario(name="order", kind="ensemble", config=_tiny_config()))
        loaded = load_run(save_run(record, tmp_path))
        assert list(loaded["results"]["robust"]) == ["none", "vit_only", "cnn_only", "both"]


def _tiny_view():
    model = SimpleCNN(SimpleCNNConfig(in_channels=3, num_classes=3, widths=(4, 8), image_size=8))
    return model, make_attacker_view(model)


class TestRunAttackInBatchesEngine:
    def test_empty_input_returns_empty_array_of_right_shape(self):
        _, view = _tiny_view()
        images = np.zeros((0, 3, 8, 8))
        out = run_attack_in_batches(FGSM(epsilon=0.05), view, images, np.zeros(0, np.int64), 4)
        assert out.shape == (0, 3, 8, 8)

    def test_invalid_batch_size_rejected(self):
        _, view = _tiny_view()
        with pytest.raises(ValueError):
            run_attack_in_batches(FGSM(), view, np.zeros((2, 3, 8, 8)), np.zeros(2, np.int64), 0)

    def test_batched_matches_single_shot_with_random_start_under_fixed_seed(self, rng):
        _, view = _tiny_view()
        images = rng.uniform(size=(6, 3, 8, 8))
        labels = np.array([0, 1, 2, 0, 1, 2])
        # A stochastic attack (PGD with random start): the same seeded
        # generator must give identical adversarials batched or single-shot.
        batched = run_attack_in_batches(
            PGD(epsilon=0.05, step_size=0.02, steps=2, random_start=True,
                rng=np.random.default_rng(123)),
            view, images, labels, batch_size=2,
        )
        single = run_attack_in_batches(
            PGD(epsilon=0.05, step_size=0.02, steps=2, random_start=True,
                rng=np.random.default_rng(123)),
            view, images, labels, batch_size=6,
        )
        np.testing.assert_allclose(batched, single)
