"""Tests of the attack driver: backend parity, active-set shrinking, counting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import (
    APGD,
    FGSM,
    MIM,
    PGD,
    AttackDriver,
    AttackResult,
    CarliniWagner,
    DriverConfig,
    SelfAttentionGradientAttack,
    make_attacker_view,
)
from repro.autodiff.tensor import get_default_dtype, set_default_dtype
from repro.core.shielded_model import ShieldedModel
from repro.models.registry import build_model
from repro.utils.rng import spawn_rng


@pytest.fixture(scope="module")
def batch():
    rng = spawn_rng("tests.driver.batch")
    images = rng.uniform(size=(8, 3, 16, 16))
    labels = rng.integers(0, 4, size=8)
    return images, labels


@pytest.fixture(scope="module")
def cnn_model():
    model = build_model("simple_cnn", num_classes=4, image_size=16)
    model.eval()
    return model


@pytest.fixture(scope="module")
def vit_model():
    model = build_model("vit_b32", num_classes=4, image_size=16)
    model.eval()
    return model


def _attack_factory(name: str):
    """Fresh attack instances (private RNGs) so runs are comparable."""
    builders = {
        "fgsm": lambda: FGSM(epsilon=0.1),
        "pgd": lambda: PGD(epsilon=0.1, step_size=0.02, steps=4),
        "pgd_random": lambda: PGD(
            epsilon=0.1, step_size=0.02, steps=4, random_start=True,
            rng=np.random.default_rng(11),
        ),
        "mim": lambda: MIM(epsilon=0.1, step_size=0.02, steps=4),
        "apgd": lambda: APGD(epsilon=0.1, steps=5, n_restarts=2),
        "cw": lambda: CarliniWagner(confidence=1.0, step_size=0.02, steps=4),
        "saga": lambda: SelfAttentionGradientAttack(epsilon=0.1, step_size=0.02, steps=4),
    }
    return builders[name]


_ALL_ATTACKS = ["fgsm", "pgd", "pgd_random", "mim", "apgd", "cw", "saga"]


class TestBackendParity:
    """`captured` must be bit-identical to `eager` for every attack."""

    @pytest.mark.parametrize("name", _ALL_ATTACKS)
    def test_white_box_parity(self, name, cnn_model, batch):
        images, labels = batch
        results = {}
        for backend in ("eager", "captured"):
            attack = _attack_factory(name)()
            view = make_attacker_view(cnn_model)
            results[backend] = AttackDriver(DriverConfig(backend=backend)).run(
                attack, view, images, labels
            )
        eager, captured = results["eager"], results["captured"]
        np.testing.assert_array_equal(eager.adversarials, captured.adversarials)
        assert eager.gradient_queries == captured.gradient_queries
        np.testing.assert_array_equal(eager.queries_per_sample, captured.queries_per_sample)
        np.testing.assert_array_equal(eager.success, captured.success)

    @pytest.mark.parametrize("name", ["pgd", "cw", "apgd"])
    def test_shielded_view_parity(self, name, cnn_model, batch):
        images, labels = batch
        results = {}
        for backend in ("eager", "captured"):
            attack = _attack_factory(name)()
            view = make_attacker_view(ShieldedModel(cnn_model), rng=np.random.default_rng(5))
            results[backend] = AttackDriver(DriverConfig(backend=backend)).run(
                attack, view, images, labels
            )
        np.testing.assert_array_equal(
            results["eager"].adversarials, results["captured"].adversarials
        )

    def test_saga_ensemble_parity_with_attention(self, vit_model, cnn_model, batch):
        """The SAGA multi-view fusion (attention rollout) must survive replay."""
        images, labels = batch
        results = {}
        for backend in ("eager", "captured"):
            saga = _attack_factory("saga")()
            vit_view = make_attacker_view(vit_model)
            cnn_view = make_attacker_view(cnn_model)
            results[backend] = AttackDriver(DriverConfig(backend=backend)).run(
                saga, (vit_view, cnn_view), images, labels
            )
        np.testing.assert_array_equal(
            results["eager"].adversarials, results["captured"].adversarials
        )
        assert results["eager"].gradient_queries == results["captured"].gradient_queries

    def test_shared_backend_never_replays_a_dead_models_recording(self, batch):
        """Capture keys must be gc-safe: a model allocated at a reused address
        must not hit the previous model's cached recording."""
        import gc

        from repro.autodiff import CapturedExecution
        from repro.core.views import FullWhiteBoxView
        from repro.models.simple import MLPClassifier

        images = batch[0][:, :1, :1, :8].reshape(8, 1, 1, 8)
        labels = batch[1][:8] % 2
        backend = CapturedExecution()
        for trial in range(6):
            model = MLPClassifier(input_dim=8, num_classes=2, hidden_dim=8, input_shape=(1, 1, 8))
            view = FullWhiteBoxView(model)
            view.backend = backend  # shared across sequential models
            expected = FullWhiteBoxView(model).gradient(images, labels)
            for _ in range(3):
                np.testing.assert_array_equal(
                    expected, view.gradient(images, labels), err_msg=f"trial {trial}"
                )
            del model, view
            gc.collect()

    def test_driver_default_leaves_view_backend_alone(self, cnn_model, batch):
        images, labels = batch
        view = make_attacker_view(cnn_model)
        assert view.backend.name == "eager"
        AttackDriver(DriverConfig(backend="captured")).run(
            _attack_factory("fgsm")(), view, images, labels
        )
        AttackDriver().run(_attack_factory("pgd")(), view, images, labels)
        assert view.backend.name == "captured"

    def test_driver_backend_override_applies_to_views(self, cnn_model, batch):
        """DriverConfig.backend switches an eager view to captured execution."""
        images, labels = batch
        view = make_attacker_view(cnn_model)
        AttackDriver(DriverConfig(backend="captured", active_set=False)).run(
            _attack_factory("pgd")(), view, images, labels
        )
        assert view.backend.name == "captured"
        assert view.backend.stats.replays > 0

    def test_unknown_backend_name_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            AttackDriver(DriverConfig(backend="jit"))


class TestActiveSetShrinking:
    def test_queries_drop_and_success_is_preserved(self, cnn_model, batch):
        images, labels = batch
        attack = _attack_factory("pgd")()
        fixed = AttackDriver(DriverConfig(active_set=False)).run(
            attack, make_attacker_view(cnn_model), images, labels
        )
        active = AttackDriver(DriverConfig(active_set=True)).run(
            attack, make_attacker_view(cnn_model), images, labels
        )
        assert active.total_sample_queries <= fixed.total_sample_queries
        assert active.success_rate >= fixed.success_rate - 1e-9

    def test_frozen_samples_are_byte_identical_to_last_accepted_iterate(
        self, cnn_model, batch
    ):
        images, labels = batch
        snapshots = []

        def on_step(info):
            snapshots.append((set(info.active_indices.tolist()), info.adversarials.copy()))

        attack = PGD(epsilon=0.2, step_size=0.05, steps=6)
        result = AttackDriver(DriverConfig(active_set=True), callbacks=[on_step]).run(
            attack, make_attacker_view(cnn_model), images, labels
        )
        for sample in range(len(labels)):
            for active, iterates in snapshots:
                if sample not in active:
                    # Frozen from this snapshot on: the final adversarial must
                    # be byte-identical to the iterate it was frozen at.
                    assert (
                        result.adversarials[sample].tobytes() == iterates[sample].tobytes()
                    ), f"sample {sample} was modified after leaving the active set"
                    break

    def test_fixed_budget_attacks_opt_out(self, cnn_model, batch):
        images, labels = batch
        for name in ("apgd", "cw"):
            attack = _attack_factory(name)()
            assert not attack.supports_active_set
            result = AttackDriver(DriverConfig(active_set=True)).run(
                attack, make_attacker_view(cnn_model), images, labels
            )
            # Opted out: every sample sees the full gradient budget.
            assert int(result.queries_per_sample.min()) == int(result.queries_per_sample.max())


class TestQueryCounting:
    def test_counts_match_the_step_budget(self, cnn_model, batch):
        images, labels = batch
        result = AttackDriver(DriverConfig(active_set=False)).run(
            PGD(epsilon=0.1, step_size=0.02, steps=5),
            make_attacker_view(cnn_model),
            images,
            labels,
        )
        assert result.gradient_queries == 5
        assert result.queries_per_sample.tolist() == [5] * len(labels)
        assert result.total_sample_queries == 5 * len(labels)

    def test_counts_survive_attack_reuse(self, cnn_model, batch):
        """The counter is driver-owned: re-running an attack never leaks counts."""
        images, labels = batch
        attack = PGD(epsilon=0.1, step_size=0.02, steps=3)
        view = make_attacker_view(cnn_model)
        driver = AttackDriver(DriverConfig(active_set=False))
        first = driver.run(attack, view, images, labels)
        second = driver.run(attack, view, images, labels)
        assert first.gradient_queries == second.gradient_queries == 3

    def test_saga_counts_both_members(self, vit_model, cnn_model, batch):
        images, labels = batch
        saga = _attack_factory("saga")()
        result = saga.run_against_ensemble(
            make_attacker_view(vit_model), make_attacker_view(cnn_model), images, labels
        )
        # One ViT + one CNN gradient per step.
        assert result.gradient_queries == 2 * saga.steps


    def test_attack_run_reports_per_sample_counts(self, cnn_model, batch):
        """``Attack.run`` is driver-backed, so every result carries per-sample counts."""
        images, labels = batch
        result = PGD(epsilon=0.1, step_size=0.02, steps=2).run(
            make_attacker_view(cnn_model), images, labels
        )
        assert result.queries_per_sample.shape == (len(labels),)
        assert result.total_sample_queries == int(result.queries_per_sample.sum()) == 2 * len(labels)

    def test_attack_result_requires_query_counts(self, batch):
        images, labels = batch
        with pytest.raises(TypeError, match="queries_per_sample"):
            AttackResult(
                attack_name="x", originals=images, adversarials=images, labels=labels,
                success=np.zeros(len(labels), dtype=bool), gradient_queries=0,
            )


class TestDtypeHygiene:
    """rng noise must not promote float32 attacks to float64 (satellite fix)."""

    @pytest.fixture(autouse=True)
    def _restore(self):
        previous = get_default_dtype()
        yield
        set_default_dtype(previous)

    def test_float32_stays_float32_across_the_suite(self, batch):
        set_default_dtype("float32")
        model = build_model("simple_cnn", num_classes=4, image_size=16)
        model.eval()
        images = batch[0].astype(np.float32)
        labels = batch[1]
        view = make_attacker_view(model)
        for name in ("pgd_random", "fgsm", "mim"):
            result = _attack_factory(name)().run(view, images, labels)
            assert result.adversarials.dtype == np.float32, name
        from repro.attacks import RandomUniform

        noise = RandomUniform(epsilon=0.1, rng=np.random.default_rng(0))
        assert noise.run(view, images, labels).adversarials.dtype == np.float32

    def test_float32_shielded_substitute_gradient_stays_float32(self, batch):
        set_default_dtype("float32")
        model = build_model("simple_cnn", num_classes=4, image_size=16)
        model.eval()
        view = make_attacker_view(ShieldedModel(model), rng=np.random.default_rng(1))
        gradient = view.gradient(batch[0].astype(np.float32), batch[1])
        assert gradient.dtype == np.float32


class TestEmptyBatch:
    """A zero-sample batch gives a zero-sample result, with no warnings."""

    @pytest.mark.parametrize("shielded", [False, True], ids=["clear", "shielded"])
    def test_every_suite_attack_returns_an_empty_batch(self, shielded):
        import warnings

        from repro.attacks import AttackSuiteConfig, build_attack_suite

        model = build_model("simple_cnn", num_classes=4, image_size=32)
        model.eval()
        target = ShieldedModel(model) if shielded else model
        view = make_attacker_view(target, rng=np.random.default_rng(3))
        images = np.zeros((0, 3, 32, 32), dtype=get_default_dtype())
        labels = np.zeros(0, dtype=np.int64)
        suite = build_attack_suite(
            AttackSuiteConfig(dataset="cifar10", max_steps=3, apgd_steps=3,
                              include_random_baseline=True),
            rng_factory=lambda name: np.random.default_rng(7),
        )
        assert "random" in suite
        for name, attack in suite.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                result = attack.run(view, images, labels)
            assert result.adversarials.shape == (0, 3, 32, 32), name

    def test_saga_ensemble_returns_an_empty_batch(self):
        import warnings

        vit_model = build_model("vit_b32", num_classes=4, image_size=32)
        cnn_model = build_model("simple_cnn", num_classes=4, image_size=32)
        vit_model.eval()
        cnn_model.eval()
        images = np.zeros((0, 3, 32, 32), dtype=get_default_dtype())
        labels = np.zeros(0, dtype=np.int64)
        saga = SelfAttentionGradientAttack(epsilon=0.1, step_size=0.02, steps=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = saga.run_against_ensemble(
                make_attacker_view(vit_model), make_attacker_view(cnn_model), images, labels
            )
        assert result.adversarials.shape == (0, 3, 32, 32)
        assert result.success.shape == (0,)
