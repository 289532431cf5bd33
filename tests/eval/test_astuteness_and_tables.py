"""Tests for the evaluation metrics, table formatting and geometry study."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import (
    format_fig3,
    format_table1,
    format_table2,
    format_table3,
    format_table4,
    render_run,
    robust_accuracy,
    select_correctly_classified,
)
from repro.eval.engine import ExperimentEngine, load_run, save_run
from repro.eval.geometry import make_toy_problem, run_geometry_study, train_toy_classifier


class _FixedPredictor:
    """Predictor returning precomputed answers, for metric tests."""

    def __init__(self, answers: np.ndarray):
        self.answers = np.asarray(answers)

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        return self.answers[: len(batch)]


class TestMetrics:
    def test_select_correctly_classified_filters_and_caps(self, rng):
        images = rng.uniform(size=(10, 1, 2, 2))
        labels = np.arange(10) % 2
        predictor = lambda batch: np.zeros(len(batch), dtype=np.int64)  # predicts class 0
        selected_images, selected_labels = select_correctly_classified(predictor, images, labels, 3)
        assert np.all(selected_labels == 0)
        assert len(selected_labels) <= 3

    def test_select_correctly_classified_empty_result(self, rng):
        images = rng.uniform(size=(4, 1, 2, 2))
        labels = np.ones(4, dtype=np.int64)
        predictor = lambda batch: np.zeros(len(batch), dtype=np.int64)
        selected_images, selected_labels = select_correctly_classified(predictor, images, labels, 4)
        assert len(selected_labels) == 0

    def test_robust_accuracy(self, rng):
        adversarials = rng.uniform(size=(4, 1, 2, 2))
        labels = np.array([0, 0, 1, 1])
        predictor = _FixedPredictor(np.array([0, 1, 1, 0]))
        accuracy = robust_accuracy(predictor, adversarials, labels)
        assert accuracy == pytest.approx(0.5)

    def test_robust_accuracy_empty_set_is_nan(self):
        assert np.isnan(robust_accuracy(lambda b: np.zeros(0), np.zeros((0, 1)), np.zeros(0)))


class TestTableFormatting:
    def test_table1_contains_all_models_and_paper_values(self):
        text = format_table1()
        for name in ("ViT-L/16", "ViT-B/16", "BiT-M-R101x3", "BiT-M-R152x4"):
            assert name in text
        assert "MB" in text and "KB" in text

    def test_table2_lists_all_attacks_and_datasets(self):
        text = format_table2()
        for token in ("cifar10", "cifar100", "imagenet", "FGSM", "PGD", "MIM", "APGD", "C&W", "SAGA"):
            assert token in text
        assert "0.031" in text and "0.062" in text

    def test_table3_formatting(self):
        result = {
            "model_name": "vit_b16",
            "dataset": "cifar10",
            "clean_accuracy": 0.97,
            "robust": {"fgsm": {"unshielded": 0.1, "shielded": 0.9}},
            "eval_samples": 32,
        }
        text = format_table3([result])
        assert "vit_b16" in text
        assert "FGSM" in text
        assert "10.0%" in text and "90.0%" in text and "97.0%" in text

    def test_table3_empty(self):
        assert "no results" in format_table3([])

    def test_table4_formatting(self):
        result = {
            "dataset": "cifar10",
            "vit_name": "vit_l16",
            "cnn_name": "bit_m_r101x3",
            "clean_accuracy": {"vit": 0.99, "cnn": 0.98, "ensemble": 0.99},
            "random_astuteness": {"vit": 0.99, "cnn": 0.97, "ensemble": 0.98},
            "robust": {
                "none": {"vit": 0.2, "cnn": 0.3, "ensemble": 0.25},
                "vit_only": {"vit": 0.9, "cnn": 0.1, "ensemble": 0.5},
                "cnn_only": {"vit": 0.2, "cnn": 0.8, "ensemble": 0.5},
                "both": {"vit": 0.95, "cnn": 0.9, "ensemble": 0.92},
            },
            "eval_samples": 24,
        }
        text = format_table4(result)
        assert "vit_l16" in text and "Ensemble" in text
        assert "92.0%" in text

    def test_fig3_formatting(self):
        study = {
            "origin": [0.12345, -0.5],
            "label": 1,
            "epsilon": 0.5,
            "trajectories": {
                "pgd": {
                    "attack_name": "pgd",
                    "points": [[0.12345, -0.5], [0.3, -0.25], [0.6, 0.0]],
                    "crossed_boundary": True,
                    "max_linf": 0.5,
                },
            },
        }
        text = format_fig3(study)
        assert "epsilon=0.5, label=1" in text
        assert "origin: [0.123, -0.5]" in text
        assert "pgd   steps= 2 end=[0.6, 0.0] max_linf=0.500 crossed_boundary=True" in text


class TestGeometryStudy:
    def test_toy_problem_is_learnable(self):
        points, labels = make_toy_problem(num_samples=120)
        model = train_toy_classifier(points, labels)
        assert model.accuracy(points, labels) > 0.9

    def test_geometry_study_trajectories(self):
        study = run_geometry_study(epsilon=0.5, step_size=0.1, steps=8)
        assert set(study.trajectories) == {"fgsm", "pgd", "mim"}
        fgsm = study.trajectories["fgsm"]
        pgd = study.trajectories["pgd"]
        assert len(fgsm.points) == 2  # one step
        assert len(pgd.points) == 9  # origin + steps
        # Every trajectory stays inside the epsilon ball (the P operator of Fig. 3).
        for trajectory in study.trajectories.values():
            assert trajectory.max_linf <= study.epsilon + 1e-9
        # The iterative attacks should cross the decision boundary on this toy task.
        assert pgd.crossed_boundary or study.trajectories["mim"].crossed_boundary

    def test_geometry_record_renders_the_same_live_and_from_json(self, tmp_path):
        record = ExperimentEngine().run("fig3_geometry", scale="tiny", steps=4)
        assert record.params["steps"] == 4
        text = render_run(record)
        assert text == render_run(load_run(save_run(record, tmp_path)))
        assert "fgsm  steps= 1" in text and "pgd   steps= 4" in text
