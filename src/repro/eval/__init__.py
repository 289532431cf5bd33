"""Evaluation: metrics, the Fig. 3 geometry study and table formatting.

Experiments themselves (scenarios, artifact cache, parallel cells, JSON run
records) live in :mod:`repro.eval.engine`.
"""

from repro.eval.astuteness import robust_accuracy, select_correctly_classified
from repro.eval.geometry import (
    AttackTrajectory,
    GeometryStudy,
    make_toy_problem,
    run_geometry_study,
    train_toy_classifier,
)
from repro.eval.tables import (
    format_federated,
    format_fig3,
    format_fig4,
    format_table1,
    format_table2,
    format_table3,
    format_table4,
    format_upsampling_ablation,
    render_run,
)

__all__ = [
    "AttackTrajectory",
    "GeometryStudy",
    "format_federated",
    "format_fig3",
    "format_fig4",
    "format_table1",
    "format_table2",
    "format_table3",
    "format_table4",
    "format_upsampling_ablation",
    "render_run",
    "make_toy_problem",
    "robust_accuracy",
    "run_geometry_study",
    "select_correctly_classified",
    "train_toy_classifier",
]
