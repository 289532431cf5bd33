"""PELTA core: shielding algorithm, shielded models, attacker views, memory cost."""

from repro.core.memory_cost import (
    ShieldMemoryEstimate,
    estimate_paper_model,
    format_bytes,
    measure_shielded_model,
    paper_table1,
)
from repro.core.partition import (
    BoundaryCrossing,
    ModelPartition,
    StagedForwardResult,
)
from repro.core.selection import (
    select_by_memory_budget,
    select_first_transforms,
    select_shield_tagged,
)
from repro.core.shielded_model import ShieldedModel
from repro.core.shielding import (
    PeltaShieldReport,
    input_connected_ids,
    pelta_shield,
)
from repro.core.views import (
    FullWhiteBoxView,
    RestrictedWhiteBoxView,
)

__all__ = [
    "BoundaryCrossing",
    "FullWhiteBoxView",
    "ModelPartition",
    "PeltaShieldReport",
    "RestrictedWhiteBoxView",
    "ShieldMemoryEstimate",
    "ShieldedModel",
    "StagedForwardResult",
    "estimate_paper_model",
    "format_bytes",
    "input_connected_ids",
    "measure_shielded_model",
    "paper_table1",
    "pelta_shield",
    "select_by_memory_budget",
    "select_first_transforms",
    "select_shield_tagged",
]
