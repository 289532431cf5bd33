"""Shared utilities: seeded RNG, logging, serialization."""

from repro.utils.logging import get_logger
from repro.utils.rng import RngRegistry, get_global_seed, get_rng, set_global_seed, spawn_rng
from repro.utils.serialization import load_state, save_state

__all__ = [
    "RngRegistry",
    "get_global_seed",
    "get_logger",
    "get_rng",
    "load_state",
    "save_state",
    "set_global_seed",
    "spawn_rng",
]
