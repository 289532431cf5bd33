"""Shared utilities: seeded RNG, configuration, logging, serialization."""

from repro.utils.config import ConfigError, config_from_dict, config_to_dict
from repro.utils.logging import get_logger
from repro.utils.rng import RngRegistry, get_global_seed, get_rng, set_global_seed, spawn_rng
from repro.utils.serialization import load_state, save_state

__all__ = [
    "ConfigError",
    "RngRegistry",
    "config_from_dict",
    "config_to_dict",
    "get_global_seed",
    "get_logger",
    "get_rng",
    "load_state",
    "save_state",
    "set_global_seed",
    "spawn_rng",
]
