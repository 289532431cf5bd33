"""Artifact cache for trained defenders and synthetic datasets.

Every table / figure of the paper evaluates the *same* small set of trained
defenders, but the seed harness retrained them from scratch in every entry
point.  The cache keys each artifact by a stable hash of the configuration
fields that actually influence it (plus the global RNG seed and the default
dtype), so the Table IV ensemble benchmark and the Fig. 4 sample study reuse
the defenders the Table III benchmark already trained.

Two tiers are provided:

* an **in-memory** tier (always on) holding live model / dataset objects;
* an optional **on-disk** tier persisting trained defenders as ``.npz``
  ``state_dict()`` archives (plus a JSON metadata sidecar) under
  ``<directory>/defenders/``, so separate processes — e.g. a bench run after
  a CLI run — also skip retraining.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import zipfile
from pathlib import Path
from typing import TYPE_CHECKING

from repro.autodiff.tensor import get_default_dtype
from repro.data.synthetic import SyntheticImageDataset
from repro.models.base import ImageClassifier
from repro.models.registry import build_model
from repro.nn.trainer import fit_classifier
from repro.utils.logging import get_logger
from repro.utils.rng import get_global_seed, spawn_rng
from repro.utils.serialization import load_state, save_state

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.eval.harness import ExperimentConfig

_LOGGER = get_logger("eval.engine.cache")


def stable_hash(payload) -> str:
    """Stable short hash of a JSON-serialisable payload (sorted keys)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


#: Configuration fields that determine the synthetic dataset contents.
DATASET_KEY_FIELDS = ("dataset", "image_size", "train_per_class", "test_per_class")

#: Configuration fields that determine a trained defender (on top of the
#: dataset fields minus the test split, which training never sees).
DEFENDER_KEY_FIELDS = (
    "dataset",
    "image_size",
    "train_per_class",
    "train_epochs",
    "train_lr",
    "train_batch_size",
)


@dataclasses.dataclass
class CacheStats:
    """Hit / miss counters, exposed so tests can spy on training reuse."""

    dataset_hits: int = 0
    dataset_misses: int = 0
    defender_hits: int = 0
    defender_misses: int = 0
    disk_hits: int = 0
    trainings: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


#: Default size budget (bytes) of the on-disk defender tier; overridable per
#: cache or process-wide with REPRO_CACHE_BUDGET_MB.  Long bench sessions
#: sweep many (model, config, seed) keys — without a budget the checkpoint
#: directory grows without bound.
DEFAULT_DISK_BUDGET_BYTES = 512 * 1024 * 1024


def _disk_budget_from_env() -> int:
    budget_mb = os.environ.get("REPRO_CACHE_BUDGET_MB")
    if budget_mb:
        return int(float(budget_mb) * 1024 * 1024)
    return DEFAULT_DISK_BUDGET_BYTES


class ArtifactCache:
    """Config-hash-keyed cache of datasets and trained defender models.

    The disk tier is LRU-bounded: reads refresh an artifact's mtime, and
    writes evict the stalest ``.npz``/``.json`` pairs until the directory
    fits ``max_disk_bytes`` (0 disables eviction).
    """

    def __init__(self, directory: str | Path | None = None, max_disk_bytes: int | None = None):
        self.directory = Path(directory) if directory is not None else None
        self.max_disk_bytes = (
            int(max_disk_bytes) if max_disk_bytes is not None else _disk_budget_from_env()
        )
        self._datasets: dict[str, SyntheticImageDataset] = {}
        self._defenders: dict[str, ImageClassifier] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    # Keys
    # ------------------------------------------------------------------ #
    def dataset_key(self, config: "ExperimentConfig") -> str:
        payload = {name: getattr(config, name) for name in DATASET_KEY_FIELDS}
        payload["num_classes"] = config.resolved_num_classes()
        payload["seed"] = get_global_seed()
        return stable_hash(payload)

    def defender_key(self, model_name: str, config: "ExperimentConfig") -> str:
        payload = {name: getattr(config, name) for name in DEFENDER_KEY_FIELDS}
        payload["num_classes"] = config.resolved_num_classes()
        payload["model"] = model_name
        payload["seed"] = get_global_seed()
        payload["dtype"] = str(get_default_dtype())
        return stable_hash(payload)

    # ------------------------------------------------------------------ #
    # Datasets
    # ------------------------------------------------------------------ #
    def get_dataset(self, config: "ExperimentConfig") -> SyntheticImageDataset:
        """Return the experiment dataset, building it on first use."""
        from repro.eval.harness import prepare_dataset

        key = self.dataset_key(config)
        if key in self._datasets:
            self.stats.dataset_hits += 1
            return self._datasets[key]
        self.stats.dataset_misses += 1
        dataset = prepare_dataset(config)
        self._datasets[key] = dataset
        return dataset

    # ------------------------------------------------------------------ #
    # Trained defenders
    # ------------------------------------------------------------------ #
    def get_defender(self, model_name: str, config: "ExperimentConfig") -> ImageClassifier:
        """Return a trained defender, training it only on a full cache miss."""
        key = self.defender_key(model_name, config)
        if key in self._defenders:
            self.stats.defender_hits += 1
            # A memory hit is still a *use*: refresh the disk artifact's LRU
            # clock so a hot defender never looks stale to the eviction pass.
            self._touch_disk(key)
            return self._defenders[key]
        dataset = self.get_dataset(config)
        model = self._build(model_name, dataset, config)
        state = self._load_from_disk(key)
        if state is not None:
            try:
                model.load_state_dict(state)
            except (KeyError, ValueError) as error:
                # The architecture changed since the artifact was written
                # (the key covers config, not code); fall back to training.
                _LOGGER.warning(
                    "cached defender %s no longer fits %s (%s); retraining",
                    key,
                    model_name,
                    error,
                )
                state = None
        if state is not None:
            self.stats.defender_hits += 1
            self.stats.disk_hits += 1
            model.eval()
        else:
            self.stats.defender_misses += 1
            self.stats.trainings += 1
            _LOGGER.info("training defender %s (key %s)", model_name, key)
            fit_classifier(
                model,
                dataset.train_images,
                dataset.train_labels,
                epochs=config.train_epochs,
                batch_size=config.train_batch_size,
                lr=config.train_lr,
                rng=spawn_rng(f"engine.train.{key}"),
            )
            model.eval()
            self._save_to_disk(key, model_name, config, model)
        self._defenders[key] = model
        return model

    def _build(
        self, model_name: str, dataset: SyntheticImageDataset, config: "ExperimentConfig"
    ) -> ImageClassifier:
        return build_model(
            model_name,
            num_classes=dataset.num_classes,
            image_size=config.image_size,
            in_channels=dataset.image_shape[0],
        )

    # ------------------------------------------------------------------ #
    # Disk tier
    # ------------------------------------------------------------------ #
    def _defender_path(self, key: str) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / "defenders" / f"{key}.npz"

    def _load_from_disk(self, key: str):
        path = self._defender_path(key)
        if path is None or not path.exists():
            return None
        try:
            state = load_state(path)
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as error:
            # Truncated, bit-flipped or empty archives: a miss, not a crash.
            _LOGGER.warning("discarding unreadable cached defender %s: %s", path, error)
            return None
        # Refresh the LRU clock: a read makes the artifact recently-used, so
        # the eviction pass removes cold checkpoints first.
        self._touch_disk(key)
        return state

    def _touch_disk(self, key: str) -> None:
        path = self._defender_path(key)
        if path is None or not path.exists():
            return
        try:
            path.touch()
        except OSError:  # pragma: no cover - read-only cache directories
            pass

    def _save_to_disk(
        self, key: str, model_name: str, config: "ExperimentConfig", model: ImageClassifier
    ) -> None:
        path = self._defender_path(key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        save_state(path, model.state_dict())
        metadata = {name: getattr(config, name) for name in DEFENDER_KEY_FIELDS}
        metadata.update(
            model=model_name,
            num_classes=config.resolved_num_classes(),
            seed=get_global_seed(),
            dtype=str(get_default_dtype()),
        )
        path.with_suffix(".json").write_text(json.dumps(metadata, indent=2, sort_keys=True))
        self._evict_disk(keep=key)

    # ------------------------------------------------------------------ #
    # Disk hygiene
    # ------------------------------------------------------------------ #
    def _disk_entries(self) -> list[dict]:
        """Cached defender archives, stalest first (json sidecar included)."""
        if self.directory is None:
            return []
        entries = []
        for path in (self.directory / "defenders").glob("*.npz"):
            sidecar = path.with_suffix(".json")
            try:
                nbytes = path.stat().st_size
                mtime = path.stat().st_mtime
                if sidecar.exists():
                    nbytes += sidecar.stat().st_size
            except OSError:
                continue
            model = ""
            if sidecar.exists():
                try:
                    model = json.loads(sidecar.read_text()).get("model", "")
                except (OSError, ValueError):
                    model = ""
            entries.append(
                {"key": path.stem, "path": path, "bytes": nbytes, "mtime": mtime, "model": model}
            )
        entries.sort(key=lambda entry: entry["mtime"])
        return entries

    def _evict_disk(self, keep: str | None = None) -> None:
        """Drop the stalest archives until the disk tier fits its budget."""
        if self.directory is None or self.max_disk_bytes <= 0:
            return
        entries = self._disk_entries()
        total = sum(entry["bytes"] for entry in entries)
        for entry in entries:
            if total <= self.max_disk_bytes:
                break
            if entry["key"] == keep:
                # Never evict the artifact this write produced, even when it
                # alone exceeds the budget (it is the hottest entry).
                continue
            entry["path"].unlink(missing_ok=True)
            entry["path"].with_suffix(".json").unlink(missing_ok=True)
            total -= entry["bytes"]
            self.stats.evictions += 1
            _LOGGER.info(
                "evicted cached defender %s (%s, %.1f MiB) to fit the %d MiB cache budget",
                entry["key"],
                entry["model"] or "unknown model",
                entry["bytes"] / (1024 * 1024),
                self.max_disk_bytes // (1024 * 1024),
            )

    def disk_stats(self) -> dict:
        """Occupancy of the disk tier (the ``--cache-stats`` CLI payload)."""
        entries = self._disk_entries()
        return {
            "defenders": len(entries),
            "total_bytes": sum(entry["bytes"] for entry in entries),
            "budget_bytes": self.max_disk_bytes if self.directory is not None else 0,
            "evictions": self.stats.evictions,
            "entries": [
                {"key": entry["key"], "bytes": entry["bytes"], "model": entry["model"]}
                for entry in reversed(entries)  # most recently used first
            ],
        }

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def clear(self, memory: bool = True, disk: bool = False) -> None:
        """Drop cached artifacts (the disk tier only when asked explicitly)."""
        if memory:
            self._datasets.clear()
            self._defenders.clear()
        if disk and self.directory is not None:
            for path in self.directory.glob("defenders/*"):
                path.unlink()

    def __len__(self) -> int:
        return len(self._defenders)
