"""Core-test fixtures: a fast shared configuration and a set-up system."""

from __future__ import annotations

import pytest

from repro.core import MQAConfig, MQASystem
from repro.data import DatasetSpec

FAST_DATASET = DatasetSpec(domain="scenes", size=120, seed=7)
FAST_LEARNING = {"steps": 15, "batch_size": 8, "n_negatives": 4}
FAST_INDEX = {"m": 6, "ef_construction": 32}


def fast_config(**overrides) -> MQAConfig:
    """A config tuned for test speed; fields overridable per test."""
    base = dict(
        dataset=FAST_DATASET,
        weight_learning=dict(FAST_LEARNING),
        # HNSW's; another index gets its own defaults, as on the panel.
        index_params=dict(FAST_INDEX) if overrides.get("index", "hnsw") == "hnsw" else {},
        search_budget=48,
    )
    base.update(overrides)
    return MQAConfig(**base)


@pytest.fixture(scope="package")
def system(scenes_kb):
    """A fully set-up MQA system over the shared scenes base."""
    return MQASystem.from_knowledge_base(scenes_kb, fast_config())
