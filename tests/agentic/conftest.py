"""Agentic-test fixtures: systems with multi-hop answering enabled."""

from __future__ import annotations

import pytest

from repro.core import MQAConfig, MQASystem
from repro.data import DatasetSpec

FAST_DATASET = DatasetSpec(domain="scenes", size=120, seed=7)
FAST_LEARNING = {"steps": 15, "batch_size": 8, "n_negatives": 4}
FAST_INDEX = {"m": 6, "ef_construction": 32}


def agentic_config(**overrides) -> MQAConfig:
    """A fast agentic-on config; fields overridable per test."""
    base = dict(
        dataset=FAST_DATASET,
        weight_learning=dict(FAST_LEARNING),
        # HNSW's; another index gets its own defaults, as on the panel.
        index_params=dict(FAST_INDEX) if overrides.get("index", "hnsw") == "hnsw" else {},
        search_budget=48,
        agentic=True,
    )
    base.update(overrides)
    return MQAConfig(**base)


@pytest.fixture(scope="package")
def agentic_system(scenes_kb):
    """A set-up agentic system with tracing and cost accounting on.

    Package-scoped for speed; tests that depend on dialogue state call
    ``reset_dialogue()`` first, and counter assertions use deltas.
    """
    return MQASystem.from_knowledge_base(
        scenes_kb, agentic_config(tracing=True, cost_accounting=True)
    )
