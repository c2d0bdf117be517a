"""Shared fixtures for the concurrency suite: small, fast applied systems.

Every test here builds a real end-to-end system (dataset → encoders →
index → LLM) but keeps it deliberately tiny (80 objects, 10 weight-learning
steps) so a function-scoped build costs ~0.25 s and each test gets a
pristine coordinator — forced interleavings must never leak locked state
into the next test.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.core import MQAConfig
from repro.data import DatasetSpec
from repro.server.api import ApiServer

SIZE = 80
SEED = 3


def small_config(workers: int = 1, **overrides) -> MQAConfig:
    """The suite's small configuration, ``workers`` wide."""
    return MQAConfig(
        dataset=DatasetSpec(domain="scenes", size=SIZE, seed=SEED),
        workers=workers,
        cache_queries=False,  # cached reads would dodge the locks under test
        weight_learning={"steps": 10, "batch_size": 8},
        **overrides,
    )


def make_server(workers: int = 1, **overrides) -> ApiServer:
    """A small applied :class:`ApiServer`; caller is responsible for close()."""
    server = ApiServer(small_config(workers, **overrides))
    applied = server.handle("POST", "/apply")
    assert applied.get("ok"), applied
    return server


def split_vocab(kb) -> Tuple[List[str], List[str]]:
    """The corpus concept vocabulary split into read / write halves.

    Same determinism trick as the loadgen: reads draw from the front
    half, ingests from the back half at low intensity, so writes can
    never perturb a read's top-k.
    """
    concepts = sorted({c for obj in kb for c in obj.concepts})
    half = len(concepts) // 2
    return concepts[:half], concepts[half:]


@pytest.fixture
def server():
    """An applied server that runs two requests at once."""
    srv = make_server(workers=2)
    yield srv
    srv.close()


@pytest.fixture
def coordinator():
    """A bare applied coordinator for direct lock-level interleavings."""
    srv = make_server(workers=1)
    yield srv._coordinator
    srv.close()
