"""Resilience-suite fixtures: fake clocks and tiny fault-enabled systems.

Everything in this suite is deterministic: fault schedules come from
seeded per-site RNG streams, time comes from :class:`FakeClock`, and
sleeps are recorded (and optionally turned into clock advances) instead
of blocking.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core import MQAConfig
from repro.data import DatasetSpec
from repro.server.api import ApiServer

SIZE = 100
SEED = 7
FAST_LEARNING = {"steps": 10, "batch_size": 8}
FAST_INDEX = {"m": 6, "ef_construction": 32}


def resilient_config(**overrides) -> MQAConfig:
    """A small, fast config with the resilience layer enabled."""
    base = dict(
        dataset=DatasetSpec(domain="scenes", size=SIZE, seed=SEED),
        weight_learning=dict(FAST_LEARNING),
        # HNSW's; another index gets its own defaults, as on the panel.
        index_params=dict(FAST_INDEX) if overrides.get("index", "hnsw") == "hnsw" else {},
        search_budget=48,
        resilience=True,
    )
    base.update(overrides)
    return MQAConfig(**base)


def make_server(**overrides) -> ApiServer:
    """A small applied :class:`ApiServer`; caller must close() it."""
    server = ApiServer(resilient_config(**overrides))
    applied = server.handle("POST", "/apply")
    assert applied.get("ok"), applied
    return server


class FakeClock:
    """A manually advanced monotonic clock for deterministic timing."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeSleep:
    """Records requested sleeps; optionally advances a fake clock."""

    def __init__(self, clock: Optional[FakeClock] = None) -> None:
        self.calls: List[float] = []
        self.clock = clock

    def __call__(self, seconds: float) -> None:
        self.calls.append(seconds)
        if self.clock is not None:
            self.clock.advance(seconds)
