"""Cross-shard tracing, per-shard cost accounting, and router events.

The observability contract for sharding: one sharded query yields a
*single* trace whose scatter span holds one child branch per shard (each
carrying the shard's own pipeline spans) plus a sibling merge span; the
query's cost profile carries one entry per shard; turning the accounting
on changes no result id and every successful read reaches the stats plane;
and rebalance moves and replica probes surface as structured events and
labelled counters.
"""

from __future__ import annotations

import pytest

from repro.core import MQAConfig
from repro.core.coordinator import Coordinator
from repro.core.events import EventLog
from repro.data import DatasetSpec, RawQuery, generate_knowledge_base
from repro.encoders import build_encoder_set
from repro.observability.metrics import MetricsRegistry, labelled
from repro.server.loadgen import run_loadgen

from tests.sharding.conftest import make_router

FAST_CONFIG_KWARGS = dict(
    dataset=DatasetSpec(domain="scenes", size=120, seed=7),
    weight_learning={"steps": 12, "batch_size": 8, "n_negatives": 4},
    cache_queries=False,
)
#: A serial mixed read/write workload: one ingest every eighth operation.
LOADGEN = dict(
    workers=1, queries=24, write_every=8, size=100, seed=7, llm_latency_ms=0.0, k=5
)


def sharded_coordinator(scenes_kb, **overrides):
    """A set-up coordinator over the shared scenes base."""
    config = MQAConfig(**{**FAST_CONFIG_KWARGS, **overrides})
    return Coordinator(config, knowledge_base=scenes_kb).setup()


class TestCrossShardTrace:
    def test_single_trace_with_per_shard_children(self, scenes_kb):
        coordinator = sharded_coordinator(
            scenes_kb, shards=3, tracing=True, cost_accounting=True
        )
        coordinator.handle_query(RawQuery.from_text("foggy clouds"))
        trace = coordinator.tracer.last_trace
        assert trace is not None and trace.name == "query"
        retrieval = next(c for c in trace.children if c.name == "retrieval")
        names = [child.name for child in retrieval.children]
        assert "scatter" in names and "shard-merge" in names
        scatter = next(c for c in retrieval.children if c.name == "scatter")
        branches = [c for c in scatter.children if c.name == "shard-search"]
        assert len(branches) == 3
        assert sorted(b.attributes["shard"] for b in branches) == [0, 1, 2]
        for branch in branches:
            assert branch.attributes["ok"] is True
            assert branch.attributes["replica"] == 0
            assert branch.attributes["distance_evaluations"] > 0
            # The shard's own pipeline ran inside the branch.
            assert {child.name for child in branch.children} >= {
                "encode",
                "index-search",
            }
        assert scatter.attributes["answered"] == 3

    def test_untraced_sharded_query_produces_no_trace(self, scenes_kb):
        coordinator = sharded_coordinator(scenes_kb, shards=2)
        coordinator.handle_query(RawQuery.from_text("foggy clouds"))
        assert coordinator.tracer.last_trace is None


class TestShardedCostProfile:
    def test_profile_carries_one_entry_per_shard(self, scenes_kb):
        coordinator = sharded_coordinator(
            scenes_kb, shards=3, cost_accounting=True
        )
        answer = coordinator.handle_query(RawQuery.from_text("foggy clouds"))
        cost = answer.cost
        assert cost is not None
        assert cost.framework == "shard-router"
        assert cost.shards_total == 3
        assert sorted(e["shard"] for e in cost.shards) == [0, 1, 2]
        for entry in cost.shards:
            assert entry["ok"] is True
            assert entry["ms"] >= 0.0
            assert entry["distance_evaluations"] > 0
        # Router totals equal the per-shard sum.
        assert cost.distance_evaluations == sum(
            e["distance_evaluations"] for e in cost.shards
        )
        assert "merge" in cost.stage_ms and "retrieve" in cost.stage_ms

    def test_per_shard_rows_reach_the_stats_plane(self, scenes_kb):
        coordinator = sharded_coordinator(
            scenes_kb, shards=2, cost_accounting=True
        )
        coordinator.handle_query(RawQuery.from_text("sunny shoreline"))
        assert coordinator.stats is not None
        shards = {
            g["shard"] for g in coordinator.stats.snapshot()["groups"]
        }
        assert shards == {"-", "0", "1"}


class TestAccountingNeverChangesResults:
    @pytest.mark.parametrize("shards", [None, 3])
    def test_loadgen_ids_identical_and_every_read_observed(self, shards):
        off = run_loadgen(shards=shards, **LOADGEN)
        on = run_loadgen(shards=shards, cost_accounting=True, **LOADGEN)
        for run in (off, on):
            assert run["errors"] == 0, run["error_messages"]
        assert on["read_ids"] == off["read_ids"]
        assert off["stats"] is None
        stats = on["stats"]
        assert stats["queries"] == on["reads"]
        shard_rows = {g["shard"] for g in stats["groups"] if g["shard"] != "-"}
        assert shard_rows == ({"0", "1", "2"} if shards else set())
        assert stats["exemplars"]


class TestRouterEvents:
    def test_rebalance_emits_events_and_labelled_counters(self):
        kb = generate_knowledge_base(DatasetSpec(domain="scenes", size=40, seed=13))
        encoders = build_encoder_set("clip-joint", kb, seed=3)
        events = EventLog()
        metrics = MetricsRegistry()
        router = make_router(
            kb, encoders, shards=2, rebalance_threshold=4,
            events=events, metrics=metrics,
        )
        # Skew every new object onto shard 0 until the spread trips.
        concepts = sorted({c for obj in kb for c in obj.concepts})[:2]
        for _ in range(30):
            if router.rebalances:
                break
            obj = kb.create_object(concepts)
            router.add_object(obj)
        assert router.rebalances > 0
        rebalance_events = [
            event for event in events.snapshot()[0]
            if event.kind == "shard-rebalance"
        ]
        assert any("spread" in e.detail for e in rebalance_events)
        assert any("owner flipped" in e.detail for e in rebalance_events)
        counters = metrics.snapshot()["counters"]
        assert any(key.startswith("shard.rebalances{") for key in counters)
        assert any(key.startswith("shard.moves{") for key in counters)

    def test_replica_probe_emits_event_and_counter(self, scenes_kb, clip_set):
        events = EventLog()
        metrics = MetricsRegistry()
        router = make_router(
            scenes_kb, clip_set, shards=1, replicas=2,
            events=events, metrics=metrics,
        )
        group = router.groups[0]
        sick = group.replicas[1]
        group.mark(sick, False)
        transitions = [
            e for e in events.snapshot()[0] if e.kind == "replica-probe"
        ]
        assert any("marked unhealthy" in e.detail for e in transitions)
        # Enough selections to trip the periodic probe of the sick replica.
        for _ in range(4 * group.PROBE_EVERY):
            group.select()
        probes = [
            e for e in events.snapshot()[0]
            if e.kind == "replica-probe" and "probing" in e.detail
        ]
        assert probes
        key = labelled("shard.replica_probes", shard=0, replica=1)
        assert metrics.snapshot()["counters"][key] >= 1

    def test_coordinator_wires_router_events_into_get_events_feed(self, scenes_kb):
        coordinator = sharded_coordinator(scenes_kb, shards=2)
        router = coordinator.execution.framework
        assert router.events is coordinator.events
        assert router.metrics is coordinator.metrics
