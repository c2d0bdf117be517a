"""Unit tests for the StatsPlane aggregator behind ``GET /stats``."""

import pytest

from repro.observability.costs import QueryCostProfile
from repro.observability.exporters import render_prometheus
from repro.observability.metrics import MetricsRegistry, labelled
from repro.observability.stats import WHOLE_QUERY, StatsPlane


def make_profile(latencies_to_shards=0, **overrides):
    """A filled-in single-query profile, optionally with shard entries."""
    profile = QueryCostProfile(
        framework=overrides.pop("framework", "must"),
        index=overrides.pop("index", "hnsw"),
        **overrides,
    )
    profile.cache = "miss"
    profile.items = 5
    profile.distance_evaluations = 40
    profile.hops = 12
    profile.add_stage("encode", 1.0)
    profile.add_stage("search", 2.0)
    for shard in range(latencies_to_shards):
        profile.add_shard(
            shard=shard, replica=0, ok=True, ms=0.5,
            items=5, distance_evaluations=20, hops=6,
        )
    return profile


class TestObserve:
    def test_assigns_sequential_trace_ids(self):
        plane = StatsPlane()
        first = make_profile()
        second = make_profile()
        assert plane.observe(first, 10.0) == 0
        assert plane.observe(second, 20.0) == 1
        assert first.trace_id == 0
        assert second.trace_id == 1

    def test_whole_query_group_precedes_shard_splits(self):
        plane = StatsPlane()
        plane.observe(make_profile(latencies_to_shards=2), 10.0)
        groups = plane.snapshot()["groups"]
        assert [g["shard"] for g in groups] == [WHOLE_QUERY, "0", "1"]
        whole = groups[0]
        assert whole["queries"] == 1
        assert whole["cache"] == {"miss": 1}
        assert whole["distance_evaluations"]["mean"] == 40.0
        assert set(whole["stages_ms"]) == {"encode", "search"}
        # Per-shard rows carry the router's split, not the whole query.
        assert groups[1]["distance_evaluations"]["mean"] == 20.0

    def test_shard_failures_counted(self):
        plane = StatsPlane()
        profile = make_profile()
        profile.shards_failed = 1
        profile.add_shard(shard=0, ok=False, ms=0.1)
        plane.observe(profile, 5.0)
        groups = {g["shard"]: g for g in plane.snapshot()["groups"]}
        assert groups[WHOLE_QUERY]["failures"] == 1
        assert groups["0"]["failures"] == 1

    def test_groups_keyed_by_framework_and_index(self):
        plane = StatsPlane()
        plane.observe(make_profile(framework="must", index="flat"), 1.0)
        plane.observe(make_profile(framework="mr", index="hnsw"), 2.0)
        keys = {
            (g["framework"], g["index"]) for g in plane.snapshot()["groups"]
        }
        assert keys == {("must", "flat"), ("mr", "hnsw")}


class TestExemplars:
    def test_retains_k_slowest_in_order(self):
        plane = StatsPlane(exemplars=2)
        for latency in (5.0, 30.0, 10.0, 20.0):
            plane.observe(make_profile(), latency)
        exemplars = plane.snapshot()["exemplars"]
        assert [e["latency_ms"] for e in exemplars] == [30.0, 20.0]
        assert exemplars[0]["trace_id"] == 1
        assert exemplars[0]["cost"]["distance_evaluations"] == 40

    def test_latency_ties_break_by_earlier_trace(self):
        plane = StatsPlane(exemplars=2)
        for _ in range(3):
            plane.observe(make_profile(), 10.0)
        assert [
            e["trace_id"] for e in plane.snapshot()["exemplars"]
        ] == [0, 1]

    def test_zero_exemplars_retains_nothing(self):
        plane = StatsPlane(exemplars=0)
        plane.observe(make_profile(), 10.0)
        assert plane.snapshot()["exemplars"] == []

    def test_negative_exemplars_rejected(self):
        with pytest.raises(ValueError):
            StatsPlane(exemplars=-1)


class TestObserveBatch:
    def test_queries_share_batch_wall_time(self):
        plane = StatsPlane()
        profiles = [make_profile(), make_profile(), None]
        plane.observe_batch(profiles, None, 10.0)
        whole = [
            g for g in plane.snapshot()["groups"] if g["shard"] == WHOLE_QUERY
        ][0]
        assert whole["queries"] == 2
        assert whole["latency_ms"]["mean"] == pytest.approx(5.0)

    def test_batch_profile_contributes_without_bumping_query_count(self):
        plane = StatsPlane()
        batch = QueryCostProfile(
            framework="must", index="hnsw", batch=2
        )
        batch.add_stage("retrieve", 4.0)
        batch.add_shard(shard=0, ok=True, ms=1.0, items=10)
        plane.observe_batch([make_profile()], batch, 6.0)
        groups = {g["shard"]: g for g in plane.snapshot()["groups"]}
        assert groups[WHOLE_QUERY]["queries"] == 1
        assert "retrieve" in groups[WHOLE_QUERY]["stages_ms"]
        assert groups["0"]["queries"] == 1  # one scatter, not one per query


class TestRecall:
    def test_recall_folds_into_whole_query_group(self):
        plane = StatsPlane()
        plane.observe(make_profile(), 1.0)
        plane.observe_recall("must", "hnsw", 0.8)
        plane.observe_recall("must", "hnsw", 0.6)
        whole = plane.snapshot()["groups"][0]
        assert whole["recall_at_k"]["mean"] == pytest.approx(0.7)

    def test_recall_none_when_never_sampled(self):
        plane = StatsPlane()
        plane.observe(make_profile(), 1.0)
        assert plane.snapshot()["groups"][0]["recall_at_k"] is None


class TestMetricsMirror:
    def test_labelled_families_emitted(self):
        registry = MetricsRegistry()
        plane = StatsPlane(metrics=registry)
        plane.observe(make_profile(latencies_to_shards=1), 10.0)
        snapshot = registry.snapshot()
        labels = {"framework": "must", "index": "hnsw"}
        assert snapshot["counters"][labelled("cost.queries", **labels)] == 1
        assert labelled("cost.latency_ms", **labels) in snapshot["histograms"]
        assert (
            labelled("cost.stage_ms", stage="encode", **labels)
            in snapshot["histograms"]
        )
        assert (
            labelled("cost.shard_ms", shard=0, **labels)
            in snapshot["histograms"]
        )

    def test_shard_failures_counter(self):
        registry = MetricsRegistry()
        plane = StatsPlane(metrics=registry)
        profile = make_profile()
        profile.add_shard(shard=1, ok=False, ms=0.1)
        plane.observe(profile, 1.0)
        key = labelled(
            "cost.shard_failures", framework="must", index="hnsw", shard=1
        )
        assert registry.snapshot()["counters"][key] == 1

    def test_stats_groups_and_prometheus_families_tell_one_story(self, scenes_kb):
        """One sharded ``/search`` batch: ``/stats`` showed a ``merge`` stage
        and a row per shard while the families held no
        ``cost.stage_ms{stage=merge}`` and no ``cost.shard_ms`` at all — a
        batch-scope profile never reached the mirror."""
        from repro.core import MQAConfig
        from repro.data import DatasetSpec
        from repro.server import ApiServer

        config = MQAConfig(
            dataset=DatasetSpec(domain="scenes", size=120, seed=7),
            weight_learning={"steps": 12, "batch_size": 8, "n_negatives": 4},
            index="flat", shards=2, cost_accounting=True,
        )
        with ApiServer(config, knowledge_base=scenes_kb) as server:
            assert server.handle("POST", "/apply")["ok"]
            texts = ("foggy clouds", "stars", "shoreline", "mountain pass")
            assert server.handle(
                "POST", "/search", {"queries": [{"text": t} for t in texts]}
            )["ok"]
            groups = server.handle("GET", "/stats")["stats"]["groups"]
            families = render_prometheus(server._coordinator.metrics)
        whole = groups[0]
        assert [g["shard"] for g in groups] == [WHOLE_QUERY, "0", "1"]
        assert "merge" in whole["stages_ms"]
        labels = f'framework="{whole["framework"]}",index="flat"'
        for stage, summary in whole["stages_ms"].items():
            sample = f'repro_cost_stage_ms_count{{{labels},stage="{stage}"}}'
            assert f"{sample} {summary['count']}\n" in families
        for group in groups[1:]:
            sample = f'repro_cost_shard_ms_count{{{labels},shard="{group["shard"]}"}}'
            assert f"{sample} {group['queries']}\n" in families

    def test_snapshot_counts_all_observed(self):
        plane = StatsPlane()
        for _ in range(3):
            plane.observe(make_profile(), 1.0)
        snap = plane.snapshot()
        assert snap["queries"] == 3
        assert snap["exemplars_retained"] == 8
