"""Unit tests for the per-query cost ledger (how it is filled from a trace:
``test_cost_fold.py``)."""

from types import SimpleNamespace

from repro.observability.costs import QueryCostProfile


class TestQueryCostProfile:
    def test_add_search_stats_accumulates_counters(self):
        profile = QueryCostProfile(framework="must", index="hnsw")
        stats = SimpleNamespace(
            distance_evaluations=10, hops=4, block_reads=2, cache_hits=1
        )
        profile.add_search_stats(stats)
        profile.add_search_stats(stats)
        assert profile.distance_evaluations == 20
        assert profile.hops == 8
        assert profile.block_reads == 4
        assert profile.cache_hits == 2

    def test_add_search_stats_tolerates_none_and_missing_fields(self):
        profile = QueryCostProfile(framework="must")
        profile.add_search_stats(None)
        profile.add_search_stats(SimpleNamespace(distance_evaluations=3))
        assert profile.distance_evaluations == 3
        assert profile.hops == 0

    def test_add_stage_accumulates_time_per_name(self):
        profile = QueryCostProfile(framework="mr")
        profile.add_stage("encode", 1.5)
        profile.add_stage("encode", 2.5)
        profile.add_stage("search", 3.0)
        assert profile.stage_ms == {"encode": 4.0, "search": 3.0}

    def test_signature_covers_work_not_timing(self):
        profile = QueryCostProfile(framework="must", index="flat")
        profile.add_stage("search", 9.0)
        profile.add_shard(shard=0, ms=1.0)
        signature = profile.signature()
        assert "stage_ms" not in signature
        assert "shards" not in signature
        assert signature["framework"] == "must"
        assert signature["cache"] == "off"

    def test_to_dict_omits_empty_optional_fields(self):
        body = QueryCostProfile(framework="je", index="hnsw").to_dict()
        assert "batch" not in body
        assert "shards" not in body
        assert "shards_failed" not in body
        assert "trace_id" not in body
        assert body["stage_ms"] == {}

    def test_to_dict_carries_shards_and_trace_id_when_set(self):
        profile = QueryCostProfile(framework="shard-router", shards_total=2)
        profile.add_shard(shard=0, replica=0, ok=True, ms=1.25)
        profile.shards_failed = 1
        profile.trace_id = 7
        body = profile.to_dict()
        assert body["shards"] == [
            {"shard": 0, "replica": 0, "ok": True, "ms": 1.25}
        ]
        assert body["shards_failed"] == 1
        assert body["trace_id"] == 7
