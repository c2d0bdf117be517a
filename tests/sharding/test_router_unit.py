"""Unit behaviour of the router's moving parts: partitioners, replica
selection, config validation, writes, and introspection surfaces."""

from __future__ import annotations

import pytest

from repro.core import MQAConfig
from repro.core.sharding import (
    ConceptPartitioner,
    HashPartitioner,
    ShardGroup,
    ShardReplica,
    available_partitioners,
    build_partitioner,
)
from repro.data import DatasetSpec
from repro.errors import ConfigurationError, RetrievalError

from tests.sharding.conftest import BUDGET, K, make_router
from tests.sharding.test_router_parity import baseline, query_pool


class TestPartitioners:
    def test_registry(self):
        assert available_partitioners() == ["concept", "hash"]
        assert isinstance(build_partitioner("hash", 3), HashPartitioner)
        assert isinstance(build_partitioner("concept", 3), ConceptPartitioner)

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(RetrievalError, match="concept, hash"):
            build_partitioner("range", 3)

    def test_hash_is_deterministic_and_in_range(self, scenes_kb):
        first = HashPartitioner(5)
        second = HashPartitioner(5)
        for obj in scenes_kb:
            shard = first.assign(obj)
            assert 0 <= shard < 5
            assert second.assign(obj) == shard

    def test_concept_colocates_leading_concept(self, scenes_kb):
        partitioner = ConceptPartitioner(4)
        by_concept = {}
        for obj in scenes_kb:
            if not obj.concepts:
                continue
            shard = partitioner.assign(obj)
            assert 0 <= shard < 4
            leading = obj.concepts[0]
            assert by_concept.setdefault(leading, shard) == shard

    def test_concept_falls_back_to_id_hash(self, scenes_kb):
        from dataclasses import replace

        partitioner = ConceptPartitioner(4)
        obj = replace(next(iter(scenes_kb)), concepts=())
        assert partitioner.assign(obj) == HashPartitioner(4).assign(obj)


class TestConfigValidation:
    def _config(self, **kwargs):
        return MQAConfig(
            dataset=DatasetSpec(domain="scenes", size=24, seed=1), **kwargs
        )

    def test_defaults_disable_sharding(self):
        config = self._config()
        assert config.shards is None
        assert not config.sharding_enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"shards": -2},
            {"replicas": 0},
            {"partitioner": "range"},
        ],
    )
    def test_invalid_values_are_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            self._config(**kwargs)

    def test_extra_replicas_alone_enable_sharding(self):
        assert self._config(replicas=2).sharding_enabled
        assert self._config(shards=1).sharding_enabled


class TestRouterConstruction:
    def test_bad_counts_are_rejected(self):
        from repro.core.sharding import ShardRouter

        with pytest.raises(RetrievalError, match="shards must be >= 1"):
            ShardRouter(framework_name="must", shards=0)
        with pytest.raises(RetrievalError, match="replicas must be >= 1"):
            ShardRouter(framework_name="must", shards=2, replicas=0)

    def test_describe_names_the_layout(self, scenes_kb, clip_set):
        router = make_router(scenes_kb, clip_set, shards=3, replicas=2)
        text = router.describe()
        assert "3 shard(s)" in text
        assert "2 replica(s)" in text
        assert "'must'" in text


class TestReplicaSelection:
    def _group(self, replicas=3):
        return ShardGroup(0, [ShardReplica(0, i) for i in range(replicas)])

    def test_round_robin_cycles_all_replicas(self):
        group = self._group()
        picked = [group.select().replica_index for _ in range(6)]
        assert picked == [0, 1, 2, 0, 1, 2]

    def test_unhealthy_replica_is_skipped(self):
        group = self._group()
        group.mark(group.replicas[1], False)
        picked = [group.select().replica_index for _ in range(4)]
        assert 1 not in picked
        assert group.replicas[1].errors == 1

    def test_unhealthy_replica_gets_probed_eventually(self):
        group = self._group(replicas=2)
        group.mark(group.replicas[0], False)
        picked = [
            group.select().replica_index
            for _ in range(2 * ShardGroup.PROBE_EVERY + 2)
        ]
        assert 0 in picked  # the periodic probe offered it again

    def test_all_unhealthy_still_serves(self):
        group = self._group(replicas=2)
        for replica in group.replicas:
            group.mark(replica, False)
        assert group.select() is not None

    def test_recovery_after_successful_probe(self):
        group = self._group(replicas=2)
        group.mark(group.replicas[0], False)
        group.mark(group.replicas[0], True)
        picked = {group.select().replica_index for _ in range(4)}
        assert picked == {0, 1}


class TestWritesAndRemoval:
    def test_remove_unknown_id_is_an_error(self, scenes_kb, clip_set):
        router = make_router(scenes_kb, clip_set, shards=2)
        with pytest.raises(RetrievalError, match="not held by any shard"):
            router.remove_object(10_000)
        with pytest.raises(RetrievalError, match="invalid object id"):
            router.remove_object(-1)

    def test_remove_hides_and_restore_recovers(self, scenes_kb, clip_set):
        plain = baseline(scenes_kb, clip_set, "must", "flat")
        router = make_router(scenes_kb, clip_set, shards=3)
        query = query_pool(scenes_kb)[0]
        victim = plain.retrieve(query, k=K, budget=BUDGET).ids[0]

        router.remove_object(victim)
        assert victim not in router.retrieve(query, k=K, budget=BUDGET).ids
        assert router.snapshot()["deleted"] == 1

        router.restore_object(victim)
        assert victim in router.retrieve(query, k=K, budget=BUDGET).ids
        assert router.snapshot()["deleted"] == 0

    def test_ingest_routes_to_partitioner_choice(self, scenes_kb, clip_set):
        from dataclasses import replace

        router = make_router(
            scenes_kb, clip_set, shards=3, rebalance_threshold=0
        )
        template = next(iter(scenes_kb))
        new_id = len(scenes_kb)
        obj = replace(template, object_id=new_id)
        router.add_object(obj)
        owner = router.owner_of(new_id)
        assert owner == router.partitioner.assign(obj)
        assert router.groups[owner].holds(new_id)


class TestCapabilityMirroring:
    def test_je_rejects_weights_like_unsharded(self, scenes_kb, clip_set):
        router = make_router(scenes_kb, clip_set, framework="je", shards=2)
        query = query_pool(scenes_kb)[0]
        with pytest.raises(
            RetrievalError, match="does not support per-query modality weights"
        ):
            router.retrieve(query, k=K, budget=BUDGET, weights={"text": 2.0})

    def test_execution_refuses_for_the_inner_framework(self, scenes_kb, clip_set):
        """Query execution reads the router's capabilities — the inner
        framework's — and names the framework that cannot, as unsharded."""
        from repro.core.execution import QueryExecution
        from repro.errors import SearchError

        router = make_router(scenes_kb, clip_set, framework="je", shards=2)
        with pytest.raises(
            SearchError, match="framework 'je' does not support per-query modality"
        ):
            QueryExecution(router).execute(
                query_pool(scenes_kb)[0], k=K, budget=BUDGET, weights={"text": 2.0}
            )

    def test_fanout_is_a_router_only_capability(self, scenes_kb, clip_set):
        """``fanout`` reaches the one scatter body — batches included, where
        the planner's degraded mode used to be dropped — and only the
        router declares it."""
        from repro.core.execution import QueryExecution

        router = make_router(scenes_kb, clip_set, shards=3)
        queries = query_pool(scenes_kb, count=3)
        reason = "fanout limited to 1/3 shards (planner)"
        first_shard = set(router.groups[0].live_global_ids())
        limited = router.retrieve_batch(queries, k=K, budget=BUDGET, fanout=1)
        for query, response in zip(queries, limited):
            assert response.degraded_reasons == [reason]
            assert set(response.ids) <= first_shard
            alone = router.retrieve(query, k=K, budget=BUDGET, fanout=1)
            assert alone.ids == response.ids
            assert alone.degraded_reasons == [reason]
        full = router.retrieve_batch(queries, k=K, budget=BUDGET, fanout=3)
        assert all(response.degraded_reasons == [] for response in full)
        assert "fanout" in QueryExecution(router).capabilities
        inner = router.groups[0].replicas[0].framework
        assert "fanout" not in QueryExecution(inner).capabilities

    def test_nonpositive_k_is_rejected(self, scenes_kb, clip_set):
        router = make_router(scenes_kb, clip_set, shards=2)
        with pytest.raises(RetrievalError, match="k must be positive"):
            router.retrieve(query_pool(scenes_kb)[0], k=0, budget=BUDGET)


class _AllToZero:
    """Degenerate partitioner leaving every other shard empty."""

    name = "all-to-zero"

    def assign(self, obj):
        return 0


class TestEmptyShards:
    def test_empty_shards_contribute_nothing(self, scenes_kb, clip_set):
        from repro.core.sharding import ShardRouter
        from repro.index import build_index

        plain = baseline(scenes_kb, clip_set, "must", "flat")
        router = ShardRouter(framework_name="must", shards=3)
        router.partitioner = _AllToZero()
        router.setup(scenes_kb, clip_set, lambda: build_index("flat", {}))
        assert router.groups[1].live_count() == 0
        for query in query_pool(scenes_kb, count=3):
            expected = plain.retrieve(query, k=K, budget=BUDGET)
            actual = router.retrieve(query, k=K, budget=BUDGET)
            assert actual.ids == expected.ids


class TestSnapshot:
    def test_ledger_shape(self, scenes_kb, clip_set):
        router = make_router(scenes_kb, clip_set, shards=2, replicas=2)
        snap = router.snapshot()
        assert snap["enabled"] is True
        assert snap["shards"] == 2
        assert snap["replicas"] == 2
        assert snap["objects"] == len(scenes_kb)
        assert len(snap["per_shard"]) == 2
        for shard_entry in snap["per_shard"]:
            assert len(shard_entry["replicas"]) == 2
            for replica_entry in shard_entry["replicas"]:
                assert replica_entry["healthy"] is True
        assert snap["breakers"] == {}
