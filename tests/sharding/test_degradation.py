"""Graceful degradation: a failing shard shrinks the answer, never kills it.

Covers the per-shard breaker sites, partial-result merging with
``degraded_reasons``, the no-caching rule for partial responses, and how
the coordinator and ``GET /health`` surface shard loss.
"""

from __future__ import annotations

import pytest

from repro.core import MQAConfig
from repro.core.cache import QueryCache
from repro.core.execution import QueryExecution
from repro.core.resilience import ResilienceManager, RetryPolicy
from repro.data import DatasetSpec
from repro.data.objects import RawQuery
from repro.errors import EncodingError, RetrievalError
from repro.server.api import ApiServer

from tests.sharding.conftest import BUDGET, K, make_router
from tests.sharding.test_router_parity import baseline, query_pool


def _break_shard(router, shard_index):
    """Make every replica of one shard raise on search."""

    def boom(*args, **kwargs):
        raise RetrievalError("injected shard outage")

    for replica in router.groups[shard_index].replicas:
        replica.search_batch = boom


class TestPartialResults:
    def test_lost_shard_degrades_but_answers(self, scenes_kb, clip_set):
        plain = baseline(scenes_kb, clip_set, "must", "flat")
        router = make_router(scenes_kb, clip_set, shards=3)
        _break_shard(router, 1)
        lost = set(router.groups[1].live_global_ids())
        for query in query_pool(scenes_kb, count=4):
            response = router.retrieve(query, k=K, budget=BUDGET)
            assert response.degraded_reasons == [
                "shard 1 unavailable (RetrievalError)"
            ]
            assert not set(response.ids) & lost
            surviving = [
                object_id
                for object_id in plain.retrieve(query, k=K, budget=BUDGET).ids
                if object_id not in lost
            ]
            # Every unsharded winner outside the lost shard still ranks.
            assert set(surviving) <= set(response.ids)
        assert router.snapshot()["degraded_searches"] == 4
        assert not router.groups[1].replicas[0].healthy

    def test_batch_degrades_identically(self, scenes_kb, clip_set):
        router = make_router(scenes_kb, clip_set, shards=3)
        _break_shard(router, 2)
        queries = query_pool(scenes_kb, count=3)
        responses = router.retrieve_batch(queries, k=K, budget=BUDGET)
        assert len(responses) == 3
        for query, response in zip(queries, responses):
            assert response.degraded_reasons == [
                "shard 2 unavailable (RetrievalError)"
            ]
            assert response.ids == router.retrieve(query, k=K, budget=BUDGET).ids

    def test_all_shards_lost_is_an_error(self, scenes_kb, clip_set):
        router = make_router(scenes_kb, clip_set, shards=2)
        _break_shard(router, 0)
        _break_shard(router, 1)
        with pytest.raises(RetrievalError, match="all 2 shards unavailable"):
            router.retrieve(query_pool(scenes_kb)[0], k=K, budget=BUDGET)

    def test_healthy_replica_takes_over(self, scenes_kb, clip_set):
        """With replicas, one bad copy degrades one call, then the healthy
        replica serves and the shard stays up."""
        router = make_router(scenes_kb, clip_set, shards=2, replicas=2)

        def boom(*args, **kwargs):
            raise RetrievalError("replica down")

        router.groups[0].replicas[0].search_batch = boom
        query = query_pool(scenes_kb)[0]
        first = router.retrieve(query, k=K, budget=BUDGET)
        assert first.degraded_reasons  # the bad replica answered first
        second = router.retrieve(query, k=K, budget=BUDGET)
        assert second.degraded_reasons == []  # round-robin skipped it


class TestBreakerSites:
    def _resilient_router(self, scenes_kb, clip_set, threshold=2):
        manager = ResilienceManager(
            enabled=True,
            retry=RetryPolicy(attempts=1),
            breaker_threshold=threshold,
            breaker_reset_ms=60_000.0,
        )
        router = make_router(
            scenes_kb, clip_set, shards=2, resilience=manager
        )
        return router, manager

    def test_breaker_opens_per_shard(self, scenes_kb, clip_set):
        router, manager = self._resilient_router(scenes_kb, clip_set)
        _break_shard(router, 0)
        query = query_pool(scenes_kb)[0]
        for _ in range(2):  # reach the threshold
            response = router.retrieve(query, k=K, budget=BUDGET)
            assert response.degraded_reasons == [
                "shard 0 unavailable (RetrievalError)"
            ]
        tripped = router.retrieve(query, k=K, budget=BUDGET)
        assert tripped.degraded_reasons == [
            "shard 0 unavailable (breaker open)"
        ]
        snap = router.snapshot()
        assert snap["breakers"]["shard.0.search"]["state"] == "open"
        assert "shard.1.search" not in snap["breakers"] or (
            snap["breakers"]["shard.1.search"]["state"] == "closed"
        )

    def test_open_breaker_spares_the_failing_replica(self, scenes_kb, clip_set):
        """Once open, the breaker rejects before the shard is called."""
        router, _ = self._resilient_router(scenes_kb, clip_set)
        calls = {"n": 0}

        def boom(*args, **kwargs):
            calls["n"] += 1
            raise RetrievalError("injected shard outage")

        for replica in router.groups[0].replicas:
            replica.search_batch = boom
        query = query_pool(scenes_kb)[0]
        for _ in range(5):
            router.retrieve(query, k=K, budget=BUDGET)
        assert calls["n"] == 2  # only the threshold-reaching calls got through


class TestDegradedResponsesAreNeverCached:
    def _system(self, scenes_kb, clip_set):
        router = make_router(scenes_kb, clip_set, shards=3)
        _break_shard(router, 1)
        return QueryExecution(router, cache=QueryCache(capacity=16)), router

    def test_serial_execute_skips_cache(self, scenes_kb, clip_set):
        execution, _ = self._system(scenes_kb, clip_set)
        query = query_pool(scenes_kb)[0]
        for _ in range(2):
            response = execution.execute(query, k=K, budget=BUDGET)
            assert response.degraded_reasons
        assert execution.cache.size == 0
        assert execution.cache.misses == 2
        assert execution.cache.hits == 0

    def test_batch_execute_skips_cache(self, scenes_kb, clip_set):
        execution, _ = self._system(scenes_kb, clip_set)
        queries = query_pool(scenes_kb, count=3)
        responses = execution.execute_batch(queries, k=K, budget=BUDGET)
        assert all(response.degraded_reasons for response in responses)
        assert execution.cache.size == 0

    def test_recovered_shard_resumes_caching(self, scenes_kb, clip_set):
        router = make_router(scenes_kb, clip_set, shards=2)
        execution = QueryExecution(router, cache=QueryCache(capacity=16))
        query = query_pool(scenes_kb)[0]
        execution.execute(query, k=K, budget=BUDGET)
        assert execution.cache.size == 1
        assert execution.execute(query, k=K, budget=BUDGET).ids
        assert execution.cache.hits == 1


class TestServerSurface:
    def _server(self, shards=2):
        config = MQAConfig(
            dataset=DatasetSpec(domain="scenes", size=48, seed=7),
            shards=shards,
            weight_learning={"steps": 5, "batch_size": 8},
        )
        server = ApiServer(config)
        applied = server.handle("POST", "/apply")
        assert applied.get("ok"), applied
        return server

    def test_health_exposes_the_shard_ledger(self):
        server = self._server(shards=2)
        try:
            health = server.handle("GET", "/health")
            sharding = health["sharding"]
            assert sharding["enabled"] is True
            assert sharding["shards"] == 2
            assert len(sharding["per_shard"]) == 2
        finally:
            server.close()

    def test_unsharded_health_reports_none(self):
        config = MQAConfig(
            dataset=DatasetSpec(domain="scenes", size=48, seed=7),
            weight_learning={"steps": 5, "batch_size": 8},
        )
        server = ApiServer(config)
        try:
            assert server.handle("POST", "/apply").get("ok")
            assert server.handle("GET", "/health")["sharding"] is None
        finally:
            server.close()

    def test_degraded_answer_reaches_the_dialogue(self):
        server = self._server(shards=3)
        try:
            router = server._coordinator.execution.framework
            _break_shard(router, 0)
            response = server.handle(
                "POST", "/query", {"text": "a scene", "session": 0}
            )
            assert response["ok"], response
            assert response["answer"]["degraded"] is True
            reasons = response["answer"]["degraded_reasons"]
            assert any("shard 0 unavailable" in reason for reason in reasons)
        finally:
            server.close()


class TestMalformedRequestIsNotAShardFailure:
    """An ``EncodingError`` is the request's fault and the same on every
    shard: it reaches the caller as the unsharded engine raises it, and no
    replica, breaker or degraded-search counter books it.  (Three
    ``{"text": 5}`` bodies used to mark every replica of every shard
    unhealthy and come back as ``all 2 shards unavailable``.)"""

    def _server(self, **overrides):
        server = ApiServer(
            MQAConfig(
                dataset=DatasetSpec(domain="scenes", size=48, seed=7),
                weight_learning={"steps": 5, "batch_size": 8},
                index="flat",
                **overrides,
            )
        )
        assert server.handle("POST", "/apply").get("ok")
        return server

    @pytest.mark.parametrize("resilience", [False, True])
    def test_poison_body_marks_no_replica(self, resilience):
        def verdict(server):
            reply = server.handle("POST", "/query", {"text": 5})
            answer = reply.get("answer", {})
            return reply["ok"], reply.get("error"), answer.get("degraded_reasons")

        with self._server(resilience=resilience) as plain:
            expected = verdict(plain)
        if not resilience:
            assert expected[0] is False and "'text' must be a string" in expected[1]
        with self._server(shards=2, replicas=2, resilience=resilience) as server:
            router = server._coordinator.execution.framework
            for _ in range(3):
                assert verdict(server) == expected
                # A resilient round drops the modality before retrieval, so
                # also send the router the read itself.
                with pytest.raises(EncodingError, match="expects a string"):
                    router.retrieve(RawQuery.from_text(5), k=K, budget=BUDGET)
            health = server.handle("GET", "/health")
            sharding = health["sharding"]
            assert sharding["degraded_searches"] == 0
            assert [
                [replica["healthy"] for replica in shard["replicas"]]
                for shard in sharding["per_shard"]
            ] == [[True, True], [True, True]]
            assert all(
                replica["errors"] == 0
                for shard in sharding["per_shard"]
                for replica in shard["replicas"]
            )
            # The read is encoded once, before the scatter: a refused one
            # reaches no shard, so no shard breaker is even consulted.
            assert sharding["breakers"] == {}
            for state in sharding["breakers"].values():
                assert state["state"] == "closed"
                assert state["consecutive_failures"] == state["times_opened"] == 0
            events = server.handle("GET", "/events")["events"]
            assert not [e for e in events if e["kind"] == "replica-probe"]
            # ...and the deployment still answers.
            good = server.handle("POST", "/query", {"text": "foggy clouds"})
            assert good["ok"] and not good["answer"]["degraded"]

    def test_a_shard_outage_still_degrades(self, scenes_kb, clip_set):
        router = make_router(scenes_kb, clip_set, shards=2, replicas=2)
        _break_shard(router, 0)
        response = router.retrieve(query_pool(scenes_kb)[0], k=K, budget=BUDGET)
        assert response.degraded_reasons == ["shard 0 unavailable (RetrievalError)"]
        assert router.snapshot()["degraded_searches"] == 1


class TestModalityDropBehindTheRouter:
    """One capability reader: the degradation stage asks the framework what
    it takes, and a router answers for the framework it wraps — so a JE
    deployment that lost its image encoder drops the modality *without*
    sending the weights JE cannot take, at any shard count."""

    def _degraded_answer(self, shards):
        from repro.core import MQASystem

        system = MQASystem.from_config(
            MQAConfig(
                dataset=DatasetSpec(domain="scenes", size=48, seed=7),
                framework="je",
                encoder_set="clip-joint",
                index="flat",
                shards=shards,
                resilience=True,
                faults={"encoder.image": {"error_rate": 1.0}},
                llm="none",
            )
        )
        reference = system.coordinator.get_object(3)
        from repro.data import Modality

        return system.ask("foggy clouds", image=reference.get(Modality.IMAGE))

    def test_sharded_je_keeps_its_degraded_answers(self):
        plain = self._degraded_answer(None)
        assert plain.degraded_reasons == [
            "modality image dropped (InjectedFaultError)"
        ]
        assert len(plain.items) == 5
        for shards in (1, 2):
            sharded = self._degraded_answer(shards)
            assert sharded.degraded_reasons == plain.degraded_reasons, shards
            assert [item.object_id for item in sharded.items] == [
                item.object_id for item in plain.items
            ], shards
