"""Scatter-gather parity: the router's results equal the unsharded engine.

Three layers of guarantee, each pinned here:

* ``shards=1`` — the router is a pure pass-through, so responses are
  *bit-identical* (same scores, same stats, same response fields) at any
  batch width: ``retrieve`` is ``retrieve_batch`` with one query.
* ``shards>1`` — result ids are identical for every framework and every
  index type (scores may differ in the last ulps because per-shard BLAS
  reductions accumulate in a different order — see conftest).
* any shard assignment — a Hypothesis-drawn arbitrary object→shard map
  still yields the unsharded top-k, because the merge is exact.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.objects import RawQuery
from repro.index import available_indexes, build_index
from repro.retrieval import build_framework

from tests.sharding.conftest import BUDGET, K, assert_same_topk, make_router

FRAMEWORKS = ["mr", "je", "must"]


def query_pool(kb, count=6):
    """Deterministic mixed text / text+image queries over the corpus."""
    queries = []
    for position, obj in enumerate(list(kb)[:count]):
        if position % 2:
            queries.append(
                RawQuery.from_text_and_image(str(obj.get("text")), obj.get("image"))
            )
        else:
            queries.append(RawQuery.from_text(str(obj.get("text"))))
    return queries


_BASELINES = {}


def baseline(kb, encoder_set, framework: str, index: str):
    """The unsharded framework for (framework, index), built once."""
    key = (framework, index)
    if key not in _BASELINES:
        engine = build_framework(framework, {})
        engine.setup(kb, encoder_set, lambda: build_index(index, {}))
        _BASELINES[key] = engine
    return _BASELINES[key]


class TestPassthroughBitIdentity:
    """shards=1: the inner framework's response comes back untouched."""

    @pytest.mark.parametrize("framework", FRAMEWORKS)
    def test_scores_and_stats_are_bit_identical(
        self, scenes_kb, clip_set, framework
    ):
        plain = baseline(scenes_kb, clip_set, framework, "flat")
        router = make_router(scenes_kb, clip_set, framework=framework, shards=1)
        for query in query_pool(scenes_kb):
            expected = plain.retrieve(query, k=K, budget=BUDGET)
            actual = router.retrieve(query, k=K, budget=BUDGET)
            assert [i.object_id for i in actual.items] == [
                i.object_id for i in expected.items
            ]
            assert [i.score for i in actual.items] == [
                i.score for i in expected.items
            ]
            assert actual.stats.distance_evaluations == (
                expected.stats.distance_evaluations
            )
            assert actual.framework == expected.framework
            assert actual.degraded_reasons == []

    def test_batch_is_bit_identical_too(self, scenes_kb, clip_set):
        """The one pass-through body serves any batch width: a B=N row is
        the inner framework's row, and the query routed alone."""
        plain = baseline(scenes_kb, clip_set, "must", "flat")
        router = make_router(scenes_kb, clip_set, shards=1)
        queries = query_pool(scenes_kb)
        expected = plain.retrieve_batch(queries, k=K, budget=BUDGET)
        actual = router.retrieve_batch(queries, k=K, budget=BUDGET)
        assert len(actual) == len(queries)
        for query, left, right in zip(queries, actual, expected):
            (alone,) = router.retrieve_batch([query], k=K, budget=BUDGET)
            for other in (right, alone):
                assert [i.object_id for i in left.items] == [
                    i.object_id for i in other.items
                ]
                assert [i.score for i in left.items] == [
                    i.score for i in other.items
                ]
                assert left.stats == other.stats


class TestShardedIdIdentity:
    @pytest.mark.parametrize("framework", FRAMEWORKS)
    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_frameworks_over_flat(self, scenes_kb, clip_set, framework, shards):
        plain = baseline(scenes_kb, clip_set, framework, "flat")
        router = make_router(
            scenes_kb, clip_set, framework=framework, shards=shards
        )
        for query in query_pool(scenes_kb):
            assert_same_topk(
                plain.retrieve(query, k=K, budget=BUDGET),
                router.retrieve(query, k=K, budget=BUDGET),
            )

    @pytest.mark.parametrize("weights", [{"text": 1.8, "image": 0.2}])
    def test_per_query_weights_over_flat(self, scenes_kb, clip_set, weights):
        """Per-query weights reach every shard's scan, so the merge of exact
        per-shard answers under ``weights`` is the exact global answer under
        ``weights`` (re-ranked per-shard over-fetch pools were not)."""
        plain = baseline(scenes_kb, clip_set, "must", "flat")
        router = make_router(scenes_kb, clip_set, shards=3)
        objects = list(scenes_kb)
        for one, other in zip(objects[:12], objects[60:72]):
            # One object's text with another's image: the modalities
            # disagree, so the weighting decides the ranking.
            query = RawQuery.from_text_and_image(
                str(one.get("text")), other.get("image")
            )
            assert_same_topk(
                plain.retrieve(query, k=K, budget=BUDGET, weights=weights),
                router.retrieve(query, k=K, budget=BUDGET, weights=weights),
            )

    @pytest.mark.parametrize("index", sorted(available_indexes()))
    def test_every_index_type(self, scenes_kb, clip_set, index):
        """The merge holds for exact and graph indexes alike: the budget
        is exhaustive over this corpus, so per-shard search is exact."""
        plain = baseline(scenes_kb, clip_set, "must", index)
        router = make_router(scenes_kb, clip_set, index=index, shards=3)
        for query in query_pool(scenes_kb, count=4):
            assert_same_topk(
                plain.retrieve(query, k=K, budget=BUDGET),
                router.retrieve(query, k=K, budget=BUDGET),
            )

    @pytest.mark.parametrize("partitioner", ["hash", "concept"])
    def test_partitioner_choice_never_changes_results(
        self, scenes_kb, clip_set, partitioner
    ):
        plain = baseline(scenes_kb, clip_set, "must", "flat")
        router = make_router(
            scenes_kb, clip_set, shards=4, partitioner=partitioner
        )
        for query in query_pool(scenes_kb):
            assert_same_topk(
                plain.retrieve(query, k=K, budget=BUDGET),
                router.retrieve(query, k=K, budget=BUDGET),
            )

    def test_batch_matches_serial_scatter(self, scenes_kb, clip_set):
        """A scattered B=N row equals that query scattered alone — ids,
        scores and merged work counters (same shards, same merge)."""
        router = make_router(scenes_kb, clip_set, shards=3)
        queries = query_pool(scenes_kb)
        batched = router.retrieve_batch(queries, k=K, budget=BUDGET)
        for query, response in zip(queries, batched):
            alone = router.retrieve(query, k=K, budget=BUDGET)
            assert [i.object_id for i in response.items] == [
                i.object_id for i in alone.items
            ]
            assert [i.score for i in response.items] == [
                i.score for i in alone.items
            ]
            assert response.stats == alone.stats

    def test_replicas_never_change_results(self, scenes_kb, clip_set):
        """Round-robin replica selection is invisible in the answers."""
        single = make_router(scenes_kb, clip_set, shards=2, replicas=1)
        triple = make_router(scenes_kb, clip_set, shards=2, replicas=3)
        for query in query_pool(scenes_kb):
            expected = single.retrieve(query, k=K, budget=BUDGET)
            for _ in range(3):  # sweep the whole replica rotation
                assert_same_topk(
                    expected, triple.retrieve(query, k=K, budget=BUDGET)
                )

    def test_filtered_retrieval_parity(self, scenes_kb, clip_set):
        plain = baseline(scenes_kb, clip_set, "must", "flat")
        router = make_router(scenes_kb, clip_set, shards=3)
        keep = lambda object_id: object_id % 2 == 0  # noqa: E731
        for query in query_pool(scenes_kb, count=4):
            expected = plain.retrieve(query, k=K, budget=BUDGET, filter_fn=keep)
            actual = router.retrieve(query, k=K, budget=BUDGET, filter_fn=keep)
            assert all(item.object_id % 2 == 0 for item in actual.items)
            assert_same_topk(expected, actual)


class _ExplicitPartitioner:
    """Assigns object id ``i`` to ``assignment[i]`` — Hypothesis's pick."""

    name = "explicit"

    def __init__(self, assignment):
        self.assignment = assignment

    def assign(self, obj):
        return self.assignment[obj.object_id % len(self.assignment)]


class TestAnyAssignment:
    """The unsharded top-k survives *any* object→shard map, ties included."""

    @given(
        assignment=st.lists(
            st.integers(min_value=0, max_value=2), min_size=1, max_size=40
        ),
        query_index=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=15, deadline=None)
    def test_arbitrary_partition_matches_unsharded(
        self, scenes_kb, clip_set, assignment, query_index
    ):
        from repro.core.sharding import ShardRouter
        from repro.index import build_index

        plain = baseline(scenes_kb, clip_set, "must", "flat")
        router = ShardRouter(framework_name="must", shards=3)
        router.partitioner = _ExplicitPartitioner(assignment)
        router.setup(scenes_kb, clip_set, lambda: build_index("flat", {}))
        query = query_pool(scenes_kb)[query_index]
        assert_same_topk(
            plain.retrieve(query, k=K, budget=BUDGET),
            router.retrieve(query, k=K, budget=BUDGET),
        )
