"""Regression tests for query-execution correctness bugs.

Two bugs fixed in PR 1:

* ``execute`` used to wrap ``framework.retrieve`` in a blanket ``except
  TypeError``, so a genuine ``TypeError`` raised deep inside retrieval was
  swallowed and misreported as a capability error.  Capability is now
  checked by signature inspection before the call.
* The cache-hit copy rebuilt items with only ``(object_id, score, rank)``
  (dropping subclass fields) and shared the mutable ``stats`` object with
  the cached entry, so a caller merging into ``response.stats`` corrupted
  the cache.
"""

from dataclasses import dataclass

import pytest

from repro.core.cache import QueryCache
from repro.core.execution import QueryExecution
from repro.data.objects import RawQuery
from repro.errors import SearchError
from repro.index.base import SearchStats
from repro.retrieval.base import (
    RetrievalFramework,
    RetrievalResponse,
    RetrievedItem,
)


@dataclass
class AnnotatedItem(RetrievedItem):
    """A RetrievedItem subclass carrying an extra field."""

    provenance: str = "index"


class UnencodedQueries:
    """An encoder set that hands queries on as they came: the stub below
    searches nothing."""

    def encode_query_batch(self, queries, guard=None):
        return list(queries)


class StubFramework(RetrievalFramework):
    """Minimal framework with controllable search behaviour (``retrieve``
    is a batch of one through ``retrieve_batch``, whose body this is)."""

    name = "stub"

    def __init__(self, items=(), internal_error=None):
        super().__init__()
        self._items = list(items)
        self._internal_error = internal_error
        self.kb = object()  # mark ready
        self.encoder_set = UnencodedQueries()
        self.calls = 0

    def setup(self, kb, encoder_set, index_builder, weights=None):
        raise NotImplementedError

    def _search_encoded(self, queries, k, budget, weights=None, filter_fn=None):
        self.calls += len(queries)
        if self._internal_error is not None:
            raise self._internal_error
        return [
            RetrievalResponse(
                framework=self.name,
                items=[
                    type(item)(**vars(item))
                    for item in self._items[:k]
                ],
                stats=SearchStats(hops=3, distance_evaluations=17),
            )
            for _ in queries
        ]


class WeightlessFramework(StubFramework):
    """Framework that declares no per-query weights."""

    name = "weightless"
    capabilities = frozenset({"filter_fn"})


class TestTypeErrorPropagation:
    def test_internal_type_error_propagates(self):
        # Pre-PR this surfaced as SearchError("...does not support
        # per-query modality weights"), hiding the real bug.
        framework = StubFramework(
            internal_error=TypeError("'NoneType' object is not subscriptable")
        )
        execution = QueryExecution(framework)
        with pytest.raises(TypeError, match="not subscriptable"):
            execution.execute(
                RawQuery.from_text("q"), k=3, weights={"text": 1.0}
            )

    def test_missing_weights_capability_still_rejected(self):
        framework = WeightlessFramework()
        execution = QueryExecution(framework)
        with pytest.raises(SearchError, match="per-query modality weights"):
            execution.execute(RawQuery.from_text("q"), k=3, weights={"text": 1.0})
        # Rejected on the declared capabilities, before any retrieval work ran.
        assert framework.calls == 0

    def test_missing_filter_capability_rejected(self):
        class Unfilterable(StubFramework):
            capabilities = frozenset({"weights"})

        framework = Unfilterable()
        with pytest.raises(SearchError, match="filtered retrieval"):
            QueryExecution(framework).execute(
                RawQuery.from_text("q"), k=3, filter_fn=lambda object_id: True
            )
        assert framework.calls == 0

    def test_var_keyword_framework_accepts_weights(self):
        class Kwargs(StubFramework):
            def retrieve_batch(self, queries, k, budget=64, **kwargs):
                self.calls += len(queries)
                return [
                    RetrievalResponse(framework=self.name, items=[])
                    for _ in queries
                ]

        assert Kwargs.capabilities == {"weights", "filter_fn"}  # the base's
        execution = QueryExecution(Kwargs())
        response = execution.execute(
            RawQuery.from_text("q"), k=3, weights={"text": 1.0}
        )
        assert response.framework == "stub"


class TestRealFrameworkCapabilities:
    """Capabilities are what a framework declares: every ``retrieve_batch``
    takes every option, so the signature says nothing about which it
    honours."""

    @pytest.fixture(scope="class")
    def frameworks(self, scenes_kb, clip_set):
        from repro.index import build_index
        from repro.retrieval import build_framework

        built = {}
        for name in ("mr", "je", "must"):
            framework = build_framework(name, {})
            framework.setup(scenes_kb, clip_set, lambda: build_index("flat", {}))
            built[name] = framework
        return built

    def test_declared_capabilities(self, frameworks):
        assert QueryExecution(frameworks["must"]).capabilities >= {"weights", "filter_fn"}
        assert QueryExecution(frameworks["mr"]).capabilities >= {"weights", "filter_fn"}
        je = QueryExecution(frameworks["je"]).capabilities
        assert "filter_fn" in je and "weights" not in je

    def test_je_rejects_per_query_weights(self, frameworks):
        query = RawQuery.from_text("foggy clouds")
        for execute in (
            lambda e: e.execute(query, k=3, weights={"text": 2.0}),
            lambda e: e.execute_batch([query], k=3, weights={"text": 2.0}),
        ):
            with pytest.raises(SearchError, match="per-query modality weights"):
                execute(QueryExecution(frameworks["je"]))
        assert QueryExecution(frameworks["je"]).execute(query, k=3).ids


class TestCacheHitCopy:
    def _execution(self):
        items = [
            AnnotatedItem(object_id=i, score=0.1 * i, rank=i, provenance="graph")
            for i in range(3)
        ]
        framework = StubFramework(items=items)
        return QueryExecution(framework, cache=QueryCache()), framework

    def test_post_retrieval_stats_merge_does_not_corrupt_cache(self):
        execution, _ = self._execution()
        query = RawQuery.from_text("foggy")
        first = execution.execute(query, k=3)
        # A caller (e.g. a multi-round aggregator) merges more work into
        # the response it got back.
        first.stats.merge(SearchStats(hops=100, distance_evaluations=1000))
        second = execution.execute(query, k=3)
        assert second.stats.hops == 3
        assert second.stats.distance_evaluations == 17

    def test_cached_and_returned_stats_are_distinct_objects(self):
        execution, _ = self._execution()
        query = RawQuery.from_text("foggy")
        execution.execute(query, k=3)
        hit_a = execution.execute(query, k=3)
        hit_b = execution.execute(query, k=3)
        assert hit_a.stats is not hit_b.stats

    def test_subclass_fields_survive_the_cache(self):
        execution, framework = self._execution()
        query = RawQuery.from_text("foggy")
        execution.execute(query, k=3)
        hit = execution.execute(query, k=3)
        assert framework.calls == 1  # second call served from cache
        assert all(isinstance(item, AnnotatedItem) for item in hit.items)
        assert all(item.provenance == "graph" for item in hit.items)

    def test_mutating_returned_items_leaves_cache_intact(self):
        execution, _ = self._execution()
        query = RawQuery.from_text("foggy")
        first = execution.execute(query, k=3)
        first.items[0].rank = 999
        second = execution.execute(query, k=3)
        assert second.items[0].rank == 0
