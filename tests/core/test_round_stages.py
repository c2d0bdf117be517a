"""One retrieval body, one stage list.

(a) Row ``i`` of ``QueryExecution.execute_batch`` is ``execute(q_i)`` under
every cache and every shared option.  (b) ``Coordinator.setup()`` installs
exactly the stages and observers the flags ask for.  (c) All layers on at
once still answer every verb, trace every request once and clean up.
"""

import os
import struct
import threading

import numpy as np
import pytest

from repro.core import MQAConfig
from repro.core.cache import QueryCache, SemanticQueryCache
from repro.core.coordinator import Coordinator
from repro.core.execution import QueryExecution
from repro.data import DatasetSpec, Modality, RawQuery
from repro.errors import ConfigurationError
from repro.index import build_index
from repro.retrieval import RetrievalFramework, build_framework
from repro.server import ApiServer

K, BUDGET = 4, 48
DEGRADED_TEXT = "stormy mountain pass"


class LossyFramework(RetrievalFramework):
    """The real framework, except one text always comes back partial (as a
    router that lost a shard would return it) and so is never cached."""

    name = "lossy"

    def __init__(self, inner):
        super().__init__()
        self.inner, self.kb, self.encoder_set = inner, inner.kb, inner.encoder_set

    def setup(self, kb, encoder_set, index_builder, weights=None):
        raise NotImplementedError

    def _search_encoded(self, queries, k, budget, weights=None, filter_fn=None):
        responses = self.inner.retrieve_batch(
            queries, k, budget=budget, weights=weights, filter_fn=filter_fn
        )
        for query, response in zip(queries, responses):
            if query.content[Modality.TEXT] == DEGRADED_TEXT:
                response.degraded_reasons = ["shard 1 unavailable"]
        return responses


@pytest.fixture(scope="module")
def framework(scenes_kb, clip_set):
    inner = build_framework("must")
    inner.setup(scenes_kb, clip_set, lambda: build_index("flat", {}))
    return LossyFramework(inner)


def make_cache(kind):
    if kind == "exact":
        return QueryCache()
    if kind == "semantic":

        def embed(query):
            vector = query[Modality.TEXT]
            return ("text",), vector / np.linalg.norm(vector)

        return SemanticQueryCache(embed, threshold=0.9)
    return None


def batch_queries(kb):
    augmented = QueryExecution.augment_query("more dramatic", kb.get(3))
    texts = [
        "foggy clouds",           # misses
        DEGRADED_TEXT,            # degraded first occurrence: never cached
        "sunny shoreline",
        "foggy clouds",           # a key repeated inside the batch
        DEGRADED_TEXT,            # repeat of the uncached, degraded key
        "quiet shoreline dusk",   # semantic hit on the warmed neighbour
    ]
    return [RawQuery.from_text(text) for text in texts] + [augmented]


def observed(response):
    return (
        response.ids,
        [struct.pack("<d", item.score) for item in response.items],
        [item.rank for item in response.items],
        response.stats,
        response.cost.cache,
        response.cost.signature(),
        response.degraded_reasons,
    )


class TestBatchRowIsASerialCall:
    @pytest.mark.parametrize("cache_kind", ["none", "exact", "semantic"])
    @pytest.mark.parametrize("option", ["none", "weights", "exclude_ids", "filter_fn"])
    def test_row_parity(self, framework, scenes_kb, clip_set, cache_kind, option):
        queries = batch_queries(scenes_kb)
        top = framework.inner.retrieve(queries[0], K).ids
        options = {
            "none": {},
            "weights": {"weights": {"text": 0.7, "image": 0.3}},
            "exclude_ids": {"exclude_ids": [top[0], top[2]]},
            "filter_fn": {"filter_fn": lambda object_id: object_id % 3 != 0},
        }[option]

        def execution():
            made = QueryExecution(
                framework,
                cache=make_cache(cache_kind),
                cost_accounting=True,
                index_name="flat",
            )
            # A cached near-duplicate of the batch's last text query.
            made.execute(
                RawQuery.from_text("dusk shoreline quiet"), K, BUDGET, **options
            )
            return made

        batched, serial = execution(), execution()
        rows = batched.execute_batch(queries, K, BUDGET, **options)
        singles = [serial.execute(query, K, BUDGET, **options) for query in queries]
        assert [observed(row) for row in rows] == [observed(one) for one in singles]
        assert all(len(row.items) == K for row in rows)
        labels = [row.cost.cache for row in rows]
        if option == "filter_fn" and cache_kind != "none":
            assert set(labels) == {"bypass"}
        elif cache_kind == "none":
            assert set(labels) == {"off"}
        else:
            assert labels[:5] == ["miss", "miss", "miss", "hit", "miss"]
            assert labels[5] == ("semantic" if cache_kind == "semantic" else "miss")
        if batched.cache is not None:
            assert batched.cache.snapshot() == serial.cache.snapshot()

    def test_exclusions_hold_and_never_reach_the_cache(self, framework, scenes_kb):
        execution = QueryExecution(framework, cache=QueryCache())
        query = RawQuery.from_text("foggy clouds")
        top = execution.execute(query, K, BUDGET).ids
        rows = execution.execute_batch([query, query], K, BUDGET, exclude_ids=top[:2])
        for row in rows:
            assert not set(row.ids) & set(top[:2])
            assert [item.rank for item in row.items] == list(range(K))
        assert execution.execute(query, K, BUDGET).ids == top


FLAT = dict(
    dataset=DatasetSpec(domain="scenes", size=120, seed=7),
    weight_mode="equal",
    index="flat",
)


def names(entries):
    return [name for name, _ in entries]


class TestStageAssembly:
    def built(self, scenes_kb, **flags):
        return Coordinator(MQAConfig(**FLAT, **flags), knowledge_base=scenes_kb).setup()

    def test_default_round_is_retrieve_then_generate(self, scenes_kb):
        coordinator = self.built(scenes_kb)
        assert names(coordinator.stages) == ["retrieve", "generate"]
        assert coordinator.observers == []

    @pytest.mark.parametrize(
        "flag, stages, observers",
        [
            ("query_rewriting", ["rewrite", "retrieve", "generate"], []),
            ("resilience", ["degrade-modalities", "retrieve", "generate"], []),
            ("planner", ["plan", "retrieve", "generate"], []),
            ("cost_accounting", ["retrieve", "generate"], ["stats"]),
            ("recorder_path", ["retrieve", "generate"], ["recorder"]),
            ("monitoring", ["retrieve", "generate"], ["quality"]),
        ],
    )
    def test_each_flag_adds_exactly_its_own_entry(
        self, scenes_kb, tmp_path, flag, stages, observers
    ):
        value = str(tmp_path / "flight.jsonl") if flag == "recorder_path" else True
        coordinator = self.built(scenes_kb, **{flag: value})
        assert names(coordinator.stages) == stages
        assert names(coordinator.observers) == observers

    def test_all_flags_keep_the_documented_order(self, scenes_kb, tmp_path):
        coordinator = self.built(
            scenes_kb, query_rewriting=True, resilience=True, planner=True,
            cost_accounting=True, monitoring=True,
            recorder_path=str(tmp_path / "flight.jsonl"),
        )
        assert names(coordinator.stages) == [
            "rewrite", "degrade-modalities", "plan", "retrieve", "generate",
        ]
        assert names(coordinator.observers) == ["stats", "recorder", "quality"]

    def test_llm_only_round_is_generate_alone(self):
        coordinator = Coordinator(
            MQAConfig(external_knowledge=False, planner=True, resilience=True)
        ).setup()
        assert names(coordinator.stages) == ["generate"]

    def test_retired_config_key_in_a_recording_header_is_rejected(self):
        from repro.observability.replay import ReplayError, build_replay_coordinator

        config = {**MQAConfig(**FLAT).to_dict(), "trace_capacity": 64}
        with pytest.raises(ReplayError, match="unknown configuration keys: trace_capacity") as err:
            build_replay_coordinator({"config": config})
        assert isinstance(err.value.__cause__, ConfigurationError)


class TestAllLayersOn:
    def test_every_verb_one_trace_each_and_a_clean_close(
        self, scenes_kb, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        threads_before = set(threading.enumerate())
        config = MQAConfig(
            **FLAT, planner=True, admission=True, resilience=True,
            semantic_cache=True, cost_accounting=True, tracing=True,
            agentic=True, workers=2,
        )
        question = "a foggy and rainy mountain scene"
        with ApiServer(config, knowledge_base=scenes_kb) as server:
            assert server.handle("POST", "/apply")["ok"]
            requests = [
                ("/query", {"text": "foggy clouds"}),
                ("/select", {"rank": 0}),
                ("/refine", {"text": "more dramatic"}),
                ("/search", {"text": "sunny shoreline"}),
                ("/ask", {"text": question}),
            ]
            for path, body in requests:
                reply = server.handle("POST", path, body)
                assert reply["ok"], (path, reply)
            assert reply["answer"]["claims"]
            traces = server.handle("GET", "/trace")["traces"]
            assert [trace["name"] for trace in traces] == [
                "index-build", "query", "query", "query-batch", "agentic-query",
            ]

            def walk(span):
                assert span["name"] and span["duration_ms"] >= 0.0
                for child in span.get("children", []):
                    walk(child)

            for trace in traces:
                walk(trace)
            # resilience wraps the search and the LLM call in ``guard``
            # spans, and its stage is the round's one ``encode`` (the encoder
            # guards inside); the stages keep their order around them.
            stage_spans = [
                child["name"] for child in traces[1]["children"]
                if child["name"] != "guard"
            ]
            assert stage_spans == ["encode", "plan", "generation"]
            guarded = [
                grandchild["name"]
                for child in traces[1]["children"] if child["name"] == "guard"
                for grandchild in child.get("children", [])
            ]
            assert "retrieval" in guarded
            hops = [child["name"] for child in traces[-1]["children"]]
            assert hops == ["decompose", "query-batch", "synthesize", "generation"]
            stats = server.handle("GET", "/stats")
            assert stats["enabled"] and stats["stats"]["queries"] >= 4
            for layer in ("planner", "admission", "cache", "agentic"):
                assert stats[layer] is not None
        assert set(threading.enumerate()) <= threads_before
        assert os.listdir(tmp_path) == []
