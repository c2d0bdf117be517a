"""The cost plane is a fold over the round's closed trace.

(a) ``fold_span`` on hand-built span trees: which span names become which
stage keys, what a ``shard-search`` branch turns into, and the two names
the fold never descends into.  (b) The account it produces has the shape
the ambient stage-timer machinery produced at commit ``2e049b5``:
``data/cost_shape_2e049b5.json`` was written by running this module
(``python -m tests.observability.test_cost_fold``) at that commit, so every
path — unsharded, cached, tiered, sharded, batches, an agentic round —
must keep its stage keys, shard rows, signature and ``/stats`` observation
counts.  The ``shards3-pooled`` key (it asserted that a thread-pool scatter
folds like the inline loop) went with the pool.  Four entries have been
edited by hand since: the ``round-weights``
operation of ``must``, ``must-flat``, ``must-nocache`` and ``tiered-sq8`` lost its
``fuse`` stage (stage list and ``/stats`` count) when per-query weights
stopped being an over-fetch re-ranked outside the index, and its work
counters on ``hnsw`` / tiered ``starling`` are now those of one ``k``-wide
search under the requested weights (155 for 154 evaluations; 64 hops, 140
evaluations, 20 re-rank reads for 80, 149, 80 — ``k`` re-ranked, not ``4k``).
When HNSW's layer 0 moved to selecting ``m`` per insert (Algorithm 1), the
``distance_evaluations`` signature counter of every HNSW operation in
``must``, ``mr``, ``je``, ``must-nocache`` and ``agentic`` was retaken (a
different graph, walked in the same hops); stage keys, shard rows and
``/stats`` counts did not move.
"""

import json
from pathlib import Path

import pytest

from repro.core import MQAConfig
from repro.core.coordinator import Coordinator
from repro.data import DatasetSpec, RawQuery, generate_knowledge_base
from repro.observability import QueryCostProfile, Span, costs

GOLDEN_PATH = Path(__file__).parent / "data" / "cost_shape_2e049b5.json"


# ----------------------------------------------------------------------
# (a) the fold on hand-built trees
# ----------------------------------------------------------------------
def span(name, ms=1.0, children=(), **attributes):
    return Span(
        name=name, attributes=attributes, children=list(children),
        duration=ms / 1000.0,
    )


def folded(root):
    profile = QueryCostProfile(framework="must", index="hnsw")
    costs.fold_span(profile, root)
    return profile


class TestFoldSpan:
    @pytest.mark.parametrize(
        "name, stage",
        [
            ("encode", "encode"),
            ("index-search", "search"),
            ("fusion", "fuse"),
            ("retrieval", "retrieve"),
            ("shard-merge", "merge"),
            ("generation", "generate"),
            ("decompose", "agentic-decompose"),
            ("synthesize", "agentic-synthesize"),
            ("refine", "agentic-refine"),
        ],
    )
    def test_span_name_to_stage_key(self, name, stage):
        profile = folded(span("query", 9.0, [span(name, 2.5)]))
        assert profile.stage_ms == {stage: pytest.approx(2.5)}

    def test_the_root_is_read_for_its_children_only(self):
        assert folded(span("retrieval", 4.0)).stage_ms == {}

    def test_repeated_spans_sum_into_one_stage(self):
        tree = span("query", 9.0, [
            span("retrieval", 6.0, [
                span("index-search", 2.0, modality="text"),
                span("index-search", 3.0, modality="image"),
                span("fusion", 0.25),
                span("fusion", 0.5),
            ]),
        ])
        assert folded(tree).stage_ms == {
            "retrieve": pytest.approx(6.0),
            "search": pytest.approx(5.0),
            "fuse": pytest.approx(0.75),
        }

    def test_unnamed_spans_add_nothing_but_are_descended(self):
        tree = span("query", 9.0, [
            span("guard", 5.0, [
                span("index-search", 4.0, [
                    span("beam-search", 3.0, [span("block-io", 1.0)]),
                ]),
            ]),
            span("weight-inference", 0.5),
        ])
        assert folded(tree).stage_ms == {"search": pytest.approx(4.0)}

    def test_shard_branch_is_one_row_and_is_not_descended(self):
        def branch(shard, ok=True):
            return span(
                "shard-search", 2.0 + shard,
                [span("encode", 0.5), span("index-search", 1.0)],
                shard=shard, replica=0, ok=ok, items=4 if ok else 0,
                distance_evaluations=30 if ok else 0, hops=7 if ok else 0,
            )

        tree = span("query", 9.0, [
            span("retrieval", 8.0, [
                span("scatter", 6.0, [branch(0), branch(1, ok=False)]),
                span("shard-merge", 0.5),
            ]),
        ])
        profile = folded(tree)
        assert profile.stage_ms == {
            "retrieve": pytest.approx(8.0), "merge": pytest.approx(0.5),
        }
        assert profile.shards == [
            {"shard": 0, "replica": 0, "ok": True, "ms": 2.0, "items": 4,
             "distance_evaluations": 30, "hops": 7},
            {"shard": 1, "replica": 0, "ok": False, "ms": 3.0, "items": 0,
             "distance_evaluations": 0, "hops": 0},
        ]
        assert profile.shards_failed == 1

    def test_nested_query_batch_is_opaque(self):
        tree = span("agentic-query", 20.0, [
            span("decompose", 0.5),
            span("query-batch", 9.0, [
                span("retrieval-batch", 8.0, [
                    span("encode", 1.0), span("index-search", 6.0),
                ]),
            ]),
            span("refine", 3.0, [
                span("query-batch", 2.5, [span("retrieval", 2.0)]),
            ]),
            span("generation", 4.0),
        ])
        assert folded(tree).stage_ms == {
            "agentic-decompose": pytest.approx(0.5),
            "agentic-refine": pytest.approx(3.0),
            "generate": pytest.approx(4.0),
        }

    def test_errored_retried_attempt_is_part_of_retrieve(self):
        tree = span("query", 12.0, [
            span("guard", 9.0, [
                span("retrieval", 3.0, [span("encode", 1.0)], error="SearchError"),
                span("retrieval", 5.0, [span("encode", 1.0)]),
            ], site="index.search", attempts=2),
        ])
        assert folded(tree).stage_ms == {
            "retrieve": pytest.approx(8.0), "encode": pytest.approx(2.0),
        }


# ----------------------------------------------------------------------
# (b) shape parity with 2e049b5
# ----------------------------------------------------------------------
SPEC = DatasetSpec(domain="scenes", size=160, seed=7)
FAST = dict(
    dataset=SPEC,
    weight_learning={"steps": 12, "batch_size": 8, "n_negatives": 4},
    cost_accounting=True,
)
HNSW = {"m": 6, "ef_construction": 32}
STARLING = {"inner": {"max_degree": 8, "candidate_pool": 16, "build_budget": 24}}
CONFIGS = {
    "must": dict(index_params=HNSW),
    "mr": dict(framework="mr", index_params=HNSW),
    "je": dict(framework="je", encoder_set="clip-joint", index_params=HNSW),
    "must-nocache": dict(index_params=HNSW, cache_queries=False),
    "must-flat": dict(index="flat"),
    "tiered-sq8": dict(
        index="starling", index_params=STARLING, tiered=True, quantize_bits=8
    ),
    "shards3-must": dict(index_params=HNSW, shards=3),
    "shards3-mr": dict(framework="mr", index_params=HNSW, shards=3),
}
WEIGHTS = {"text": 0.7, "image": 0.3}
TEXTS = ("foggy clouds", "sunny shoreline at dusk", "rain on a forest trail")


def cost_shape(cost):
    if cost is None:
        return None
    return {
        "stages": sorted(cost.stage_ms),
        "shards": [
            {key: value for key, value in row.items() if key != "ms"}
            for row in cost.shards
        ],
        "shards_failed": cost.shards_failed,
        "signature": cost.signature(),
    }


def stats_shape(coordinator):
    return [
        {
            "shard": group["shard"],
            "queries": group["queries"],
            "stages": {
                name: summary["count"]
                for name, summary in group["stages_ms"].items()
            },
        }
        for group in coordinator.layer("stats").snapshot()["groups"]
    ]


def capture_case(kb, overrides):
    """Every operation's cost shape on one deployment, in order; ``stats``
    is the cumulative ``/stats`` view after that operation."""
    coordinator = Coordinator(
        MQAConfig(**{**FAST, **overrides}), knowledge_base=kb
    ).setup()
    query = RawQuery.from_text(TEXTS[0])
    operations = {
        "round-miss": lambda: [coordinator.handle_query(query).cost],
        "round-again": lambda: [coordinator.handle_query(query).cost],
        "batch-of-1": lambda: [
            r.cost
            for r in coordinator.retrieve_batch([RawQuery.from_text(TEXTS[1])])
        ],
        "batch-of-3": lambda: [
            r.cost
            for r in coordinator.retrieve_batch(
                [RawQuery.from_text(f"{text} again") for text in TEXTS]
            )
        ],
    }
    if "weights" in coordinator.execution.capabilities:
        operations["round-weights"] = lambda: [
            coordinator.handle_query(
                RawQuery.from_text(TEXTS[2]), weights=WEIGHTS
            ).cost
        ]
    captured = {}
    for name, run in operations.items():
        captured[name] = {
            "costs": [cost_shape(cost) for cost in run()],
            "stats": stats_shape(coordinator),
        }
    return captured


def capture_agentic(kb):
    coordinator = Coordinator(
        MQAConfig(**{**FAST, "index_params": HNSW, "agentic": True}),
        knowledge_base=kb,
    ).setup()
    answer = coordinator.answer_agentic(
        RawQuery.from_text("a foggy and rainy mountain scene")
    )
    assert answer.claims
    return {
        "ask": {
            "costs": [cost_shape(answer.cost)],
            "stats": stats_shape(coordinator),
        }
    }


@pytest.fixture(scope="module")
def kb():
    return generate_knowledge_base(SPEC)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


class TestShapeParityWithParent:
    @pytest.mark.parametrize("case", sorted(CONFIGS))
    def test_deployment(self, kb, golden, case):
        assert capture_case(kb, CONFIGS[case]) == golden[case]

    def test_agentic_ask(self, kb, golden):
        assert capture_agentic(kb) == golden["agentic"]

    def test_the_fixture_covers_what_it_claims(self, golden):
        assert set(golden) == set(CONFIGS) | {"agentic"}
        must = golden["must"]
        assert must["round-miss"]["costs"][0]["stages"] == [
            "encode", "generate", "retrieve", "search",
        ]
        assert must["round-again"]["costs"][0]["stages"] == ["generate", "retrieve"]
        assert [c["stages"] for c in must["batch-of-3"]["costs"]] == [["retrieve"]] * 3
        sharded = golden["shards3-must"]["round-miss"]
        assert [row["shard"] for row in sharded["costs"][0]["shards"]] == [0, 1, 2]
        assert [g["shard"] for g in sharded["stats"]] == ["-", "0", "1", "2"]


if __name__ == "__main__":  # regenerate the fixture (run at 2e049b5)
    world = generate_knowledge_base(SPEC)
    shapes = {case: capture_case(world, CONFIGS[case]) for case in sorted(CONFIGS)}
    shapes["agentic"] = capture_agentic(world)
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(shapes, indent=1, sort_keys=True) + "\n")
