"""``/health``, ``/stats``, ``/metrics`` and the loadgen report keep their
shape and their counts.

``data/endpoint_shape_dd44fc7.json`` was written by running this module
(``python -m tests.server.test_endpoint_shape``) at commit ``dd44fc7``,
before the ledgers became reads of the metrics registry: for one scripted
single-worker session (apply -> queries -> select -> refine -> ask -> a
``/search`` batch -> ingest / remove -> an errored round) under three
configurations it holds the key tree with value types of each payload, every
non-float leaf that repeats from run to run, and each Prometheus sample's
count.  The change must reproduce all of it; what it adds on purpose is
spelled out in ``INTENDED_ADDITIONS`` and nowhere else.  When set-up's
keyed draws moved to ``repro.utils.rng.words`` (another corpus), the
``exact`` leaves were retaken: only ``every-layer``'s loadgen planner tier
counts moved (tier 0 6 -> 5 plans, tier 1 1 -> 2).  When HNSW's build
began computing a layer's candidates a pass at a time, with one
``hnsw-candidates`` span per pass, ``every-layer``'s count of that span went
4 -> 5 in ``/metrics`` and in Prometheus: its 120-row layer 0 is two passes,
the rows before ``ef_construction`` and the rest; it went back to 4 when
those rows joined the one schedule of passes from row 0.  When
``monitor_sample_rate`` stopped being a config field (the quality monitor
scores every 8th query, its own default), ``every-layer`` lost
``monitor_sample_rate=1`` and the leaves that moved with it were retaken:
the monitor scores 1 query of the session instead of 4 (of loadgen's 8, 1),
and with fewer recall observations the planner picks other tiers (plans per
tier 2/1/1 -> 1/3/0 in the session, 5/2/1 -> 1/7/0 in loadgen), in the
payloads and in the Prometheus samples alike.  When the shard router began
encoding a read once, before its scatter, ``shards2-tiered``'s leaves were
retaken: each shard had encoded inside its ``shard-search`` branch, which
the cost fold does not descend, so the ``encode`` span count went 10 -> 5
(``metrics.stages``) and the ``/stats`` groups gained the ``encode`` stage
the unsharded deployments have (5 in the session, 8 in loadgen).
"""

import json
from pathlib import Path

import pytest

from repro.core import MQAConfig
from repro.data import DatasetSpec, generate_knowledge_base
from repro.server import ApiServer
from repro.server.loadgen import run_loadgen

GOLDEN_PATH = Path(__file__).parent / "data" / "endpoint_shape_dd44fc7.json"

SPEC = DatasetSpec(domain="scenes", size=120, seed=7)
FAST = dict(
    dataset=SPEC,
    weight_learning={"steps": 12, "batch_size": 8, "n_negatives": 4},
)
HNSW = {"m": 6, "ef_construction": 32}
STARLING = {"inner": {"max_degree": 8, "candidate_pool": 16, "build_budget": 24}}
CONFIGS = {
    "defaults": dict(index_params=HNSW),
    "every-layer": dict(
        index_params=HNSW, tracing=True, monitoring=True,
        cost_accounting=True, planner=True, admission=True, agentic=True,
        resilience=True, deadline_ms=60000.0, query_rewriting=True,
        semantic_cache=True,
    ),
    "shards2-tiered": dict(
        index="starling", index_params=STARLING, tiered=True, quantize_bits=8,
        shards=2, cost_accounting=True,
    ),
}
BATCH = ("foggy clouds", "sunny shoreline at dusk", "rain on a forest trail",
         "stars over mountains")

#: Keys whose value is a path, a file size or ordered by a clock reading
#: (the exemplars are the *slowest* queries): the key keeps its place in the
#: type tree, its value is opaque there (:func:`opaque`) and not compared.
VOLATILE = {"path", "active_bytes", "spill_path", "exemplars"}

#: What the change adds on purpose to the Prometheus samples of ``dd44fc7``,
#: and nothing else: (1) the agentic refine-round count, private until now,
#: has a registry name; (2) a batch-scope profile's stage and per-shard
#: observations reach the ``cost.*`` families like a lone profile's — the
#: mirror dropped them, so ``/stats`` and the families disagreed.  The
#: session holds one wide ``/search`` batch and, with ``agentic``, one wide
#: hop batch.  (3) The sharded read's one encode, before the scatter: an
#: ``encode`` stage per read where each shard had encoded inside its branch.
INTENDED_ADDITIONS = {
    "defaults": {},
    "every-layer": {
        "repro_agentic_refine_rounds_run_total": 0,
        'repro_cost_stage_ms_count{framework="must",index="hnsw",stage="encode"}': 2,
        'repro_cost_stage_ms_count{framework="must",index="hnsw",stage="search"}': 2,
    },
    "shards2-tiered": {
        'repro_cost_stage_ms_count{framework="shard-router",index="starling",stage="merge"}': 1,
        'repro_cost_shard_ms_count{framework="shard-router",index="starling",shard="0"}': 1,
        'repro_cost_shard_ms_count{framework="shard-router",index="starling",shard="1"}': 1,
        'repro_cost_stage_ms_count{framework="shard-router",index="starling",stage="encode"}': 5,
        "repro_stage_ms_encode_count": -5,
    },
}


def type_tree(value):
    """The key tree of a payload with type names at the leaves; a list is
    described by its first element."""
    if isinstance(value, dict):
        return {str(key): type_tree(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [type_tree(value[0])] if value else []
    return type(value).__name__


def opaque(tree):
    """A type tree with each ``VOLATILE`` key's subtree replaced by a marker.

    Applied to the captured tree and the golden one alike: a list is
    described by its first element, and which query is the slowest (a
    ``/search`` batch row or a dialogue round, with different cost keys) is
    a clock reading."""
    if isinstance(tree, dict):
        return {
            key: "volatile" if key in VOLATILE else opaque(item)
            for key, item in tree.items()
        }
    if isinstance(tree, list):
        return [opaque(item) for item in tree]
    return tree


def exact_leaves(value, path=""):
    """``{dotted.path: value}`` for every non-float, non-volatile leaf."""
    if isinstance(value, dict):
        leaves = {}
        for key, item in value.items():
            if key not in VOLATILE:
                leaves.update(exact_leaves(item, f"{path}.{key}" if path else str(key)))
        return leaves
    if isinstance(value, (list, tuple)):
        leaves = {}
        for position, item in enumerate(value):
            leaves.update(exact_leaves(item, f"{path}[{position}]"))
        return leaves
    return {} if isinstance(value, float) else {path: value}


def prometheus_counts(body):
    """``{sample: count}`` for the counter and ``_count`` samples."""
    counts = {}
    for line in body.splitlines():
        if line.startswith("#"):
            continue
        sample, _, value = line.rpartition(" ")
        name = sample.partition("{")[0]
        if name.endswith(("_total", "_count")):
            counts[sample] = float(value)
    return counts


def scripted_session(kb, overrides, recorder_path=None):
    """Drive the session; returns the four payloads as captured."""
    settings = {**FAST, **overrides}
    if recorder_path is not None:
        settings["recorder_path"] = str(recorder_path)
    with ApiServer(MQAConfig(**settings), knowledge_base=kb) as server:
        def call(method, path, body=None, ok=True):
            reply = server.handle(method, path, body)
            assert reply["ok"] is ok, reply
            return reply

        call("POST", "/apply")
        call("POST", "/query", {"text": BATCH[0]})
        call("POST", "/query", {"text": BATCH[1]})
        call("POST", "/query", {"text": BATCH[0]})
        call("POST", "/select", {"rank": 0})
        call("POST", "/refine", {"text": "more mountains"})
        call("POST", "/ask", {"text": "a foggy and rainy mountain scene"})
        call("POST", "/search", {"queries": [{"text": text} for text in BATCH]})
        call("POST", "/search", {"text": BATCH[2]})
        call("POST", "/ingest", {"concepts": ["foggy", "dusk"]})
        call("POST", "/remove", {"object_id": 3})
        call("POST", "/refine", {"text": ""}, ok=False)
        payloads = {
            "health": call("GET", "/health"),
            "stats": call("GET", "/stats"),
            "metrics": call("GET", "/metrics"),
        }
        prometheus = call("GET", "/metrics", {"format": "prometheus"})["body"]
    return payloads, prometheus


def capture_case(kb, overrides, recorder_path=None):
    payloads, prometheus = scripted_session(kb, overrides, recorder_path)
    loadgen = run_loadgen(
        workers=1, queries=8, size=100, seed=7, llm_latency_ms=0.0,
        **{**FAST, **overrides, "dataset": DatasetSpec(domain="scenes", size=100, seed=7)},
    )
    # The ids a run read and wrote are its workload, not a ledger.
    for key in ("read_ids", "ingested_ids", "error_messages"):
        loadgen.pop(key)
    return {
        "types": {
            **{name: type_tree(payload) for name, payload in payloads.items()},
            "loadgen": type_tree(loadgen),
        },
        "exact": {
            **{name: exact_leaves(payload) for name, payload in payloads.items()},
            "loadgen": exact_leaves(loadgen),
        },
        "prometheus": prometheus_counts(prometheus),
    }


@pytest.fixture(scope="module")
def kb():
    return generate_knowledge_base(SPEC)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


class TestEndpointShapeParityWithParent:
    @pytest.fixture(scope="class", params=sorted(CONFIGS))
    def case(self, request, kb, golden, tmp_path_factory):
        name = request.param
        recorder = (
            tmp_path_factory.mktemp("flight") / "flight.jsonl"
            if name == "every-layer" else None
        )
        return name, capture_case(kb, CONFIGS[name], recorder), golden[name]

    def test_key_trees_and_value_types(self, case):
        _, captured, expected = case
        assert opaque(captured["types"]) == opaque(expected["types"])

    def test_counter_values(self, case):
        _, captured, expected = case
        assert captured["exact"] == expected["exact"]

    def test_prometheus_samples(self, case):
        name, captured, expected = case
        wanted = dict(expected["prometheus"])
        for sample, more in INTENDED_ADDITIONS[name].items():
            wanted[sample] = wanted.get(sample, 0) + more
        assert captured["prometheus"] == wanted

    def test_the_fixture_covers_what_it_claims(self, golden):
        assert set(golden) == set(CONFIGS)
        every = golden["every-layer"]
        for ledger in ("slo", "quality", "recorder", "planner", "admission",
                       "agentic", "cache", "resilience", "engine", "batching"):
            assert every["types"]["health"][ledger] not in ("NoneType", None), ledger
        assert every["exact"]["metrics"]["metrics.errors"] == 1
        assert every["exact"]["health"]["slo.total_requests"] == 6
        sharded = golden["shards2-tiered"]
        assert sharded["types"]["health"]["sharding"] != "NoneType"
        assert sharded["exact"]["stats"]["tiered.totals.stores"] == 2
        assert [
            sharded["exact"]["stats"][f"stats.groups[{i}].shard"] for i in range(3)
        ] == ["-", "0", "1"]


if __name__ == "__main__":  # regenerate the fixture (run at dd44fc7)
    import tempfile

    world = generate_knowledge_base(SPEC)
    shapes = {}
    with tempfile.TemporaryDirectory() as scratch:
        for case_name in sorted(CONFIGS):
            shapes[case_name] = capture_case(
                world, CONFIGS[case_name],
                Path(scratch) / "flight.jsonl" if case_name == "every-layer" else None,
            )
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(shapes, indent=1, sort_keys=True) + "\n")
