"""Whatever a client sends, ``ApiServer.handle`` answers
``{"ok": False, "error": ...}`` — only ``MQAError``-derived failures are
turned into replies, so a ``ValueError`` / ``TypeError`` / ``AttributeError``
raised by a malformed field used to escape ``handle``.  Each body below did,
unsharded and behind the shard router alike."""

import pytest

from repro.core import MQAConfig
from repro.data import DatasetSpec
from repro.server import ApiServer

FAST_CONFIG_KWARGS = dict(
    dataset=DatasetSpec(domain="scenes", size=100, seed=7),
    weight_learning={"steps": 12, "batch_size": 8, "n_negatives": 4},
    index="flat",
)

HOSTILE_BODIES = [
    ("/reject", {"rank": "x"}, "'rank' must be an integer, got 'x'"),
    ("/select", {"rank": None}, "'rank' must be an integer, got None"),
    ("/select", {"rank": "1.5"}, "'rank' must be an integer, got '1.5'"),
    ("/remove", {"object_id": "x"}, "'object_id' must be an integer, got 'x'"),
    ("/remove", {"object_id": None}, "'object_id' must be an integer, got None"),
    ("/query", {"text": "fog", "session": "abc"},
     "'session' must be an integer, got 'abc'"),
    ("/query", {"text": "fog", "reference_object_id": "x"},
     "'reference_object_id' must be an integer, got 'x'"),
    ("/ingest", {"concepts": ["fog"], "intensities": ["x"]},
     "'intensities' must be numbers, got ['x']"),
    ("/ingest", {"concepts": ["fog"], "metadata": 5},
     "'metadata' must be an object, got 5"),
    ("/ingest", {"concepts": [5]},
     "'concepts' must be a non-empty list of concept names"),
    ("/search", {"queries": [5]},
     "a search spec must be an object with 'text', got 5"),
    ("/search", {"text": "fog", "reference_object_id": [1]},
     "'reference_object_id' must be an integer, got [1]"),
]


@pytest.fixture(scope="module", params=[None, 2], ids=["unsharded", "shards=2"])
def server(request, scenes_kb):
    config = MQAConfig(shards=request.param, **FAST_CONFIG_KWARGS)
    with ApiServer(config, knowledge_base=scenes_kb) as applied:
        assert applied.handle("POST", "/apply")["ok"]
        assert applied.handle("POST", "/query", {"text": "foggy clouds"})["ok"]
        yield applied


@pytest.mark.parametrize("route, body, message", HOSTILE_BODIES)
def test_a_malformed_field_is_an_error_reply(server, route, body, message):
    assert server.handle("POST", route, body) == {"ok": False, "error": message}


def test_the_same_routes_still_take_well_formed_bodies(server):
    assert server.handle("POST", "/select", {"rank": "0", "session": None})["ok"]
    assert server.handle("POST", "/reject", {"rank": 1})["ok"]
    found = server.handle(
        "POST", "/search",
        {"queries": [{"text": "foggy clouds", "reference_object_id": "3"}]},
    )
    assert found["ok"] and found["results"][0]["items"]
