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
    # An unhashable text used to reach the cache key (ValueError / TypeError).
    ("/query", {"text": ["a"]}, "'text' expects a string, got ['a']"),
    ("/ask", {"text": {"a": 1}}, "'text' expects a string, got {'a': 1}"),
    ("/refine", {"text": ["a"]}, "'text' expects a string, got ['a']"),
    ("/configure", {"option": ["a"], "value": 1},
     "unknown configuration option ['a']"),
    # deadline_ms used to be dropped in silence.
    ("/query", {"text": "fog", "deadline_ms": "x"},
     "'deadline_ms' must be a finite number, got 'x'"),
    ("/refine", {"text": "fog", "deadline_ms": float("nan")},
     "'deadline_ms' must be a finite number, got nan"),
    ("/search", {"text": "fog", "deadline_ms": [5]},
     "'deadline_ms' must be a finite number, got [5]"),
]

#: A body that is not an object used to escape as AttributeError (the session
#: read in ``handle_async``) or TypeError (``dict(body)``).
NOT_AN_OBJECT = [
    ("POST", "/query", [1, 2]),
    ("POST", "/query", "text"),
    ("POST", "/refine", 5),
    ("GET", "/metrics", [1]),
    ("GET", "/health", "x"),
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


@pytest.mark.parametrize("method, route, body", NOT_AN_OBJECT)
def test_a_body_that_is_not_an_object_is_an_error_reply(server, method, route, body):
    assert server.handle(method, route, body) == {
        "ok": False, "error": f"request body must be an object, got {body!r}",
    }
    assert server.handle_async(method, route, body).result()["ok"] is False


def test_the_same_routes_still_take_well_formed_bodies(server):
    assert server.handle("POST", "/select", {"rank": "0", "session": None})["ok"]
    assert server.handle("POST", "/reject", {"rank": 1})["ok"]
    found = server.handle(
        "POST", "/search",
        {"queries": [{"text": "foggy clouds", "reference_object_id": "3"}]},
    )
    assert found["ok"] and found["results"][0]["items"]
    for deadline_ms in (None, 0, "250", 250.0):
        assert server.handle(
            "POST", "/query", {"text": "foggy clouds", "deadline_ms": deadline_ms}
        )["ok"]
