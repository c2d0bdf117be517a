"""Whatever a client sends, ``ApiServer.handle`` answers
``{"ok": False, "error": ...}`` — only ``MQAError``-derived failures are
turned into replies, so a ``ValueError`` / ``TypeError`` / ``AttributeError``
raised by a malformed field used to escape ``handle``.  Each body below did,
unsharded and behind the shard router alike."""

import json
import math

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
    # A boolean or a fraction used to pass as int(value): true removed
    # object 1, 1.9 removed object 1, 10.7 asked for 10 results.
    ("/remove", {"object_id": True}, "'object_id' must be an integer, got True"),
    ("/remove", {"object_id": 1.9}, "'object_id' must be an integer, got 1.9"),
    ("/query", {"text": "fog", "reference_object_id": True},
     "'reference_object_id' must be an integer, got True"),
    ("/search", {"text": "fog", "k": 10.7}, "'k' must be an integer, got 10.7"),
    ("/select", {"rank": False}, "'rank' must be an integer, got False"),
    # A dataset spec is checked when it is configured: these escaped
    # ``handle`` (TypeError, ValueError) or were accepted and failed in /apply
    # (or not at all).
    ("/configure", {"option": "dataset", "value": {"size": "x"}},
     "dataset: size must be an integer, got 'x'"),
    ("/configure", {"option": "dataset", "value": {"modalities": "text"}},
     "dataset: modalities must be a non-empty list of modality names, got 'text'"),
    ("/configure", {"option": "dataset", "value": {"min_concepts": 0}},
     "dataset: min_concepts must be >= 1, got 0"),
    ("/configure", {"option": "dataset", "value": {"max_concepts": 1}},
     "dataset: max_concepts must be >= 2, got 1"),
    ("/configure", {"option": "dataset",
                    "value": {"domain": "scenes", "min_concepts": 9, "max_concepts": 12}},
     "dataset: max_concepts must be <= 5, the number of concept categories of "
     "domain 'scenes', got 12"),
    ("/configure", {"option": "dataset", "value": {"latent_dim": 0}},
     "dataset: latent_dim must be >= 1, got 0"),
    ("/configure", {"option": "dataset", "value": {"text_drop_probability": 1.5}},
     "dataset: text_drop_probability must be in [0, 1), got 1.5"),
    ("/configure", {"option": "dataset", "value": {"size": 2.5}},
     "dataset: size must be an integer, got 2.5"),
    ("/configure", {"option": "dataset", "value": {"seed": "x"}},
     "dataset: seed must be an integer, got 'x'"),
    ("/configure", {"option": "dataset", "value": {"image_noise_sigma": -1}},
     "dataset: image_noise_sigma must be a finite number >= 0, got -1"),
    # /search built its text with str(): 123 searched for "123", null for
    # "None".
    ("/search", {"text": 123}, "'text' expects a string, got 123"),
    ("/search", {"text": None}, "'text' expects a string, got None"),
    ("/search", {"text": True}, "'text' expects a string, got True"),
    ("/search", {"queries": [{"text": ["sky"]}]}, "'text' expects a string, got ['sky']"),
    # A fault spec that is not a mapping, or a rate sent as a string, used to
    # escape ``handle`` as a TypeError.
    ("/configure", {"option": "faults", "value": {"encoder": 5}},
     "fault site 'encoder': a spec maps FaultSpec fields to values, got 5"),
    ("/configure", {"option": "faults", "value": {"encoder": {"error_rate": "0.5"}}},
     "fault site 'encoder': error_rate must be in [0, 1], got '0.5'"),
]

#: ``int(float("inf"))`` raises OverflowError, which used to escape ``handle``
#: from every integer field: ``(method, route, field)``.
INFINITE_INTEGERS = [
    ("POST", "/query", "session"),
    ("POST", "/ask", "session"),
    ("POST", "/select", "session"),
    ("POST", "/refine", "session"),
    ("POST", "/reject", "session"),
    ("GET", "/transcript", "session"),
    ("POST", "/select", "rank"),
    ("POST", "/reject", "rank"),
    ("POST", "/remove", "object_id"),
    ("POST", "/search", "k"),
    ("POST", "/query", "reference_object_id"),
    ("POST", "/ask", "reference_object_id"),
    ("POST", "/search", "reference_object_id"),
    ("GET", "/events", "limit"),
    ("GET", "/trace", "limit"),
    ("GET", "/events", "offset"),
]

#: A body that is not an object used to escape as AttributeError (the session
#: read in ``handle``) or TypeError (``dict(body)``).
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


#: JSON bodies as a client sends them: ``json.loads`` reads ``NaN`` and
#: ``Infinity`` as floats, which every ``<=`` check of the learner passed.
NON_FINITE_LEARNER = [
    ('{"option": "weight_learning", "value": {"learning_rate": NaN}}',
     "invalid weight_learning: learning_rate must be a finite number > 0, got nan"),
    ('{"option": "weight_learning", "value": {"temperature": Infinity}}',
     "invalid weight_learning: temperature must be a finite number > 0, got inf"),
    ('{"option": "weight_learning", "value": {"uniform_pull": NaN}}',
     "invalid weight_learning: uniform_pull must be a finite number >= 0, got nan"),
    ('{"option": "weight_learning", "value": {"learning_rate": true}}',
     "invalid weight_learning: learning_rate must be a finite number > 0, got True"),
]


@pytest.mark.parametrize("text, message", NON_FINITE_LEARNER)
def test_a_non_finite_learner_rate_is_refused_at_configure(server, text, message):
    assert server.handle("POST", "/configure", json.loads(text)) == {
        "ok": False, "error": message,
    }


@pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["inf", "-inf"])
@pytest.mark.parametrize("method, route, field", INFINITE_INTEGERS)
def test_an_infinite_integer_is_an_error_reply(server, method, route, field, value):
    body = {"text": "fog", field: value}
    assert server.handle(method, route, body) == {
        "ok": False, "error": f"{field!r} must be an integer, got {value!r}",
    }


@pytest.mark.parametrize("method, route, body", NOT_AN_OBJECT)
def test_a_body_that_is_not_an_object_is_an_error_reply(server, method, route, body):
    assert server.handle(method, route, body) == {
        "ok": False, "error": f"request body must be an object, got {body!r}",
    }


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


#: The session routes, each asked about ids no session ever had.
SESSION_ROUTES = [
    ("POST", "/query", {"text": "fog"}),
    ("POST", "/ask", {"text": "fog"}),
    ("POST", "/select", {"rank": 0}),
    ("POST", "/refine", {"text": "fog"}),
    ("POST", "/reject", {"rank": 0}),
    ("GET", "/transcript", {}),
]


def test_unknown_session_ids_leave_no_engine_lock_behind(server):
    before = server.engine.snapshot()["sessions_tracked"]
    for n in range(10_000):
        method, route, body = SESSION_ROUTES[n % len(SESSION_ROUTES)]
        session = 10**6 + n if n % 2 else -1 - n
        reply = server.handle(method, route, {**body, "session": session})
        assert reply == {"ok": False, "error": f"unknown session {session}"}
    assert server.engine.snapshot()["sessions_tracked"] == before
