"""Tests for the backend API layer (the Flask stand-in)."""

import pytest

from repro.core import MQAConfig
from repro.data import DatasetSpec
from repro.server import ApiServer

FAST_CONFIG_KWARGS = dict(
    dataset=DatasetSpec(domain="scenes", size=100, seed=7),
    weight_learning={"steps": 12, "batch_size": 8, "n_negatives": 4},
    index_params={"m": 6, "ef_construction": 32},
)


@pytest.fixture(scope="module")
def applied_server(scenes_kb):
    server = ApiServer(MQAConfig(**FAST_CONFIG_KWARGS), knowledge_base=scenes_kb)
    response = server.handle("POST", "/apply")
    assert response["ok"]
    return server


class TestRouting:
    def test_unknown_route(self, applied_server):
        response = applied_server.handle("GET", "/nope")
        assert not response["ok"]
        assert "no route" in response["error"]

    def test_options(self):
        server = ApiServer(MQAConfig(**FAST_CONFIG_KWARGS))
        response = server.handle("GET", "/options")
        assert response["ok"]
        assert "must" in response["options"]["framework"]

    def test_configure_then_apply(self, scenes_kb):
        server = ApiServer(MQAConfig(**FAST_CONFIG_KWARGS), knowledge_base=scenes_kb)
        response = server.handle(
            "POST", "/configure", {"option": "framework", "value": "je"}
        )
        assert response["ok"]
        response = server.handle("POST", "/apply")
        assert response["ok"]
        assert response["summary"]["framework"] == "je"

    def test_configure_bad_value_is_error_response(self):
        server = ApiServer(MQAConfig(**FAST_CONFIG_KWARGS))
        response = server.handle(
            "POST", "/configure", {"option": "framework", "value": "bogus"}
        )
        assert not response["ok"]

    @pytest.mark.parametrize(
        "option, value",
        [
            ("weight_learning", {"stepz": 3}),
            ("weight_learning", {"steps": "many"}),
            ("weight_learning", {"batch_size": 0}),
            ("weight_learning", {"n_negatives": 0}),
            ("weight_learning", {"batch_size": 2.5}),
            ("dataset", {"domain": "scenes", "size": 1}),
        ],
    )
    def test_configure_refuses_what_the_weight_learner_would(self, option, value):
        # Accepted here, these failed in /apply's representation stage.
        server = ApiServer(MQAConfig(**FAST_CONFIG_KWARGS))
        response = server.handle("POST", "/configure", {"option": option, "value": value})
        assert not response["ok"]
        assert getattr(server._panel.config, option) == FAST_CONFIG_KWARGS[option]

    def test_missing_field(self, applied_server):
        response = applied_server.handle("POST", "/configure", {"option": "framework"})
        assert not response["ok"]
        assert "value" in response["error"]

    def test_endpoints_require_apply(self):
        server = ApiServer(MQAConfig(**FAST_CONFIG_KWARGS))
        for method, path in (("GET", "/status"), ("POST", "/query"), ("GET", "/events")):
            response = server.handle(method, path, {"text": "x"})
            assert not response["ok"]
            assert "apply" in response["error"]


class TestDialogueFlow:
    def test_query_select_refine(self, applied_server):
        response = applied_server.handle("POST", "/query", {"text": "foggy clouds"})
        assert response["ok"]
        answer = response["answer"]
        assert answer["items"] and answer["grounded"]

        response = applied_server.handle("POST", "/select", {"rank": 0})
        assert response["ok"]
        selected = response["selected_object_id"]

        response = applied_server.handle("POST", "/refine", {"text": "more like this"})
        assert response["ok"]
        refined_ids = [item["object_id"] for item in response["answer"]["items"]]
        assert selected not in refined_ids

        response = applied_server.handle("GET", "/transcript")
        assert "foggy clouds" in response["transcript"]

    def test_query_with_reference_object(self, applied_server):
        response = applied_server.handle(
            "POST", "/query", {"text": "stars", "reference_object_id": 3}
        )
        assert response["ok"]

    def test_status_and_weights(self, applied_server):
        status = applied_server.handle("GET", "/status")
        assert status["ok"]
        assert any(m["name"] == "index construction" for m in status["milestones"])
        weights = applied_server.handle("GET", "/weights")
        assert set(weights["weights"]) == {"text", "image"}

    def test_events_flow(self, applied_server):
        response = applied_server.handle("GET", "/events")
        kinds = [event["kind"] for event in response["events"]]
        assert kinds[:5] == ["configuration", "knowledge-base", "objects", "vectors", "llm"]


HOSTILE_WEIGHTS = [
    ("heavy", "must map modality names to numbers"),
    (["text", 1.0], "must map modality names to numbers"),
    ({"text": "x", "image": 1}, "value for 'text' must be a number, got 'x'"),
    ({"smell": 1, "text": 1, "image": 1}, "'weights': unknown modality 'smell'"),
    ({7: 1, "text": 1, "image": 1}, "'weights': unknown modality 7"),
    ({"text": float("nan"), "image": 1.0}, "modality weights must be finite"),
    # Refused before this PR too, by the kernel; the messages are kept.
    ({"text": 1.0}, "weights missing for modalities: image"),
    ({"text": -1.0, "image": 1.0}, "modality weights must be non-negative"),
    ({"text": 0.0, "image": 0.0}, "modality weights must not all be zero"),
]


class TestHostileWeights:
    """A ``weights`` body is parsed once at the boundary and its values are
    checked where every caller's are (the kernel): whatever a client sends,
    ``handle`` answers ``{"ok": False, "error": ...}`` and raises nothing —
    and a NaN weight is refused, not served as ten items scored ``nan``."""

    @pytest.fixture()
    def refinable(self, applied_server):
        """A fresh session holding a selection, so ``/refine`` can run."""
        session = applied_server.handle("POST", "/session/new")["session"]
        asked = applied_server.handle(
            "POST", "/query", {"text": "foggy clouds", "session": session}
        )
        assert asked["ok"], asked
        assert applied_server.handle(
            "POST", "/select", {"rank": 0, "session": session}
        )["ok"]
        return session

    @pytest.mark.parametrize("route", ["/query", "/refine", "/search"])
    @pytest.mark.parametrize("weights, message", HOSTILE_WEIGHTS)
    def test_refused_as_an_error_payload(
        self, applied_server, refinable, route, weights, message
    ):
        response = applied_server.handle(
            "POST", route,
            {"text": "at dusk", "session": refinable, "weights": weights},
        )
        assert response["ok"] is False
        assert message in response["error"]

    def test_a_batch_body_is_checked_the_same_way(self, applied_server):
        response = applied_server.handle(
            "POST", "/search",
            {"queries": [{"text": "at dusk"}], "weights": {"text": "x", "image": 1}},
        )
        assert response == {
            "ok": False,
            "error": "'weights' value for 'text' must be a number, got 'x'",
        }

    def test_well_formed_weights_still_answer(self, applied_server, refinable):
        for route in ("/refine", "/search", "/query"):  # /query opens a new round
            response = applied_server.handle(
                "POST", route,
                {"text": "at dusk", "session": refinable,
                 "weights": {"text": 1.8, "image": 0.2}},
            )
            assert response["ok"], response
