"""Tests for multi-session dialogue, the session table's bounds and the
reject endpoint."""

import pytest

from repro.core import MQAConfig
from repro.data import DatasetSpec
from repro.errors import ConfigurationError
from repro.server import ApiServer
from repro.server import loadgen
from repro.server.api import MAX_SESSIONS

FAST = dict(
    dataset=DatasetSpec(domain="scenes", size=80, seed=7),
    weight_learning={"steps": 10, "batch_size": 8, "n_negatives": 4},
    index_params={"m": 6, "ef_construction": 32},
)


@pytest.fixture()
def server():
    api = ApiServer(MQAConfig(**FAST))
    assert api.handle("POST", "/apply")["ok"]
    return api


class TestMultiSession:
    def test_sessions_are_independent(self, server):
        response = server.handle("POST", "/session/new")
        assert response["ok"]
        second = response["session"]
        assert second == 1

        server.handle("POST", "/query", {"text": "foggy clouds"})
        server.handle("POST", "/query", {"text": "sunny desert", "session": second})

        transcript0 = server.handle("GET", "/transcript")["transcript"]
        transcript1 = server.handle("GET", "/transcript", {"session": second})["transcript"]
        assert "foggy clouds" in transcript0
        assert "foggy clouds" not in transcript1
        assert "sunny desert" in transcript1

    def test_sessions_share_index(self, server):
        second = server.handle("POST", "/session/new")["session"]
        a = server.handle("POST", "/query", {"text": "foggy clouds"})["answer"]
        b = server.handle(
            "POST", "/query", {"text": "foggy clouds", "session": second}
        )["answer"]
        assert [i["object_id"] for i in a["items"]] == [
            i["object_id"] for i in b["items"]
        ]

    def test_unknown_session_rejected(self, server):
        response = server.handle("POST", "/query", {"text": "x", "session": 42})
        assert not response["ok"]
        assert "unknown session" in response["error"]

    def test_select_refine_per_session(self, server):
        second = server.handle("POST", "/session/new")["session"]
        server.handle("POST", "/query", {"text": "foggy clouds", "session": second})
        assert server.handle("POST", "/select", {"rank": 0, "session": second})["ok"]
        refined = server.handle(
            "POST", "/refine", {"text": "more like this", "session": second}
        )
        assert refined["ok"]
        # session 0 has no rounds; refine there must fail cleanly
        response = server.handle("POST", "/refine", {"text": "more"})
        assert not response["ok"]


def tracked(server):
    return server.engine.snapshot()["sessions_tracked"]


class TestSessionTable:
    def test_unknown_session_error_names_only_the_requested_id(self, server):
        errors = []
        for opened in (3, 40):
            for _ in range(opened):
                assert server.handle("POST", "/session/new")["ok"]
            errors.append(
                server.handle("POST", "/query", {"text": "x", "session": 10**6})["error"]
            )
        assert errors == ["unknown session 1000000"] * 2

    def test_the_table_holds_the_live_sessions_only(self, server):
        kept = server.handle("POST", "/session/new")["session"]
        assert server.handle("POST", "/query", {"text": "foggy clouds", "session": kept})["ok"]
        issued = [kept]
        for n in range(4 * MAX_SESSIONS):
            session = server.handle("POST", "/session/new")["session"]
            issued.append(session)
            assert server.handle("GET", "/transcript", {"session": session})["ok"]
            if n % 64 == 0:
                assert server.handle("GET", "/transcript", {"session": kept})["ok"]
            assert tracked(server) <= MAX_SESSIONS + 1
        assert issued == sorted(set(issued)), "an id was issued twice"
        assert server.handle("GET", "/metrics")["metrics"]["sessions"] == MAX_SESSIONS + 1
        transcript = server.handle("GET", "/transcript", {"session": kept})
        assert "foggy clouds" in transcript["transcript"]
        evicted = issued[1]
        assert server.handle("GET", "/transcript", {"session": evicted}) == {
            "ok": False, "error": f"unknown session {evicted}",
        }

    def test_a_re_apply_closes_every_session_but_0(self, server):
        opened = [server.handle("POST", "/session/new")["session"] for _ in range(2)]
        for session in (0, *opened):
            assert server.handle("POST", "/query", {"text": "fog", "session": session})["ok"]
        assert tracked(server) == 3
        assert server.handle("POST", "/apply")["ok"]
        assert tracked(server) == 1
        for session in opened:
            response = server.handle("POST", "/query", {"text": "fog", "session": session})
            assert response == {"ok": False, "error": f"unknown session {session}"}
        assert server.handle("POST", "/session/new")["session"] == opened[-1] + 1
        assert server.handle("POST", "/query", {"text": "fog"})["ok"]


class TestLoadgenSessions:
    @pytest.mark.parametrize("sessions", [0, -1, MAX_SESSIONS + 2])
    def test_a_session_count_out_of_range_is_refused_before_set_up(
        self, sessions, monkeypatch
    ):
        def no_server(*args, **kwargs):
            raise AssertionError("a server was built")

        monkeypatch.setattr(loadgen, "ApiServer", no_server)
        with pytest.raises(ConfigurationError, match="sessions must be between 1 and"):
            loadgen.run_loadgen(sessions=sessions)

    @pytest.mark.parametrize("sessions", [1, MAX_SESSIONS + 1])
    def test_both_ends_of_the_range_run(self, sessions):
        report = loadgen.run_loadgen(
            queries=6, write_every=0, size=60, llm_latency_ms=0.0, sessions=sessions,
            weight_learning={"steps": 4, "batch_size": 8},
        )
        assert report["errors"] == 0
        assert report["engine"]["sessions_tracked"] == min(sessions, 6)


class TestRejectEndpoint:
    def test_reject_excludes_from_followups(self, server):
        answer = server.handle("POST", "/query", {"text": "foggy clouds"})["answer"]
        top = answer["items"][0]["object_id"]
        response = server.handle("POST", "/reject", {"rank": 0})
        assert response["ok"]
        assert response["rejected_object_id"] == top
        follow_up = server.handle("POST", "/query", {"text": "foggy clouds"})["answer"]
        assert top not in [item["object_id"] for item in follow_up["items"]]

    def test_reject_bad_rank(self, server):
        server.handle("POST", "/query", {"text": "foggy clouds"})
        response = server.handle("POST", "/reject", {"rank": 99})
        assert not response["ok"]
