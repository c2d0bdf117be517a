"""Tests for negative feedback (reject) in dialogue sessions."""

import pytest

from repro.errors import SessionError


class TestReject:
    def test_rejected_never_returns(self, system):
        system.reset_dialogue()
        answer = system.ask("foggy clouds")
        rejected = system.reject(0)
        follow_up = system.ask("foggy clouds")
        assert rejected not in follow_up.ids

    def test_rejections_accumulate_across_rounds(self, system):
        system.reset_dialogue()
        system.ask("foggy clouds")
        first = system.reject(0)
        system.ask("foggy clouds")
        second = system.reject(0)
        assert first != second
        final = system.ask("foggy clouds")
        assert first not in final.ids
        assert second not in final.ids

    def test_reject_then_select_and_refine(self, system):
        system.reset_dialogue()
        system.ask("foggy clouds")
        rejected = system.reject(1)
        system.select(0)
        answer = system.refine("more like this one")
        assert rejected not in answer.ids

    def test_reject_out_of_range(self, system):
        system.reset_dialogue()
        system.ask("foggy clouds")
        with pytest.raises(SessionError, match="out of range"):
            system.reject(99)

    def test_reject_before_any_round(self, system):
        system.reset_dialogue()
        with pytest.raises(SessionError):
            system.reject(0)

    def test_result_count_maintained_after_exclusions(self, system):
        system.reset_dialogue()
        first = system.ask("foggy clouds", k=4)
        system.reject(0)
        system.reject(1)
        follow_up = system.ask("foggy clouds", k=4)
        assert len(follow_up.items) == 4


class TestRejectThroughAsk:
    """``POST /ask`` honours ``/reject`` on both of its paths (it used to
    drop the session's rejected ids: single-hop fell through without
    exclusions, and agentic hops could not exclude at all)."""

    @pytest.mark.parametrize("agentic", [False, True])
    def test_rejected_item_stays_out_of_the_next_ask(self, scenes_kb, agentic):
        from repro.server import ApiServer
        from tests.core.conftest import fast_config

        server = ApiServer(fast_config(agentic=agentic), knowledge_base=scenes_kb)
        assert server.handle("POST", "/apply")["ok"]
        body = {"text": "a foggy and rainy mountain scene"}
        first = server.handle("POST", "/ask", body)["answer"]
        rejected = server.handle("POST", "/reject", {"rank": 0})["rejected_object_id"]
        assert rejected == first["items"][0]["object_id"]
        again = server.handle("POST", "/ask", body)["answer"]
        assert rejected not in [item["object_id"] for item in again["items"]]
        assert len(again["items"]) == len(first["items"])
        assert ("claims" in again) == agentic
        for claim in again.get("claims", []):
            assert rejected not in claim["citations"]
