"""End-to-end tests for the agentic answering round."""

from dataclasses import dataclass
from typing import List

import pytest

from repro.core import MQASystem
from repro.data import Modality
from repro.evaluation import groundedness_score, text_queries

from tests.agentic.conftest import agentic_config

MULTI_CONCEPT = "a foggy and rainy mountain scene"


class TestAgenticAnswer:
    def test_claims_each_carry_citations(self, agentic_system):
        agentic_system.reset_dialogue()
        answer = agentic_system.ask_agentic(MULTI_CONCEPT)
        assert answer.claims, "multi-concept question must produce claims"
        kb_ids = {obj.object_id for obj in agentic_system.kb}
        for claim in answer.claims:
            assert claim.citations, f"claim {claim.concept!r} cites nothing"
            assert set(claim.citations) <= kb_ids

    def test_claim_concepts_match_the_question(self, agentic_system):
        agentic_system.reset_dialogue()
        answer = agentic_system.ask_agentic(MULTI_CONCEPT)
        assert [claim.concept for claim in answer.claims] == ["foggy", "rainy"]

    def test_answer_text_carries_claims_and_tally(self, agentic_system):
        agentic_system.reset_dialogue()
        answer = agentic_system.ask_agentic(MULTI_CONCEPT)
        for claim in answer.claims:
            assert claim.text in answer.text
        assert "(Evidence check:" in answer.text

    def test_groundedness_reported_and_bounded(self, agentic_system):
        agentic_system.reset_dialogue()
        answer = agentic_system.ask_agentic(MULTI_CONCEPT)
        assert answer.groundedness is not None
        assert 0.0 <= answer.groundedness <= 1.0
        supported = sum(1 for claim in answer.claims if claim.supported)
        assert answer.groundedness == supported / len(answer.claims)

    def test_oracle_groundedness_scores_the_claims(self, agentic_system):
        agentic_system.reset_dialogue()
        answer = agentic_system.ask_agentic(MULTI_CONCEPT)
        score = groundedness_score(agentic_system.kb, answer.claims)
        assert 0.0 <= score <= 1.0

    def test_cost_profile_carries_agentic_stages(self, agentic_system):
        agentic_system.reset_dialogue()
        answer = agentic_system.ask_agentic(MULTI_CONCEPT)
        assert answer.cost is not None
        assert "agentic-decompose" in answer.cost.stage_ms
        assert "agentic-synthesize" in answer.cost.stage_ms

    def test_trace_records_the_hops(self, agentic_system):
        agentic_system.reset_dialogue()
        agentic_system.ask_agentic(MULTI_CONCEPT)
        trace = agentic_system.coordinator.tracer.last_trace
        assert trace is not None and trace.name == "agentic-query"
        child_names = [child.name for child in trace.children]
        assert "decompose" in child_names
        assert "synthesize" in child_names
        assert trace.attributes["hops"] == 3  # original query + 2 concepts

    def test_snapshot_counters_advance(self, agentic_system):
        agentic_system.reset_dialogue()
        before = agentic_system.coordinator.layer("agentic").snapshot()
        agentic_system.ask_agentic(MULTI_CONCEPT)
        after = agentic_system.coordinator.layer("agentic").snapshot()
        assert after["questions"] == before["questions"] + 1
        assert after["hops"] >= before["hops"] + 2
        assert after["claims"] == before["claims"] + 2
        assert after["enabled"] is True
        assert after["mean_groundedness"] is not None

    def test_conceptless_question_falls_back_single_hop(self, agentic_system):
        agentic_system.reset_dialogue()
        before = agentic_system.coordinator.layer("agentic").snapshot()
        answer = agentic_system.ask_agentic("zzz qqq xyzzy")
        after = agentic_system.coordinator.layer("agentic").snapshot()
        assert answer.claims == []
        assert answer.groundedness is None
        assert after["questions"] == before["questions"] + 1
        assert after["hops"] == before["hops"]

    def test_repeat_question_is_deterministic(self, agentic_system):
        agentic_system.reset_dialogue()
        first = agentic_system.ask_agentic(MULTI_CONCEPT)
        agentic_system.reset_dialogue()
        second = agentic_system.ask_agentic(MULTI_CONCEPT)
        assert first.text == second.text
        assert [i.object_id for i in first.items] == [
            i.object_id for i in second.items
        ]
        assert [c.to_dict() for c in first.claims] == [
            c.to_dict() for c in second.claims
        ]

    def test_dialogue_round_is_recorded(self, agentic_system):
        agentic_system.reset_dialogue()
        agentic_system.ask_agentic(MULTI_CONCEPT)
        assert len(agentic_system.session.rounds) == 1
        # The agentic answer participates in the normal dialogue loop.
        agentic_system.select(0)
        refined = agentic_system.refine("more dramatic")
        assert refined.round_index == 1


@dataclass
class SingleHopClaim:
    """A single-hop answer judged per concept, as agentic claims are."""

    concept: str
    citations: List[int]


def answer_recall(answer, gt_ids) -> float:
    return len({item.object_id for item in answer.items} & set(gt_ids)) / len(gt_ids)


class TestAgainstSingleHop:
    @pytest.mark.parametrize("framework", ["must", "je"])
    def test_hops_ground_more_claims_at_no_recall_cost(self, scenes_kb, framework):
        """Forty three-concept questions: per target concept, an answer is
        oracle-grounded when it cites an object of that concept's true
        top-10.  The agentic claims (one retrieval hop each) are grounded
        more often than the single-hop answers judged the same way (1.000
        against 0.970 on MUST here), the fused final list recovers no fewer
        ground-truth objects, and no claim cites nothing."""
        questions = text_queries(scenes_kb, 40, k=10, concepts_per_query=3, seed=7)
        single = MQASystem.from_knowledge_base(
            scenes_kb, agentic_config(agentic=False, framework=framework, result_count=10)
        )
        multi = MQASystem.from_knowledge_base(
            scenes_kb, agentic_config(framework=framework, result_count=10)
        )
        single_claims, multi_claims = [], []
        single_recall = multi_recall = 0.0
        for question in questions:
            text = str(question.raw.get(Modality.TEXT))
            single.reset_dialogue()
            plain = single.ask(text, k=10)
            single_recall += answer_recall(plain, question.gt_ids)
            single_claims += [
                SingleHopClaim(concept, [item.object_id for item in plain.items])
                for concept in question.target_concepts
            ]
            multi.reset_dialogue()
            agentic = multi.ask_agentic(text, k=10)
            multi_recall += answer_recall(agentic, question.gt_ids)
            multi_claims += agentic.claims
        assert len(multi_claims) == len(single_claims)
        assert all(claim.citations for claim in multi_claims)
        assert groundedness_score(scenes_kb, multi_claims, k=10) > groundedness_score(
            scenes_kb, single_claims, k=10
        )
        assert multi_recall >= single_recall
