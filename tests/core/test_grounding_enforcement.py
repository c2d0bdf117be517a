"""Tests proving the grounding check actually gates generation."""

import pytest

from repro.core.generation import AnswerGeneration
from repro.errors import GroundingError
from repro.llm.base import GenerationRequest, GenerationResult, LanguageModel
from repro.retrieval import RetrievalResponse, RetrievedItem


class HallucinatingLLM(LanguageModel):
    """An LLM that invents citations (injected fault)."""

    name = "hallucinator"

    def generate(self, request: GenerationRequest, temperature: float = 0.0) -> GenerationResult:
        return GenerationResult(
            text="definitely check out #9999, it is great",
            cited_object_ids=(9999,),
            grounded=True,  # it *claims* to be grounded
            model=self.name,
        )


def response(ids):
    return RetrievalResponse(
        framework="must",
        items=[RetrievedItem(object_id=i, score=0.1, rank=r) for r, i in enumerate(ids)],
    )


class TestGroundingEnforcement:
    def test_stray_citation_blocked(self, scenes_kb):
        component = AnswerGeneration(llm=HallucinatingLLM())
        with pytest.raises(GroundingError, match="#9999"):
            component.generate("find things", response([0, 1]), scenes_kb)

    def test_honest_llm_passes(self, scenes_kb):
        from repro.llm import TemplateLLM

        component = AnswerGeneration(llm=TemplateLLM())
        answer = component.generate("find things", response([0, 1]), scenes_kb)
        assert answer.grounded

    def test_registered_hallucinator_blocked_end_to_end(self, scenes_kb, registered):
        from repro.core import MQAConfig, MQASystem
        from repro.errors import GroundingError
        from repro.llm import register_llm
        from tests.core.conftest import fast_config

        registered(register_llm, "test-hallucinator", lambda p: HallucinatingLLM())
        system = MQASystem.from_knowledge_base(
            scenes_kb, fast_config(llm="test-hallucinator")
        )
        with pytest.raises(GroundingError):
            system.ask("foggy clouds")
