"""Off-mode parity: with ``agentic`` off, /ask answers bit-identically.

The agentic layer must be invisible when disabled — same answer text,
same result ids, same payload keys — so enabling the feature elsewhere
can never perturb existing deployments.
"""

import pytest

from repro.core import MQASystem
from repro.core.agentic import AgenticAnswerer, QueryDecomposer
from repro.server import ApiServer

from tests.agentic.conftest import agentic_config

QUESTION = "a foggy and rainy mountain scene"


@pytest.fixture(scope="module")
def off_system(scenes_kb):
    return MQASystem.from_knowledge_base(
        scenes_kb, agentic_config(agentic=False)
    )


class TestOffModeParity:
    def test_ask_agentic_matches_ask_bit_identically(self, off_system):
        off_system.reset_dialogue()
        plain = off_system.ask(QUESTION)
        off_system.reset_dialogue()
        agentic = off_system.ask_agentic(QUESTION)
        assert off_system.coordinator.layer("agentic") is None
        assert agentic.text == plain.text
        assert [i.object_id for i in agentic.items] == [
            i.object_id for i in plain.items
        ]
        assert [i.score for i in agentic.items] == [
            i.score for i in plain.items
        ]
        assert agentic.claims is None
        assert agentic.groundedness is None

    @pytest.mark.parametrize(
        "component, setting",
        [(QueryDecomposer, {"max_hops": 2}), (AgenticAnswerer, {"refine_rounds": 3})],
        ids=["agentic_max_hops", "agentic_refine_rounds"],  # the fields they were
    )
    def test_knobs_are_inert_when_off(
        self, scenes_kb, off_system, set_default, component, setting
    ):
        set_default(component, **setting)
        knobbed = MQASystem.from_knowledge_base(
            scenes_kb, agentic_config(agentic=False)
        )
        off_system.reset_dialogue()
        plain = off_system.ask(QUESTION)
        knobbed.reset_dialogue()
        agentic = knobbed.ask_agentic(QUESTION)
        assert knobbed.coordinator.layer("agentic") is None
        assert agentic.text == plain.text
        assert [i.object_id for i in agentic.items] == [
            i.object_id for i in plain.items
        ]

    def test_server_payloads_identical(self, scenes_kb):
        def payload(verb):
            server = ApiServer(
                agentic_config(agentic=False), knowledge_base=scenes_kb
            )
            assert server.handle("POST", "/apply")["ok"]
            response = server.handle("POST", verb, {"text": QUESTION})
            assert response["ok"]
            return response["answer"]

        ask = payload("/ask")
        query = payload("/query")
        assert ask == query
        assert "claims" not in ask and "groundedness" not in ask

    def test_config_summary_silent_when_off(self):
        config = agentic_config(agentic=False)
        assert "agentic" not in config.summary()

    def test_config_summary_reports_when_on(self):
        config = agentic_config()
        assert "multi-hop" in config.summary()["agentic"]

    def test_config_validation(self, scenes_kb):
        """The hop cap and the refine rounds are their components' settings,
        no config field, and the components refuse them out of range."""
        with pytest.raises(TypeError, match="agentic_max_hops"):
            agentic_config(agentic_max_hops=2)
        with pytest.raises(ValueError, match="max_hops"):
            QueryDecomposer(scenes_kb.space, max_hops=0)
        with pytest.raises(ValueError, match="refine_rounds"):
            AgenticAnswerer(QueryDecomposer(scenes_kb.space), refine_rounds=-1)
