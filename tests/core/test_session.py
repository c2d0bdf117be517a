"""Tests for multi-round dialogue sessions."""

import numpy as np
import pytest

from repro.core import Coordinator, DialogueSession
from repro.data import Modality
from repro.errors import SessionError

from tests.core.conftest import fast_config


@pytest.fixture()
def session(scenes_kb):
    coordinator = Coordinator(fast_config(), knowledge_base=scenes_kb).setup()
    return DialogueSession(coordinator)


class TestAsk:
    def test_first_round(self, session):
        answer = session.ask("foggy clouds")
        assert session.round_count == 1
        assert answer is session.last_answer

    def test_image_upload(self, session, scenes_kb):
        answer = session.ask("similar to this", image=scenes_kb.get(2).get(Modality.IMAGE))
        assert session.rounds[0].had_image

    def test_empty_text_rejected(self, session):
        with pytest.raises(SessionError):
            session.ask("")

    def test_last_answer_before_rounds(self, session):
        with pytest.raises(SessionError):
            session.last_answer


class TestSelectAndRefine:
    def test_select_marks_round(self, session):
        session.ask("foggy clouds")
        object_id = session.select(1)
        assert session.rounds[0].selected_object_id == object_id

    def test_select_out_of_range(self, session):
        session.ask("foggy clouds")
        with pytest.raises(SessionError, match="out of range"):
            session.select(99)

    @pytest.mark.parametrize("verb", ["select", "reject"])
    def test_rank_must_be_an_integer(self, session, verb):
        """A string or a float used to escape as a bare TypeError, and
        ``True`` picked rank 1; a NumPy integer is an integer."""
        session.ask("foggy clouds")
        for rank in ("0", 0.0, True, None):
            with pytest.raises(SessionError, match=f"rank must be an integer, got {rank!r}"):
                getattr(session, verb)(rank)
        assert session.rounds[0].selected_object_id is None
        assert not session.rounds[0].rejected_object_ids
        object_id = getattr(session, verb)(np.int64(2))
        assert object_id == session.last_answer.items[2].object_id

    def test_refine_requires_selection(self, session):
        session.ask("foggy clouds")
        with pytest.raises(SessionError, match="select"):
            session.refine("more of these")

    def test_refine_before_ask(self, session):
        with pytest.raises(SessionError, match="ask"):
            session.refine("more")

    def test_refine_carries_selection_image(self, session):
        session.ask("foggy clouds")
        selected_id = session.select(0)
        session.refine("more images like this one")
        assert session.rounds[1].had_image
        # the selected object must not be re-returned
        assert selected_id not in session.last_answer.ids

    def test_preference_markers_propagate(self, session):
        session.ask("foggy clouds")
        selected_id = session.select(0)
        answer = session.refine("more foggy clouds")
        # if the preferred object appears again, it must be marked preferred
        for item in answer.items:
            if item.object_id == selected_id:
                assert item.preferred

    def test_refinement_improves_alignment(self, session, scenes_kb):
        session.ask("foggy clouds")
        selected_id = session.select(0)
        answer = session.refine("more similar foggy clouds")
        selected = scenes_kb.get(selected_id)
        latents = scenes_kb.latent_matrix()
        refined_alignment = max(
            float(latents[i] @ selected.latent) for i in answer.ids
        )
        assert refined_alignment > 0.5

    def test_history_grows(self, session):
        session.ask("foggy clouds")
        session.select(0)
        session.refine("more")
        assert session.round_count == 2
        assert session.rounds[0].index == 0
        assert session.rounds[1].index == 1
