"""Failure-injection tests: setup errors surface cleanly, never half-built."""

import pytest

from repro.core import Coordinator, MilestoneState
from repro.data import RawQuery
from repro.errors import CoordinatorError, GraphConstructionError, PipelineError
from repro.index import VectorIndex, register_index

from tests.core.conftest import fast_config


class ExplodingIndex(VectorIndex):
    """An index whose build always fails (injected fault)."""

    name = "exploding"

    def build(self, vectors, kernel):
        raise GraphConstructionError("injected build failure")

    def search_batch(self, queries, k, budget=64):  # pragma: no cover - never built
        raise AssertionError("unreachable")


@pytest.fixture()
def exploding_registered():
    register_index("exploding", lambda p: ExplodingIndex())
    yield
    from repro.index import registry

    del registry._REGISTRY["exploding"]


class TestSetupFailure:
    def test_index_failure_marks_milestone(self, scenes_kb, exploding_registered):
        coordinator = Coordinator(
            fast_config(index="exploding"), knowledge_base=scenes_kb
        )
        with pytest.raises(PipelineError, match="injected build failure"):
            coordinator.setup()
        milestone = coordinator.status.milestone("index construction")
        assert milestone.state is MilestoneState.FAILED
        assert "injected" in milestone.details["error"]

    def test_failed_system_rejects_queries(self, scenes_kb, exploding_registered):
        coordinator = Coordinator(
            fast_config(index="exploding"), knowledge_base=scenes_kb
        )
        with pytest.raises(PipelineError):
            coordinator.setup()
        with pytest.raises(CoordinatorError, match="set up"):
            coordinator.handle_query(RawQuery.from_text("hello"))

    def test_earlier_milestones_still_done(self, scenes_kb, exploding_registered):
        coordinator = Coordinator(
            fast_config(index="exploding"), knowledge_base=scenes_kb
        )
        with pytest.raises(PipelineError):
            coordinator.setup()
        assert (
            coordinator.status.milestone("data preprocessing").state
            is MilestoneState.DONE
        )
        assert (
            coordinator.status.milestone("vector representation").state
            is MilestoneState.DONE
        )

    def test_status_panel_renders_failure(self, scenes_kb, exploding_registered):
        from repro.core import StatusPanel

        coordinator = Coordinator(
            fast_config(index="exploding"), knowledge_base=scenes_kb
        )
        with pytest.raises(PipelineError):
            coordinator.setup()
        rendered = StatusPanel(coordinator.status).render()
        assert "✗" in rendered
