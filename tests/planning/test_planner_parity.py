"""Parity and generation-safety tests at the system level.

The planning stack's core contract: everything is off by default, an
idle planner reproduces the planner-off results bit-identically, a
semantic threshold of zero degenerates to the exact-match cache, and a
semantic hit can never cross an ingest generation — including through
the shard router.
"""

import pytest

from repro.core import MQASystem
from repro.core.cache import SemanticQueryCache
from repro.core.planning import QueryPlanner
from tests.core.conftest import fast_config

QUERIES = ["foggy clouds", "sunny meadow", "calm river at dawn"]


def ask_all(system, queries):
    ids = []
    for text in queries:
        ids.append(tuple(system.ask(text).ids))
        system.reset_dialogue()
    return ids


class TestPlannerOffIsSeed:
    def test_disabled_by_default(self, scenes_kb):
        system = MQASystem.from_knowledge_base(scenes_kb, fast_config())
        assert system.coordinator.layer("planner") is None
        assert system.coordinator.layer("admission") is None
        assert not system.coordinator.execution.cache.semantic

    @pytest.mark.parametrize("framework", ["must", "je", "mr"])
    def test_idle_planner_matches_planner_off(self, scenes_kb, framework):
        baseline = MQASystem.from_knowledge_base(
            scenes_kb, fast_config(framework=framework)
        )
        planned = MQASystem.from_knowledge_base(
            scenes_kb, fast_config(framework=framework, planner=True)
        )
        assert ask_all(baseline, QUERIES) == ask_all(planned, QUERIES)

    def test_idle_full_stack_matches_planner_off(self, scenes_kb):
        baseline = MQASystem.from_knowledge_base(scenes_kb, fast_config())
        adaptive = MQASystem.from_knowledge_base(
            scenes_kb,
            fast_config(planner=True, semantic_cache=True, admission=True),
        )
        assert ask_all(baseline, QUERIES) == ask_all(adaptive, QUERIES)

    @pytest.mark.parametrize(
        "component, setting",
        [(QueryPlanner, {"recall_floor": 0.5}), (SemanticQueryCache, {"threshold": 0.7})],
        ids=["recall_floor", "semantic_threshold"],  # the fields they were
    )
    def test_stack_knobs_are_inert_when_off(self, scenes_kb, set_default, component, setting):
        """With ``planner``, ``semantic_cache`` and ``admission`` off, their
        settings at non-default values change no answer — near-duplicates
        included, which only a semantic cache would serve differently."""
        sequence = QUERIES + [" ".join(reversed(text.split())) for text in QUERIES]
        baseline = MQASystem.from_knowledge_base(scenes_kb, fast_config())
        set_default(component, **setting)
        knobbed = MQASystem.from_knowledge_base(scenes_kb, fast_config())
        assert ask_all(baseline, sequence) == ask_all(knobbed, sequence)
        assert knobbed.coordinator.layer("planner") is None
        assert not knobbed.coordinator.execution.cache.semantic

    def test_idle_plans_run_the_full_budget(self, scenes_kb):
        system = MQASystem.from_knowledge_base(
            scenes_kb, fast_config(planner=True)
        )
        answer = system.ask(QUERIES[0])
        assert answer.plan is not None
        assert answer.plan.tier == 0
        assert answer.plan.budget == system.coordinator.config.search_budget
        assert not answer.plan.degraded


class TestThresholdZeroDegeneracy:
    def test_exact_cache_behaviour_bit_identical(self, scenes_kb, set_default):
        set_default(SemanticQueryCache, threshold=0.0)
        exact = MQASystem.from_knowledge_base(scenes_kb, fast_config())
        degenerate = MQASystem.from_knowledge_base(
            scenes_kb, fast_config(semantic_cache=True)
        )
        sequence = [QUERIES[0], QUERIES[1], QUERIES[0], QUERIES[0]]
        assert ask_all(exact, sequence) == ask_all(degenerate, sequence)
        exact_cache = exact.coordinator.execution.cache
        degenerate_cache = degenerate.coordinator.execution.cache
        assert degenerate_cache.semantic  # the semantic class is in play
        assert degenerate_cache.hits == exact_cache.hits
        assert degenerate_cache.misses == exact_cache.misses
        assert degenerate_cache.semantic_hits == 0
        assert degenerate_cache.semantic_rejects == 0


class TestGenerationSafety:
    def _reversed(self, text):
        # Token-averaged text encoders are word-order invariant, so the
        # reversed sentence embeds identically (cosine 1.0) while taking
        # a different exact cache key.
        return " ".join(reversed(text.split()))

    def test_near_duplicate_is_served_semantically(self, scenes_kb):
        system = MQASystem.from_knowledge_base(
            scenes_kb, fast_config(semantic_cache=True)
        )
        first = system.ask(QUERIES[0])
        system.reset_dialogue()
        second = system.ask(self._reversed(QUERIES[0]))
        cache = system.coordinator.execution.cache
        assert cache.semantic_hits == 1
        assert first.ids == second.ids

    def test_semantic_hit_never_crosses_an_ingest(self):
        system = MQASystem.from_config(fast_config(semantic_cache=True))
        system.ask("foggy clouds")
        system.reset_dialogue()
        new_id = system.ingest(["foggy", "clouds"])
        answer = system.ask(self._reversed("foggy clouds"))
        cache = system.coordinator.execution.cache
        # Not served from the pre-ingest generation: the fresh (noise
        # free) object must be visible in the near-duplicate's answer.
        assert cache.semantic_hits == 0
        assert new_id in answer.ids

    def test_semantic_hit_never_crosses_an_ingest_through_shards(self):
        system = MQASystem.from_config(
            fast_config(semantic_cache=True, shards=2)
        )
        system.ask("foggy clouds")
        system.reset_dialogue()
        second = system.ask(self._reversed("foggy clouds"))
        cache = system.coordinator.execution.cache
        assert cache.semantic_hits == 1
        system.reset_dialogue()
        new_id = system.ingest(["foggy", "clouds"])
        answer = system.ask(self._reversed("foggy clouds"))
        assert cache.semantic_hits == 1  # no new semantic serve
        assert new_id in answer.ids
