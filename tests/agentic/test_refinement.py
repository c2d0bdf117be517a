"""Refinement tests: unsupported claims are re-retrieved and rescued.

On the clean synthetic corpus the sub-query hops are text-only, so the
text stream almost always surfaces a token-bearing description and every
claim starts supported — refinement has nothing to do.  These tests
recreate the situation refinement exists for (the first hop surfacing
only evidence-free items, e.g. via image-similarity retrieval over lossy
descriptions) by stripping evidence-bearing ids from the *first*
``retrieve_batch`` call only; the refinement pass runs against the
unpatched engine and must rescue the claims.
"""

from repro.data.modality import Modality
from repro.data.rendering import TextRenderer


def strip_first_hop_evidence(system, monkeypatch):
    """Make the first retrieve_batch return evidence-free sub-hop items."""
    coordinator = system.coordinator
    kb = system.kb
    space = kb.space
    real = coordinator.retrieve_batch
    state = {"first": True}

    def fake(queries, **options):
        responses = real(queries, **options)
        if not state["first"]:
            return responses
        state["first"] = False
        for query, response in zip(queries[1:], responses[1:]):
            concepts = set(
                space.known_tokens(
                    TextRenderer.tokenize(str(query.get(Modality.TEXT)))
                )
            )
            response.items = [
                item
                for item in response.items
                if not concepts
                & set(
                    TextRenderer.tokenize(
                        str(kb.get(item.object_id).get(Modality.TEXT))
                    )
                )
            ]
        return responses

    monkeypatch.setattr(coordinator, "retrieve_batch", fake)


class TestRefinement:
    def test_unsupported_claims_get_rescued(self, agentic_system, monkeypatch):
        agentic_system.reset_dialogue()
        before = agentic_system.coordinator.agentic.snapshot()
        strip_first_hop_evidence(agentic_system, monkeypatch)
        answer = agentic_system.ask_agentic("a foggy and rainy mountain scene")
        after = agentic_system.coordinator.agentic.snapshot()
        assert after["refine_rounds_run"] == before["refine_rounds_run"] + 1
        rescued = [claim for claim in answer.claims if claim.refined]
        assert rescued, "no claim was rescued by refinement"
        for claim in rescued:
            assert claim.supported
            assert claim.citations
        assert (
            after["refined_claims"] == before["refined_claims"] + len(rescued)
        )

    def test_refine_cost_stage_recorded(self, agentic_system, monkeypatch):
        agentic_system.reset_dialogue()
        strip_first_hop_evidence(agentic_system, monkeypatch)
        answer = agentic_system.ask_agentic("a foggy and rainy mountain scene")
        assert "agentic-refine" in answer.cost.stage_ms

    def test_zero_rounds_leaves_claims_unsupported(
        self, agentic_system, monkeypatch
    ):
        agentic_system.reset_dialogue()
        before = agentic_system.coordinator.agentic.snapshot()
        monkeypatch.setattr(
            agentic_system.coordinator.agentic, "refine_rounds", 0
        )
        strip_first_hop_evidence(agentic_system, monkeypatch)
        answer = agentic_system.ask_agentic("a foggy and rainy mountain scene")
        after = agentic_system.coordinator.agentic.snapshot()
        assert after["refine_rounds_run"] == before["refine_rounds_run"]
        assert not any(claim.supported for claim in answer.claims)
        assert answer.groundedness == 0.0
        assert "agentic-refine" not in answer.cost.stage_ms

    def test_already_supported_claims_skip_refinement(self, agentic_system):
        agentic_system.reset_dialogue()
        before = agentic_system.coordinator.agentic.snapshot()
        answer = agentic_system.ask_agentic("a foggy and rainy mountain scene")
        after = agentic_system.coordinator.agentic.snapshot()
        assert all(claim.supported for claim in answer.claims)
        assert after["refine_rounds_run"] == before["refine_rounds_run"]

    def test_expired_deadline_skips_refinement(self, agentic_system):
        from repro.core.agentic import Claim

        class Expired:
            expired = True

        answerer = agentic_system.coordinator.agentic
        claims = [Claim(concept="foggy", text="x", supported=False, hop=1)]
        reasons = []
        rounds = answerer._refine(
            agentic_system.coordinator,
            agentic_system.kb,
            claims,
            k=5,
            deadline=Expired(),
            degraded_reasons=reasons,
            responses=[],
        )
        assert rounds == 0
        assert reasons == ["agentic refinement skipped (deadline exhausted)"]
        assert not claims[0].supported
