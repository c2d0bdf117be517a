"""Agentic multi-hop answering with per-claim citations.

The paper's dialogue loop refines answers only by re-weighting
modalities; this module extends it to *refine by reasoning* (ROADMAP
item 3).  One question becomes several cooperating retrieval hops:

1. **Decompose** — :class:`QueryDecomposer` splits the question into one
   sub-query per latent-concept token it mentions (deterministic
   templates over the domain vocabulary, seeded).
2. **Retrieve** — the original query (hop 0) plus every sub-query run as
   one :meth:`~repro.core.coordinator.Coordinator.retrieve_batch` call —
   the PR 4 batch path, under the same read-lock acquisition, honoring
   admission control at the server boundary and the per-request
   :class:`~repro.core.resilience.Deadline` between phases here.
3. **Fuse** — hops merge with reciprocal-rank fusion
   (:func:`~repro.retrieval.fusion.fuse_responses`; hop 0 carries double
   stream weight), so objects surfacing in several concept hops float up.
4. **Synthesize** — the deterministic
   :class:`~repro.llm.agentic.ClaimSynthesizer` emits one :class:`Claim`
   per concept, each citing ``#id``s of retrieved objects; citation
   validity is enforced through
   :func:`~repro.llm.grounding.check_grounding`.
5. **Refine** — claims whose citations carry no textual evidence are
   re-retrieved with a concept-doubled query (bounded rounds, deadline
   aware) and re-synthesized; rescued claims are marked ``refined``.

Everything is off unless ``config.agentic`` is set — the layer registry
then never constructs an :class:`AgenticAnswerer` and the single-hop
path is bit-identical to the pre-agentic behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.core.answer import Answer
from repro.core.generation import context_items
from repro.data.concepts import ConceptSpace
from repro.data.objects import RawQuery
from repro.data.rendering import TextRenderer
from repro.llm.agentic import ClaimSynthesizer, claim_summary_line, render_subquery
from repro.llm.base import GenerationResult
from repro.llm.grounding import check_grounding
from repro.llm.prompts import ContextItem
from repro.observability import MetricsRegistry, fold_span, trace_span
from repro.retrieval.fusion import fuse_responses

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.core.config import MQAConfig
    from repro.core.coordinator import Coordinator
    from repro.core.layers import RoundContext

#: Stream weight of hop 0 (the undecomposed query) in the cross-hop
#: fusion; sub-query hops weigh 1.0.  The original query already encodes
#: the *composition* of all concepts, so it stays the strongest signal —
#: concept hops vote it up or down rather than outvote it.
HOP_ZERO_WEIGHT = 2.0


@dataclass(frozen=True)
class SubQuery:
    """One decomposed retrieval hop.

    Attributes:
        concept: The latent-concept token this hop targets.
        text: The rendered query text sent to retrieval.
        hop: 1-based hop number (hop 0 is the original query).
        refined: True when this hop is a refinement re-retrieval.
    """

    concept: str
    text: str
    hop: int
    refined: bool = False


@dataclass
class Claim:
    """One synthesized, citation-carrying statement of the answer.

    Attributes:
        concept: The latent-concept token the claim is about.
        text: The claim sentence, containing ``#id`` citations.
        citations: Retrieved object ids backing the claim (never empty
            when retrieval returned anything for the hop).
        supported: True when at least one cited object's description
            textually confirms the concept.
        hop: The retrieval hop that produced the cited evidence.
        refined: True when support was only found by the refinement pass.
    """

    concept: str
    text: str
    citations: List[int] = field(default_factory=list)
    supported: bool = False
    hop: int = 0
    refined: bool = False

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view for the API payload."""
        return {
            "concept": self.concept,
            "text": self.text,
            "citations": [int(object_id) for object_id in self.citations],
            "supported": self.supported,
            "hop": self.hop,
            "refined": self.refined,
        }


#: Decomposed sub-queries per question (hop 0, the question, runs on top).
MAX_HOPS = 4
#: Re-retrieval rounds for claims whose citations carry no textual evidence.
REFINE_ROUNDS = 1


class QueryDecomposer:
    """Split a question into per-concept sub-queries.

    Decomposition is driven by the domain's latent-concept vocabulary:
    every known concept token the question mentions becomes one hop, in
    mention order, capped at ``max_hops``.  Deterministic given the seed.
    """

    def __init__(
        self,
        space: ConceptSpace,
        max_hops: int = MAX_HOPS,
        seed: int = 0,
        temperature: float = 0.0,
    ) -> None:
        if max_hops < 1:
            raise ValueError(f"max_hops must be >= 1, got {max_hops}")
        self.space = space
        self.max_hops = max_hops
        self.seed = seed
        self.temperature = temperature

    def concepts(self, text: str) -> List[str]:
        """Known concept tokens mentioned in ``text``, deduplicated in
        mention order."""
        seen: List[str] = []
        for token in self.space.known_tokens(TextRenderer.tokenize(text)):
            if token not in seen:
                seen.append(token)
        return seen

    def decompose(self, text: str) -> List[SubQuery]:
        """The sub-queries for ``text`` (empty when no concept is known)."""
        return [
            SubQuery(
                concept=concept,
                text=render_subquery(
                    concept, self.seed, temperature=self.temperature
                ),
                hop=hop,
            )
            for hop, concept in enumerate(
                self.concepts(text)[: self.max_hops], start=1
            )
        ]

    def refine_query(self, concept: str) -> str:
        """The re-retrieval phrasing for an unsupported ``concept``."""
        return render_subquery(
            concept, self.seed, temperature=self.temperature, refine=True
        )


class AgenticAnswerer:
    """Orchestrates decompose → retrieve → fuse → synthesize → refine.

    Owns nothing but its parts: the retrieval/generation machinery is
    borrowed from the coordinator per call and the ``agentic.*`` counts
    live in the metrics registry (the coordinator's, or one of its own),
    so the answerer is stateless with respect to queries and safe under
    concurrent sessions.
    """

    def __init__(
        self,
        decomposer: QueryDecomposer,
        synthesizer: Optional[ClaimSynthesizer] = None,
        refine_rounds: int = REFINE_ROUNDS,
        metrics=None,
    ) -> None:
        if refine_rounds < 0:
            raise ValueError(f"refine_rounds must be >= 0, got {refine_rounds}")
        self.decomposer = decomposer
        self.synthesizer = synthesizer or ClaimSynthesizer(seed=decomposer.seed)
        self.refine_rounds = refine_rounds
        self.metrics = metrics or MetricsRegistry()

    @classmethod
    def from_config(
        cls, config: "MQAConfig", space: ConceptSpace, metrics=None
    ) -> "AgenticAnswerer":
        """The answerer ``config`` describes over the domain's concept
        ``space`` — decomposition needs the vocabulary, so the answerer
        exists only once preprocessing delivered the knowledge base."""
        decomposer = QueryDecomposer(
            space, seed=config.dataset.seed, temperature=config.temperature
        )
        return cls(decomposer, metrics=metrics)

    # ------------------------------------------------------------------
    # introspection (GET /stats, GET /health)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """The registry's ``agentic.*`` counts for the stats/health planes."""
        count = self.metrics.count
        groundedness = self.metrics.histogram("agentic.groundedness")
        return {
            "enabled": True,
            "max_hops": self.decomposer.max_hops,
            "refine_rounds": self.refine_rounds,
            "questions": count("agentic.questions"),
            "hops": count("agentic.hops"),
            "claims": count("agentic.claims"),
            "supported_claims": count("agentic.supported_claims"),
            "refined_claims": count("agentic.refined_claims"),
            "refine_rounds_run": count("agentic.refine_rounds_run"),
            "mean_groundedness": groundedness.mean if groundedness.count else None,
        }

    def _observe(self, claims: Sequence[Claim], hops: int, rounds: int) -> None:
        supported = sum(1 for claim in claims if claim.supported)
        self.metrics.inc("agentic.questions")
        self.metrics.inc("agentic.hops", hops)
        self.metrics.inc("agentic.claims", len(claims))
        self.metrics.inc("agentic.supported_claims", supported)
        self.metrics.inc(
            "agentic.refined_claims", sum(1 for claim in claims if claim.refined)
        )
        self.metrics.inc("agentic.refine_rounds_run", rounds)
        if claims:
            self.metrics.observe("agentic.groundedness", supported / len(claims))

    # ------------------------------------------------------------------
    # the multi-hop round
    # ------------------------------------------------------------------
    def answer(self, coordinator: "Coordinator", context: "RoundContext") -> Answer:
        """Run one agentic round over ``context``; returns the
        claim-carrying answer.

        Composes the coordinator's two verbs — ``retrieve_batch`` for the
        hops, the ``generate`` stage over the fused context — inside one
        ``agentic-query`` trace.  Falls back to the single-hop round (with
        ``claims=[]``) when the question mentions no known concept.
        """
        subqueries = self.decomposer.decompose(context.user_text)
        if not subqueries:
            answer = coordinator.run_round(context)
            answer.claims = []
            self._observe([], hops=0, rounds=0)
            return answer

        claims: List[Claim] = []
        coordinator.run_stages(
            "agentic-query",
            [
                ("hops", lambda ctx: self._retrieve_hops(coordinator, ctx, subqueries, claims)),
                ("generate", coordinator.generate),
            ],
            context,
            round=context.round_index,
            hops=len(subqueries) + 1,
            k=context.k,
        )
        answer = context.answer
        if answer.cost is not None:
            # Hop 0's ledger is the round's.  Its hop batch gave it its
            # ``retrieve`` share; the phases around the batches and the
            # generation are read off the round's own trace.
            fold_span(answer.cost, context.trace)
        claim_lines = [claim.text for claim in claims]
        tally = claim_summary_line(claims)
        if tally is not None:
            claim_lines.append(tally)
        answer.text = "\n".join([answer.text] + claim_lines)
        answer.claims = claims
        supported = sum(1 for claim in claims if claim.supported)
        answer.groundedness = supported / len(claims)
        coordinator.events.record(
            "generation", "frontend", "agentic-answer",
            f"{len(claims)} claims, {supported} supported",
        )
        return answer

    def _retrieve_hops(
        self,
        coordinator: "Coordinator",
        context: "RoundContext",
        subqueries: List[SubQuery],
        claims: List[Claim],
    ) -> None:
        """The agentic round's retrieval stage: decompose → retrieve →
        synthesize → refine → fuse.  Fills ``claims`` and leaves the fused
        response as the context ``generate`` composes from."""
        kb, k = coordinator.kb, context.k
        with trace_span("decompose") as span:
            queries = context.queries + [
                RawQuery.from_text(subquery.text) for subquery in subqueries
            ]
            span.set(concepts=",".join(s.concept for s in subqueries))
        responses = coordinator.retrieve_batch(
            queries, k=k, weights=context.weights, exclude_ids=context.exclude_ids
        )
        with trace_span("synthesize") as span:
            claims.extend(
                self._synthesize(subquery, responses[subquery.hop], kb)
                for subquery in subqueries
            )
            span.set(
                claims=len(claims),
                supported=sum(1 for c in claims if c.supported),
            )
        rounds_run = self._refine(
            coordinator, kb, claims, k, context.deadline,
            context.degraded_reasons, responses, context.exclude_ids,
        )
        # The final context is the cross-hop fusion over everything
        # retrieved (including successful refinement hops), so every
        # citation in the claim list resolves inside the answer's own
        # retrieved context.
        stream_weights = [HOP_ZERO_WEIGHT] + [1.0] * (len(responses) - 1)
        fused = fuse_responses(responses, k, stream_weights=stream_weights)
        context.degraded_reasons.extend(
            reason
            for reason in fused.degraded_reasons
            if reason not in context.degraded_reasons
        )
        fused.degraded_reasons = []
        # Hop 0's ledger becomes the round's: ``generate`` hands it on.
        fused.cost = responses[0].cost
        context.responses = [fused]
        self._observe(claims, hops=len(responses) - 1, rounds=rounds_run)

    def _synthesize(self, subquery: SubQuery, response, kb) -> Claim:
        """One claim for ``subquery`` from its hop's retrieval response."""
        items: List[ContextItem] = context_items(response, kb)
        text, citations, evidence = self.synthesizer.compose(
            subquery.concept, items
        )
        # The enforcement point: a claim may only cite ids its own hop
        # retrieved.  check_grounding also re-extracts the #ids from the
        # text, so phrasing and citation list cannot drift apart.
        grounded = check_grounding(
            GenerationResult(
                text=text,
                cited_object_ids=tuple(citations),
                grounded=evidence,
                model="claim-synthesizer",
            ),
            (item.object_id for item in items),
            strict=False,
        )
        return Claim(
            concept=subquery.concept,
            text=text,
            citations=citations,
            supported=evidence and grounded,
            hop=subquery.hop,
            refined=subquery.refined,
        )

    def _refine(
        self,
        coordinator: "Coordinator",
        kb,
        claims: List[Claim],
        k: int,
        deadline,
        degraded_reasons: List[str],
        responses: List,
        exclude_ids: Sequence[int] = (),
    ) -> int:
        """Re-retrieve for unsupported claims; returns rounds executed.

        Successful refinement hops are appended to ``responses`` so the
        final fusion (and therefore the answer's retrieved context)
        includes the rescuing evidence.
        """
        rounds = 0
        for _ in range(self.refine_rounds):
            pending = [
                (position, claim)
                for position, claim in enumerate(claims)
                if not claim.supported
            ]
            if not pending:
                break
            if deadline is not None and deadline.expired:
                degraded_reasons.append(
                    "agentic refinement skipped (deadline exhausted)"
                )
                break
            rounds += 1
            with trace_span("refine", claims=len(pending)) as span:
                refine_subqueries = [
                    SubQuery(
                        concept=claim.concept,
                        text=self.decomposer.refine_query(claim.concept),
                        hop=claim.hop,
                        refined=True,
                    )
                    for _, claim in pending
                ]
                refine_responses = coordinator.retrieve_batch(
                    [RawQuery.from_text(s.text) for s in refine_subqueries],
                    k=k,
                    exclude_ids=exclude_ids,
                )
                rescued = 0
                for (position, _), subquery, response in zip(
                    pending, refine_subqueries, refine_responses
                ):
                    claim = self._synthesize(subquery, response, kb)
                    if claim.supported:
                        rescued += 1
                        claims[position] = claim
                        responses.append(response)
                span.set(rescued=rescued)
        return rounds
