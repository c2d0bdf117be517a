"""The optional layers: which a deployment has and what each adds to a round.

A query round is an ordered stage list over one :class:`RoundContext`,
followed by post-round observers.  The coordinator owns ``retrieve`` and
``generate``; everything else a round does belongs to an optional layer.  A
layer that is on is one :class:`Layer` record, made by its entry in
:data:`REGISTRY`; a layer that is off has none — no stage, no observer, no
ledger — and the coordinator, which concatenates the records, names none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.agentic import AgenticAnswerer
from repro.core.answer import Answer
from repro.core.cache import QueryCache, SemanticQueryCache, query_embedding
from repro.core.config import MQAConfig
from repro.core.planning import AdmissionController, QueryPlan, QueryPlanner
from repro.core.resilience import Deadline
from repro.data.modality import Modality
from repro.data.objects import RawQuery
from repro.llm import QueryRewriter
from repro.llm.prompts import DialogueTurn
from repro.observability import (
    FlightRecorder, QualityMonitor, SLOMonitor, SLOTargets, Span, StatsPlane,
)
from repro.retrieval import RetrievalResponse


@dataclass
class RoundContext:
    """What one query round reads and writes on its way down the stages.

    A dialogue round carries one query plus its dialogue state; a raw
    ``/search`` batch carries several queries and none.  Inputs:
    ``queries`` (what retrieval will run — ``rewrite`` replaces the text,
    ``degrade-modalities`` drops failing modalities and empties the list
    when none survives), ``k``, ``budget`` and ``fanout`` (``plan``
    overrides them), ``weights`` (renormalised by ``degrade-modalities``),
    ``exclude_ids`` (rejected items), ``filter_fn`` (built from ``where``),
    ``deadline`` (resilience only) and ``submitted`` (the query as the
    user sent it).  Outputs: ``plan``, ``responses`` (row ``i`` answers
    query ``i``; empty when retrieval was skipped or unavailable),
    ``answer``, ``degraded_reasons`` (any stage appends), and from the
    runner ``elapsed_ms`` and ``trace`` — the round's own span tree (None
    when nothing traces), closed by the time the observers read it.
    """

    queries: List[RawQuery]
    k: int
    budget: int
    weights: "Dict[Modality, float] | None" = None
    exclude_ids: Sequence[int] = ()
    filter_fn: "Callable[[int], bool] | None" = None
    fanout: Optional[int] = None
    deadline: Optional[Deadline] = None
    submitted: Optional[RawQuery] = None
    user_text: str = ""
    had_image: bool = False
    history: Sequence[DialogueTurn] = ()
    preferred_ids: Sequence[int] = ()
    round_index: int = 0
    plan: Optional[QueryPlan] = None
    trace: Optional[Span] = None
    responses: List[RetrievalResponse] = field(default_factory=list)
    answer: Optional[Answer] = None
    degraded_reasons: List[str] = field(default_factory=list)
    elapsed_ms: float = 0.0


#: One entry of a stage or observer list: ``(name, callable(context))``.
Stage = Tuple[str, Callable[[RoundContext], None]]


@dataclass(frozen=True)
class Layer:
    """One layer that is on: its object, its ledger (None: it keeps none),
    the stages it inserts before ``retrieve`` and the observers it runs
    after the round."""

    part: Any
    snapshot: "Callable[[], dict | None] | None" = None
    stages: Tuple[Stage, ...] = ()
    observers: Tuple[Stage, ...] = ()


def _rewrite(c, parts):
    rewriter = QueryRewriter(c.kb.space)
    stage = partial(rewriter.rewrite_round, kb=c.kb, events=c.events)
    return Layer(rewriter, stages=(("rewrite", stage),))


def _resilience(c, parts):
    # The manager and its ledger are the coordinator's, on or off; this is the stage.
    stage = partial(
        c.resilience.degrade_modalities, representation=c.representation,
        weighted="weights" in c.execution.capabilities, events=c.events,
    )
    return Layer(c.resilience, stages=(("degrade-modalities", stage),))


def _stats(c, parts):
    stats = StatsPlane(metrics=c.metrics)
    return Layer(stats, stats.snapshot, observers=(("stats", stats.observe_round),))


def _admission(c, parts):
    admission = AdmissionController.from_config(c.config, metrics=c.metrics)
    return Layer(admission, admission.snapshot)


def _planner(c, parts):
    config = c.config
    planner = QueryPlanner(
        base_budget=config.search_budget, k=config.result_count, shards=config.shards or 0,
        stats=parts.get("stats"), metrics=c.metrics,
    )
    stage = partial(planner.plan_round, admission=parts.get("admission"))
    return Layer(planner, planner.snapshot, stages=(("plan", stage),))


def _cache(c, parts):
    config, planner = c.config, parts.get("planner")
    cache = SemanticQueryCache(
        query_embedding(c.representation.encoder_set),
        recall_guard=planner.semantic_guard if planner else None,
    ) if config.semantic_cache else QueryCache()
    c.execution.cache = cache
    return Layer(cache, cache.snapshot)


def _agentic(c, parts):
    answerer = AgenticAnswerer.from_config(c.config, c.kb.space, metrics=c.metrics)
    return Layer(answerer, answerer.snapshot)


def _slo(c, parts):
    slo = SLOMonitor(SLOTargets(latency_ms=c.config.slo_latency_ms))
    return Layer(slo, slo.snapshot)


def _recorder(c, parts):
    recorder = FlightRecorder(c.config.recorder_path, config=c.config.to_dict(), metrics=c.metrics)
    return Layer(recorder, recorder.snapshot, observers=(("recorder", recorder.observe_round),))


def _quality(c, parts):
    quality = QualityMonitor(c.kb, c.metrics, k=c.config.result_count)
    observe = partial(quality.observe_round, stats=parts.get("stats"))
    return Layer(quality, quality.snapshot, observers=(("quality", observe),))


#: Every optional layer by name: whether a configuration switches it on, and
#: its factory ``(coordinator, parts)``, run once set-up is done with the
#: objects of the layers built before it.  The order is stage order (``rewrite``,
#: ``degrade-modalities``, ``plan``; then the ``stats``, ``recorder``, ``quality``
#: observers) and builds each layer after those it uses.  A layer that reads the
#: knowledge base is off in LLM-only mode.
REGISTRY: Dict[str, Tuple[Callable[[MQAConfig], bool], Callable[..., Layer]]] = {
    "rewrite": (lambda c: c.query_rewriting and c.external_knowledge, _rewrite),
    "resilience": (lambda c: c.resilience and c.external_knowledge, _resilience),
    "stats": (lambda c: c.cost_accounting, _stats),
    "admission": (lambda c: c.admission, _admission),
    "planner": (lambda c: c.planner, _planner),
    "cache": (lambda c: (c.cache_queries or c.semantic_cache) and c.external_knowledge, _cache),
    "agentic": (lambda c: c.agentic and c.external_knowledge, _agentic),
    "slo": (lambda c: c.monitoring, _slo),
    "recorder": (lambda c: bool(c.recorder_path), _recorder),
    "quality": (lambda c: c.monitoring and c.external_knowledge, _quality),
}


def build_layers(coordinator) -> Dict[str, Layer]:
    """The records of the layers the coordinator's configuration switches
    on, by name, in :data:`REGISTRY` order."""
    layers: Dict[str, Layer] = {}
    for name, (on, build) in REGISTRY.items():
        if on(coordinator.config):
            layers[name] = build(coordinator, {n: layer.part for n, layer in layers.items()})
    return layers
