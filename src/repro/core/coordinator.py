"""The coordinator — the system's central nexus.

"Both the frontend and backend exclusively interact with the coordinator,
which functions as a conduit between them."  Setup (preprocessing ->
representation -> index construction) runs as a DAG on the CGraph stand-in;
each query round runs an ordered stage list assembled once at the end of
``setup()`` (rewrite -> degrade-modalities -> plan -> retrieve -> generate)
over one :class:`RoundContext`, followed by the post-round observers.  A
layer that is switched off contributes no stage, no observer and no
wrapper, so the default round is exactly ``[retrieve, generate]``.  Every
data transition is recorded in the event log, and every stage updates the
status board the monitoring panel renders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.agentic import AgenticAnswerer, QueryDecomposer
from repro.core.answer import Answer
from repro.core.cache import QueryCache, SemanticQueryCache
from repro.core.concurrency import RWLock
from repro.core.config import MQAConfig
from repro.core.events import EventLog
from repro.core.execution import QueryExecution
from repro.core.generation import AnswerGeneration
from repro.core.indexing import IndexConstruction
from repro.core.planning import AdmissionController, QueryPlan, QueryPlanner
from repro.core.preprocessing import DataPreprocessing
from repro.core.representation import RepresentationOutcome, VectorRepresentation
from repro.core.resilience import Deadline, ResilienceManager
from repro.core.status import StatusBoard
from repro.data.knowledge_base import KnowledgeBase
from repro.data.modality import Modality
from repro.data.objects import RawQuery
from repro.errors import CoordinatorError, MQAError
from repro.llm import QueryRewriter, build_llm
from repro.llm.prompts import DialogueTurn
from repro.observability import (
    NOOP_SPAN,
    NOOP_TRACER,
    FlightRecorder,
    MetricsRegistry,
    QualityMonitor,
    SLOMonitor,
    SLOTargets,
    Span,
    StatsPlane,
    Tracer,
    fold_span,
    trace_span,
)
from repro.pipeline import DagPipeline
from repro.retrieval import RetrievalResponse
from repro.utils import Timer


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


class Coordinator:
    """Owns the five components and mediates every interaction."""

    def __init__(
        self,
        config: MQAConfig,
        knowledge_base: Optional[KnowledgeBase] = None,
    ) -> None:
        self.config = config
        self._provided_kb = knowledge_base
        # Queries are pure reads over the index structures; ingestion and
        # removal mutate them.  Any number of handle_query calls share the
        # read side while ingest_object/remove_object take the write side
        # exclusively — a search can never observe a half-mutated graph.
        self.rwlock = RWLock()
        self.events = EventLog()
        self.status = StatusBoard()
        self.metrics = MetricsRegistry()
        # A flight recorder persists span trees and the cost plane reads its
        # times off them, so either implies tracing even when the tracing
        # flag itself is off.
        recording = config.recorder_path is not None
        self.tracer = (
            Tracer(metrics=self.metrics)
            if config.tracing or recording or config.cost_accounting
            else NOOP_TRACER
        )
        self.recorder: Optional[FlightRecorder] = (
            FlightRecorder(
                config.recorder_path, config=config.to_dict(), metrics=self.metrics
            )
            if recording
            else None
        )
        self.slo: Optional[SLOMonitor] = (
            SLOMonitor(
                SLOTargets(latency_ms=config.slo_latency_ms, window=config.slo_window)
            )
            if config.monitoring
            else None
        )
        self.quality: Optional[QualityMonitor] = None  # needs the kb; see setup()
        # The cost plane only exists when cost accounting is on; every
        # query/batch observed here feeds GET /stats and the labelled
        # Prometheus families.
        self.stats: Optional[StatsPlane] = (
            StatsPlane(metrics=self.metrics) if config.cost_accounting else None
        )
        self.resilience = ResilienceManager.from_config(config, metrics=self.metrics)
        # The planner consumes the stats plane's live distributions (when
        # cost accounting is on) and its own per-tier observations.
        self.planner: Optional[QueryPlanner] = (
            QueryPlanner(
                base_budget=config.search_budget,
                k=config.result_count,
                recall_floor=config.recall_floor,
                shards=config.shards or 0,
                stats=self.stats,
                metrics=self.metrics,
            )
            if config.planner
            else None
        )
        self.admission: Optional[AdmissionController] = (
            AdmissionController.from_config(config, metrics=self.metrics)
            if config.admission
            else None
        )
        self.agentic: Optional[AgenticAnswerer] = None  # needs the kb; see setup()
        self.kb: Optional[KnowledgeBase] = None
        self.representation: Optional[RepresentationOutcome] = None
        self.execution: Optional[QueryExecution] = None
        self.generation: Optional[AnswerGeneration] = None
        self.stages: List[Stage] = []
        self.observers: List[Stage] = []
        self.ledgers: Dict[str, Callable[[], "dict | None"]] = {}
        self._is_setup = False

    # ------------------------------------------------------------------
    # setup flow (preprocessing -> representation -> indexing)
    # ------------------------------------------------------------------
    def setup(self) -> "Coordinator":
        """Run the backend setup pipeline; returns self for chaining.

        On stage failure the corresponding milestone is marked FAILED (the
        status panel shows ✗ plus the error) and the pipeline error
        propagates — the system must never come up half-built.
        """
        pipeline = DagPipeline(name="mqa-setup")
        pipeline.add_node(
            "preprocessing",
            self._milestone("data preprocessing", self._run_preprocessing),
        )
        pipeline.add_node(
            "representation",
            self._milestone("vector representation", self._run_representation),
            depends_on=["preprocessing"],
        )
        pipeline.add_node(
            "indexing",
            self._milestone("index construction", self._run_indexing),
            depends_on=["representation"],
        )
        pipeline.add_node("llm", self._run_llm_setup, depends_on=["indexing"])
        pipeline.run({})
        self._assemble_round()
        self._is_setup = True
        return self

    def _milestone(
        self, name: str, run: Callable[[], Optional[Dict[str, str]]]
    ) -> Callable[[dict], None]:
        """A set-up pipeline node that reports ``run`` on the status board:
        started, timed once, then done with the details ``run`` returns
        (``None``: nothing to do without a knowledge base) or failed."""

        def node(context: dict) -> None:
            self.status.start(name)
            try:
                with Timer() as timer:
                    details = run()
            except Exception as exc:
                self.status.fail(name, f"{type(exc).__name__}: {exc}")
                raise
            if details is None:
                self.status.finish(name, 0.0, mode="skipped (LLM-only)")
            else:
                self.status.finish(name, timer.elapsed, **details)

        return node

    def _assemble_round(self) -> None:
        """Decide, once, what a query round consists of.

        The stage list is ordered; each entry is installed by the one
        flag named beside it, and the resilience guards wrap the search
        and the LLM call only when ``config.resilience`` is on.  The
        observers run after the round, outside its lock and trace.  The
        ledger table names every layer's ``snapshot`` — what ``/health``,
        ``/stats``, the status panel and the load generator select from by
        name through :meth:`ledger`; a layer that is off has no entry.
        """
        config = self.config
        retrieves = self.execution is not None  # False in LLM-only mode: no kb
        if config.monitoring and retrieves:
            self.quality = QualityMonitor(
                self.kb,
                self.metrics,
                sample_rate=config.monitor_sample_rate,
                k=config.result_count,
            )
        if config.agentic and retrieves:
            # Decomposition needs the domain's concept vocabulary, so the
            # answerer can only exist once preprocessing delivered the kb.
            self.agentic = AgenticAnswerer(
                QueryDecomposer(
                    self.kb.space,
                    max_hops=config.agentic_max_hops,
                    seed=config.dataset.seed,
                    temperature=config.temperature,
                ),
                refine_rounds=config.agentic_refine_rounds,
                metrics=self.metrics,
            )
        self._search = self._plain_search
        self._compose = self._plain_compose
        if config.resilience:
            self._search = self._guarded_search
            if self.generation.llm is not None:
                # The degradation target when the real LLM fails: same
                # component, no model — the grounded retrieval-only listing.
                self._fallback_generation = AnswerGeneration(
                    llm=None, temperature=config.temperature
                )
                self._compose = self._guarded_compose
        optional = [
            (config.query_rewriting, "rewrite", self._rewrite),
            (config.resilience, "degrade-modalities", self._degrade_modalities),
            (config.planner, "plan", self._plan),
            (True, "retrieve", self._retrieve),
        ]
        self.stages = [
            (name, stage) for on, name, stage in optional if on and retrieves
        ] + [("generate", self.generate)]
        hooks = [  # keyed on the layer object: present or None
            (self.stats, "stats", self._observe_stats),
            (self.recorder, "recorder", self._record_flight),
            (self.quality, "quality", self._observe_quality),
        ]
        self.observers = [(name, hook) for on, name, hook in hooks if on]
        layers = {
            "planner": self.planner,
            "admission": self.admission,
            "agentic": self.agentic,
            "cache": self.execution.cache if retrieves else None,
            "stats": self.stats,
            "slo": self.slo,
            "quality": self.quality,
            "recorder": self.recorder,
            "resilience": self.resilience,
        }
        self.ledgers = {
            name: layer.snapshot for name, layer in layers.items() if layer is not None
        }
        if self.tracer.enabled:
            self.ledgers["trace"] = self._trace_ledger
        if retrieves:
            self.ledgers.update(self.execution.framework.ledgers())

    def _run_preprocessing(self) -> Dict[str, str]:
        self.events.record("frontend", "coordinator", "configuration", "setup requested")
        self.kb = kb = DataPreprocessing().run(self.config, self._provided_kb)
        if kb is None:
            self.events.record("coordinator", "preprocessing", "knowledge-base", "disabled")
            return {"mode": "LLM-only (no external knowledge)"}
        self.events.record(
            "coordinator", "preprocessing", "knowledge-base", kb.describe()
        )
        return {
            "objects": str(len(kb)),
            "modalities": "+".join(m.value for m in kb.modalities),
            "domain": kb.name,
        }

    def _run_representation(self) -> Optional[Dict[str, str]]:
        if self.kb is None:
            return None
        self.representation = outcome = VectorRepresentation().run(self.config, self.kb)
        dims = ", ".join(
            f"{m.value}:{d}" for m, d in outcome.encoder_set.dims().items()
        )
        weights = ", ".join(
            f"{m.value}={w:.2f}" for m, w in outcome.weights.items()
        )
        self.events.record(
            "preprocessing", "representation", "objects", f"encoded with {dims}"
        )
        return {
            "encoders": outcome.encoder_set.name,
            "modal_count": str(len(outcome.encoder_set.modalities)),
            "vector_dims": dims,
            "weights": weights,
            "weight_mode": self.config.weight_mode.value,
        }

    def _run_indexing(self) -> Optional[Dict[str, str]]:
        if self.kb is None or self.representation is None:
            return None
        with self.tracer.trace(
            "index-build", index=self.config.index, objects=len(self.kb)
        ):
            framework = IndexConstruction().run(
                self.config,
                self.kb,
                self.representation.encoder_set,
                self.representation.weights,
                resilience=self.resilience,
                events=self.events,
                metrics=self.metrics,
                corpus=self.representation.corpus,
            )
        # The index holds its rows now; a second reference here would go
        # stale at the first ingest.
        self.representation.corpus = None
        self.execution = QueryExecution(
            framework,
            cache=self._build_cache(),
            cost_accounting=self.config.cost_accounting,
            index_name=self.config.index,
        )
        self.events.record(
            "representation", "indexing", "vectors", framework.describe()
        )
        return {"index": self.config.index, "framework": framework.name}

    def _build_cache(self) -> Optional[QueryCache]:
        """The query cache for this deployment.

        ``semantic_cache`` upgrades the exact-match LRU to the
        near-duplicate :class:`~repro.core.cache.SemanticQueryCache`; the
        embedding is the concatenation of the query's per-modality
        encoder vectors (each unit-normalised, jointly re-scaled so the
        cosine of two embeddings is the mean per-modality cosine), and
        the planner — when one exists — supplies the recall guard.
        """
        if self.config.semantic_cache:
            encoder_set = self.representation.encoder_set

            def embed(query: RawQuery):
                vectors = encoder_set.encode_query(query)
                signature: List[str] = []
                parts: List[np.ndarray] = []
                for modality in sorted(vectors, key=lambda m: m.value):
                    vector = np.asarray(vectors[modality], dtype=np.float64)
                    norm = float(np.linalg.norm(vector))
                    parts.append(vector / norm if norm > 0.0 else vector)
                    signature.append(modality.value)
                joined = np.concatenate(parts) / float(np.sqrt(len(parts)))
                return tuple(signature), joined

            return SemanticQueryCache(
                embed,
                threshold=self.config.semantic_threshold,
                recall_guard=(
                    self.planner.semantic_guard
                    if self.planner is not None
                    else None
                ),
            )
        return QueryCache() if self.config.cache_queries else None

    def _run_llm_setup(self, context: dict) -> None:
        llm = build_llm(self.config.llm, self.config.llm_params) if self.config.llm else None
        self.generation = AnswerGeneration(llm=llm, temperature=self.config.temperature)
        detail = self.config.llm or "none (direct engagement mode)"
        self.events.record("coordinator", "generation", "llm", detail)
        return None

    # ------------------------------------------------------------------
    # query flow: entry points over one runner
    # ------------------------------------------------------------------
    def _require_setup(self) -> None:
        if not self._is_setup:
            raise CoordinatorError("coordinator has not been set up; call setup() first")

    def handle_query(
        self,
        query: RawQuery,
        history: Sequence[DialogueTurn] = (),
        preferred_ids: Sequence[int] = (),
        round_index: int = 0,
        k: Optional[int] = None,
        weights: "Dict[Modality, float] | None" = None,
        exclude_ids: Sequence[int] = (),
        where=None,
        deadline_ms: Optional[float] = None,
    ) -> Answer:
        """Run one full query round through the stage list.

        ``weights`` applies a per-query modality re-weighting (the
        configuration box's "modality weights at the query point").
        ``where`` filters results by a predicate over
        :class:`~repro.data.MultiModalObject` (metadata filtering).
        ``deadline_ms`` overrides the configured per-request latency
        budget (resilience mode only; None uses ``config.deadline_ms``).
        """
        return self.run_round(
            self.open_round(
                query, history, preferred_ids, round_index, k, weights,
                exclude_ids, where, deadline_ms,
            )
        )

    def answer_agentic(
        self,
        query: RawQuery,
        history: Sequence[DialogueTurn] = (),
        preferred_ids: Sequence[int] = (),
        round_index: int = 0,
        k: Optional[int] = None,
        weights: "Dict[Modality, float] | None" = None,
        exclude_ids: Sequence[int] = (),
        deadline_ms: Optional[float] = None,
    ) -> Answer:
        """Run one multi-hop agentic round (``POST /ask``).

        Delegates to the :class:`~repro.core.agentic.AgenticAnswerer`
        when ``config.agentic`` is on; otherwise the round is the
        single-hop one, so an ``/ask`` against a non-agentic deployment
        answers bit-identically to ``/query``.  ``exclude_ids`` holds on
        every hop.
        """
        context = self.open_round(
            query, history, preferred_ids, round_index, k, weights,
            exclude_ids, None, deadline_ms,
        )
        if self.agentic is None:
            return self.run_round(context)
        return self.agentic.answer(self, context)

    def retrieve_batch(
        self,
        queries: Sequence[RawQuery],
        k: Optional[int] = None,
        weights: "Dict[Modality, float] | None" = None,
        exclude_ids: Sequence[int] = (),
    ) -> List[RetrievalResponse]:
        """Raw batched retrieval for a set of independent queries.

        The fast path behind server micro-batching and the agentic hops:
        no dialogue state, no query rewriting, no answer generation — a
        stage list of one (``retrieve``) under one shared read-lock
        acquisition.  Element ``i`` of the returned list is bit-identical
        (ids and scores) to a serial retrieval of ``queries[i]``, and
        consults and populates the query cache exactly as that would —
        same keys, same hit/miss accounting — so a query served serially
        and a query served inside a batch are fully interchangeable.
        ``weights`` and ``exclude_ids`` apply to every query.
        """
        self._require_setup()
        if self.execution is None:
            raise CoordinatorError("cannot retrieve in LLM-only mode")
        context = RoundContext(
            queries=list(queries),
            k=k if k is not None else self.config.result_count,
            budget=self.config.search_budget,
            weights=weights,
            exclude_ids=exclude_ids,
        )
        if not context.queries:
            return []
        with self.rwlock.read():
            self.run_stages(
                "query-batch", [("retrieve", self._retrieve_batch)], context,
                queries=len(context.queries), k=context.k,
            )
        self._observe(context)
        self.metrics.inc("coordinator.queries", len(context.queries))
        self.metrics.observe("coordinator.batch_query_ms", context.elapsed_ms)
        self.events.record(
            "coordinator", "execution", "query-batch",
            f"{len(context.queries)} queries, k={context.k}",
        )
        return context.responses

    def open_round(
        self,
        query: RawQuery,
        history: Sequence[DialogueTurn],
        preferred_ids: Sequence[int],
        round_index: int,
        k: Optional[int],
        weights: "Dict[Modality, float] | None",
        exclude_ids: Sequence[int],
        where,
        deadline_ms: Optional[float],
    ) -> RoundContext:
        """The context of one dialogue round, as the frontend submitted it."""
        self._require_setup()
        user_text = str(query.get(Modality.TEXT)) if query.has(Modality.TEXT) else ""
        had_image = query.has(Modality.IMAGE)
        self.events.record(
            "frontend", "coordinator", "raw-query",
            f"round {round_index}: {user_text[:60]!r}"
            + (" +image" if had_image else ""),
        )
        filter_fn = None
        if where is not None:
            kb = self.kb
            filter_fn = lambda object_id: where(kb.get(object_id))  # noqa: E731
        return RoundContext(
            queries=[query],
            k=k if k is not None else self.config.result_count,
            budget=self.config.search_budget,
            weights=weights,
            exclude_ids=exclude_ids,
            filter_fn=filter_fn,
            deadline=self.resilience.deadline(deadline_ms),
            submitted=query,
            user_text=user_text,
            had_image=had_image,
            history=history,
            preferred_ids=preferred_ids,
            round_index=round_index,
        )

    def run_round(self, context: RoundContext) -> Answer:
        """Run the single-hop stage list over ``context``; returns its answer."""
        with self.rwlock.read():
            self.run_stages(
                "query", self.stages, context, round=context.round_index,
                k=context.k, had_image=context.had_image,
            )
        self._observe(context)
        answer = context.answer
        self.metrics.inc("coordinator.queries")
        if answer.degraded:
            self.metrics.inc("coordinator.degraded")
        self.metrics.observe("coordinator.query_ms", context.elapsed_ms)
        return answer

    def run_stages(
        self, name: str, stages: Sequence[Stage], context: RoundContext, **attributes
    ) -> None:
        """The one runner: ``stages`` in order over ``context``, inside one
        trace named ``name`` that stays on ``context.trace``, timed into
        ``context.elapsed_ms``."""
        with Timer() as timer, self.tracer.trace(name, **attributes) as root:
            context.trace = None if root is NOOP_SPAN else root
            for _, stage in stages:
                stage(context)
        context.elapsed_ms = timer.elapsed * 1000.0

    def _observe(self, context: RoundContext) -> None:
        # Stats folding, recording, and quality scoring happen OUTSIDE the
        # trace block: they must not add spans, or a replayed flight would
        # never match its recording's span-tree shape — and what they read,
        # ``context.trace``, is closed and belongs to this round alone.
        for _, observe in self.observers:
            observe(context)

    # ------------------------------------------------------------------
    # stages (each installed by one flag; see _assemble_round)
    # ------------------------------------------------------------------
    def _rewrite(self, context: RoundContext) -> None:
        """``query_rewriting``: fold dialogue intent into a vague follow-up."""
        user_text = context.user_text
        if not (user_text and (context.history or context.preferred_ids)):
            return
        with trace_span("rewrite") as span:
            descriptions = []
            for object_id in context.preferred_ids:
                obj = self.kb.get(object_id)
                if obj.has(Modality.TEXT):
                    descriptions.append(str(obj.get(Modality.TEXT)))
            rewritten = QueryRewriter(self.kb.space).rewrite(
                user_text,
                history_texts=[turn.user_text for turn in context.history],
                selected_descriptions=descriptions,
            )
            span.set(rewritten=rewritten != user_text)
        if rewritten != user_text:
            self.events.record(
                "generation", "execution", "rewritten-query", rewritten[:60]
            )
            context.queries = [
                context.queries[0].with_content(Modality.TEXT, rewritten)
            ]

    def _degrade_modalities(self, context: RoundContext) -> None:
        """``resilience``: probe each query modality's encoder; drop the
        ones that fail.

        Encoders are pure functions of their content, so a successful
        probe guarantees the framework's own encode of the same content
        succeeds identically.  Leaves the (possibly reduced) query — or
        none when no modality survives — plus weights renormalised over
        the surviving modalities.
        """
        query = context.queries[0]
        encoder_set = self.representation.encoder_set
        dropped: List[Modality] = []
        for modality in query.modalities:
            if modality not in encoder_set.modalities:
                continue
            encoder = encoder_set.encoder_for(modality)
            content = query.get(modality)
            try:
                self.resilience.call(
                    f"encoder.{modality.value}",
                    lambda enc=encoder, m=modality, c=content: enc.encode(m, c),
                    deadline=context.deadline,
                )
            except MQAError as exc:
                dropped.append(modality)
                context.degraded_reasons.append(
                    f"modality {modality.value} dropped ({type(exc).__name__})"
                )
                self.resilience.record_fallback("modality_dropped")
                self.events.record(
                    "representation", "execution", "modality-dropped",
                    f"{modality.value}: {type(exc).__name__}: {exc}"[:80],
                )
        if not dropped:
            return
        remaining = {
            modality: query.get(modality)
            for modality in query.modalities
            if modality not in dropped
        }
        if not remaining:
            context.degraded_reasons.append(
                "retrieval skipped (no encodable modality)"
            )
            self.resilience.record_fallback("retrieval_unavailable")
            context.queries = []
            return
        context.queries = [
            RawQuery(content=remaining, metadata=dict(query.metadata))
        ]
        context.weights = self._renormalised_weights(context.weights, dropped)

    def _renormalised_weights(
        self,
        weights: "Dict[Modality, float] | None",
        dropped: Sequence[Modality],
    ) -> "Dict[Modality, float] | None":
        """Redistribute the dropped modalities' weight over the survivors.

        The distance kernels expect a weight for *every* schema modality,
        so dropped modalities stay in the map pinned to 0.0 while the
        survivors are rescaled to sum to 1.  Frameworks without a
        per-query ``weights`` capability (joint embedding) fuse with
        their built-in weighting, so they get None.
        """
        if "weights" not in self.execution.capabilities:
            return None
        if weights is not None:
            base = {Modality.parse(m): float(w) for m, w in weights.items()}
        else:
            base = dict(self.representation.weights)
        kept_total = sum(w for m, w in base.items() if m not in dropped)
        if kept_total <= 0:
            return None
        return {
            m: (0.0 if m in dropped else w / kept_total)
            for m, w in base.items()
        }

    def _plan(self, context: RoundContext) -> None:
        """``planner``: pick this round's search budget (and fan-out)."""
        if not context.queries:
            return
        pressure = self.admission is not None and self.admission.under_pressure
        with trace_span("plan") as span:
            plan = self.planner.plan(deadline=context.deadline, pressure=pressure)
            span.set(**plan.to_dict())
        context.plan = plan
        context.budget = plan.budget
        context.fanout = plan.fanout
        if plan.degraded:
            context.degraded_reasons.append(
                f"plan degraded to budget {plan.budget} (deadline pressure)"
            )

    def _retrieve(self, context: RoundContext) -> None:
        """The round's retrieval; a plan's latency is reported back."""
        if not context.queries:
            return
        self.status.start("query execution")
        self.events.record("coordinator", "execution", "query", f"k={context.k}")
        with Timer() as timer:
            context.responses = self._search(context)
        if context.plan is not None:
            self.planner.observe(
                context.plan, timer.elapsed * 1000.0, ok=bool(context.responses)
            )
        for response in context.responses:
            # Partial results from the shard router (lost shards) degrade
            # the round rather than failing it.
            context.degraded_reasons.extend(response.degraded_reasons)
            self.status.finish(
                "query execution",
                timer.elapsed,
                results=str(len(response)),
                framework=response.framework,
                hops=str(response.stats.hops),
            )
            self.events.record(
                "execution", "generation", "search-results",
                f"{len(response)} items via {response.framework}",
            )

    def _plain_search(self, context: RoundContext) -> List[RetrievalResponse]:
        return [
            self.execution.execute(
                context.queries[0],
                k=context.k,
                budget=context.budget,
                weights=context.weights,
                exclude_ids=context.exclude_ids,
                filter_fn=context.filter_fn,
                fanout=context.fanout,
            )
        ]

    def _guarded_search(self, context: RoundContext) -> List[RetrievalResponse]:
        """``resilience``: retried, deadline-bound search; a search that
        still fails degrades the round to no retrieval."""
        try:
            return self.resilience.call(
                "index.search",
                lambda: self._plain_search(context),
                deadline=context.deadline,
            )
        except MQAError as exc:
            context.degraded_reasons.append(
                f"retrieval unavailable ({type(exc).__name__})"
            )
            self.resilience.record_fallback("retrieval_unavailable")
            self.status.fail("query execution", f"{type(exc).__name__}: {exc}")
            self.events.record(
                "execution", "generation", "search-failed",
                f"{type(exc).__name__}: {exc}"[:80],
            )
            return []

    def _retrieve_batch(self, context: RoundContext) -> None:
        """The raw batch's retrieval; per-query profiles ride on each
        response."""
        context.responses = self.execution.execute_batch(
            context.queries,
            k=context.k,
            budget=context.budget,
            weights=context.weights,
            exclude_ids=context.exclude_ids,
        )

    def generate(self, context: RoundContext) -> None:
        """Compose ``context.answer`` from the first response (or none)."""
        self.status.start("answer generation")
        with Timer() as timer, trace_span("generation") as span:
            answer = self._compose(context)
            span.set(llm=answer.llm or "none", grounded=answer.grounded)
        if context.responses:
            # The round's ledger is its retrieval profile, carried on the
            # Answer for the API/stats plane.
            answer.cost = context.responses[0].cost
        self.status.finish(
            "answer generation",
            timer.elapsed,
            llm=answer.llm or "none",
            grounded=str(answer.grounded),
        )
        self.events.record("generation", "frontend", "answer", answer.text[:60])
        if context.degraded_reasons:
            answer.degraded = True
            answer.degraded_reasons = context.degraded_reasons
        answer.plan = context.plan
        context.answer = answer

    def _plain_compose(
        self, context: RoundContext, component: Optional[AnswerGeneration] = None
    ) -> Answer:
        return (component or self.generation).generate(
            context.user_text,
            context.responses[0] if context.responses else None,
            self.kb,
            history=context.history,
            preferred_ids=context.preferred_ids,
            had_image=context.had_image,
            round_index=context.round_index,
        )

    def _guarded_compose(self, context: RoundContext) -> Answer:
        """``resilience``: a failing or out-of-budget LLM degrades to the
        retrieval-only listing instead of failing the round."""
        deadline = context.deadline
        if deadline is not None and deadline.expired:
            reason = "llm skipped (deadline exhausted)"
            detail = "deadline exhausted before LLM call"
        else:
            try:
                return self.resilience.call(
                    "llm.generate",
                    lambda: self._plain_compose(context),
                    deadline=deadline,
                )
            except MQAError as exc:
                reason = f"llm fallback ({type(exc).__name__})"
                detail = f"{type(exc).__name__}: {exc}"[:80]
        context.degraded_reasons.append(reason)
        self.resilience.record_fallback("llm_fallback")
        self.events.record("generation", "frontend", "generation-fallback", detail)
        return self._plain_compose(context, self._fallback_generation)

    # ------------------------------------------------------------------
    # post-round observers
    # ------------------------------------------------------------------
    def _observe_stats(self, context: RoundContext) -> None:
        """``cost_accounting``: read the wall times off the round's closed
        trace, then fold the ledgers into the stats plane.

        A lone profile (a dialogue round, a batch of one) takes the whole
        tree.  A wider batch amortises one search over its rows: what the
        ``retrieval-batch`` subtree holds (stages, shard rows) goes to a
        batch-scope ledger and each row takes an equal share of its time.
        """
        profiles = [response.cost for response in context.responses]
        ledger = None
        if len(profiles) == 1:
            fold_span(profiles[0], context.trace)
        elif profiles:
            batch = context.trace.find("retrieval-batch")
            ledger = self.execution.new_profile(batch=len(profiles))
            fold_span(ledger, batch)
            share_ms = batch.duration_ms / len(profiles)
            for profile in profiles:
                profile.add_stage("retrieve", share_ms)
        self.stats.observe_batch(profiles, ledger, context.elapsed_ms)

    def _record_flight(self, context: RoundContext) -> None:
        """``recorder_path``: persist one finished round (raw batches are
        not dialogue rounds and are not recorded)."""
        answer, query = context.answer, context.submitted
        if answer is None:
            return
        request: Dict[str, object] = {
            "text": context.user_text,
            "k": context.k,
            "round_index": context.round_index,
            "preferred_ids": [int(i) for i in context.preferred_ids],
            "exclude_ids": [int(i) for i in context.exclude_ids],
            "history": [
                {"user": turn.user_text, "system": turn.system_text}
                for turn in context.history
            ],
            "metadata": dict(query.metadata),
        }
        if context.had_image:
            request["image"] = query.get(Modality.IMAGE)
        if context.weights is not None:
            request["weights"] = {
                (m.value if isinstance(m, Modality) else str(m)): float(w)
                for m, w in context.weights.items()
            }
        if context.filter_fn is not None:
            # Predicates are arbitrary callables; replay skips such entries.
            request["filtered"] = True
        self.recorder.record(
            request,
            result_ids=list(answer.ids),
            span_tree=context.trace.to_dict(),
            answer={
                "text": answer.text,
                "grounded": answer.grounded,
                "llm": answer.llm,
            },
        )

    def _observe_quality(self, context: RoundContext) -> None:
        """``monitoring``: score a sampled round against the concept ground
        truth, and close the loop — sampled recall@k feeds the stats
        plane's group and tunes the planner's per-tier recall model."""
        if not context.user_text:
            return
        answer = context.answer
        score = self.quality.maybe_score(context.user_text, answer.ids)
        if score is None:
            return
        recall = float(score["recall_at_k"])
        if answer.cost is not None:
            self.stats.observe_recall(
                answer.cost.framework, answer.cost.index, recall
            )
        if answer.plan is not None:
            self.planner.observe_recall(answer.plan.budget, recall)

    # ------------------------------------------------------------------
    # incremental ingestion
    # ------------------------------------------------------------------
    def _mutate(self, verb: str, refusal: str, stage: Callable[[], tuple]) -> int:
        """The one store-mutation frame, under the write lock throughout.

        ``stage()`` names the object and returns ``(object_id, apply, undo,
        detail)``.  ``apply`` runs once through the ``store.<verb>``
        resilience site; if anything escapes it, ``undo`` runs, a
        ``<verb>-failed`` event and the ``coordinator.<verb>_errors``
        counter record the rollback and the error propagates.  Either way
        the query cache is invalidated before the lock is released, and
        events are recorded while it is still held, keeping the event
        log's ordering consistent with the mutation order.
        """
        self._require_setup()
        if self.kb is None or self.execution is None:
            raise CoordinatorError(refusal)
        with self.rwlock.write():
            object_id, apply, undo, detail = stage()
            try:
                self.resilience.call(f"store.{verb}", apply, retryable=False)
            except BaseException as exc:
                undo()
                self.events.record(
                    "preprocessing", "coordinator", f"{verb}-failed",
                    f"object {object_id} rolled back: "
                    f"{type(exc).__name__}: {exc}"[:80],
                )
                self.metrics.inc(f"coordinator.{verb}_errors")
                raise
            finally:
                self.execution.invalidate_cache()
            self.events.record("frontend", "preprocessing", verb, detail)
        return object_id

    def ingest_object(
        self,
        concepts,
        intensities=None,
        metadata: "dict | None" = None,
    ) -> int:
        """Add one new object to the knowledge base *and* the live index.

        The object is rendered into every configured modality, encoded with
        the active encoder set, and inserted into the retrieval framework's
        index structures — no rebuild.  Returns the new object id.

        Exception safety: if the index insertion fails, the freshly
        created knowledge-base object is discarded and the query cache is
        invalidated before the error propagates, so no reader can ever
        observe an object that exists in the store but not in the index.
        """

        def stage() -> tuple:
            obj = self.kb.create_object(
                concepts, intensities=intensities, metadata=metadata
            )
            return (
                obj.object_id,
                lambda: self.execution.framework.add_object(obj),
                lambda: self.kb.discard_object(obj.object_id),
                f"object {obj.object_id}: {', '.join(obj.concepts)}",
            )

        return self._mutate("ingest", "cannot ingest in LLM-only mode", stage)

    def remove_object(self, object_id: int) -> None:
        """Tombstone an object: it stays stored but never surfaces again.

        Exception safety: the tombstone, the ``deleted`` metadata flag,
        and the cache invalidation apply atomically under the write lock —
        a failed framework removal restores the tombstone set before the
        error propagates, so the store's metadata never disagrees with
        the index's view of which objects are live.
        """

        def stage() -> tuple:
            obj = self.kb.get(object_id)  # validates the id
            framework = self.execution.framework
            already_deleted = object_id in framework.deleted_ids

            def apply() -> None:
                framework.remove_object(object_id)
                obj.metadata["deleted"] = True

            def undo() -> None:
                if not already_deleted:
                    framework.restore_object(object_id)
                    obj.metadata.pop("deleted", None)

            return object_id, apply, undo, f"object {object_id}"

        self._mutate("remove", "cannot remove objects in LLM-only mode", stage)

    # ------------------------------------------------------------------
    # introspection used by the panels
    # ------------------------------------------------------------------
    @property
    def weights(self) -> Dict[Modality, float]:
        """Modality weights in force (empty in LLM-only mode)."""
        if self.representation is None:
            return {}
        return dict(self.representation.weights)

    def ledger(self, name: str) -> "dict | None":
        """One read of the ledger called ``name`` (``None``: no such layer
        in this deployment)."""
        read = self.ledgers.get(name)
        return read() if read is not None else None

    def _trace_ledger(self) -> "dict | None":
        last = self.tracer.last_trace
        return {"last": last.render()} if last is not None else None

    def get_object(self, object_id: int):
        """Fetch a knowledge-base object through the coordinator."""
        if self.kb is None:
            raise CoordinatorError("no knowledge base attached")
        return self.kb.get(object_id)
