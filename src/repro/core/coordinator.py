"""The coordinator — the system's central nexus.

"Both the frontend and backend exclusively interact with the coordinator,
which functions as a conduit between them."  Setup (preprocessing ->
representation -> index construction) runs as a DAG on the CGraph stand-in;
each query round runs an ordered stage list assembled once at the end of
``setup()`` over one :class:`~repro.core.layers.RoundContext`, followed by
the post-round observers.  The coordinator owns ``retrieve`` and
``generate``; every other stage and observer, and every ledger but its
own, is contributed by an optional layer of :mod:`repro.core.layers`.  A
layer that is switched off contributes nothing, so the default round is
exactly ``[retrieve, generate]``.  Every data transition is recorded in the
event log, and every stage updates the status board the monitoring panel
renders.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.answer import Answer
from repro.core.concurrency import RWLock
from repro.core.config import MQAConfig
from repro.core.events import EventLog
from repro.core.execution import QueryExecution
from repro.core.generation import AnswerGeneration
from repro.core.indexing import IndexConstruction
from repro.core.layers import Layer, RoundContext, Stage, build_layers
from repro.core.preprocessing import DataPreprocessing
from repro.core.representation import RepresentationOutcome, VectorRepresentation
from repro.core.resilience import ResilienceManager
from repro.core.status import StatusBoard
from repro.data.knowledge_base import KnowledgeBase
from repro.data.modality import Modality
from repro.data.objects import RawQuery
from repro.errors import CoordinatorError, MQAError
from repro.llm import build_llm
from repro.llm.prompts import DialogueTurn
from repro.observability import (
    NOOP_SPAN,
    NOOP_TRACER,
    MetricsRegistry,
    Tracer,
    trace_span,
)
from repro.pipeline import DagPipeline
from repro.retrieval import RetrievalResponse
from repro.utils import Timer
from repro.utils.blas import release_free_heap


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
        self.tracer = (
            Tracer(metrics=self.metrics)
            if config.tracing or config.recorder_path or config.cost_accounting
            else NOOP_TRACER
        )
        # Always present: disabled, it forwards every call untouched.
        self.resilience = ResilienceManager.from_config(config, metrics=self.metrics)
        self.kb: Optional[KnowledgeBase] = None
        self.representation: Optional[RepresentationOutcome] = None
        self.execution: Optional[QueryExecution] = None
        self.generation: Optional[AnswerGeneration] = None
        self.layers: Dict[str, Layer] = {}
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
        release_free_heap()  # the builds' freed scratch, before serving
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

        Each configured layer (:func:`~repro.core.layers.build_layers`)
        contributes its stages, in registry order, before ``retrieve``; its
        observers, run after the round outside its lock and trace; and its
        ledger to the table ``/health``, ``/stats``, the status panel and
        the load generator select from by name through :meth:`ledger` — a
        layer that is off has no entry.  Without a knowledge base there is
        nothing to search, so an LLM-only round is ``generate`` alone.
        """
        self.layers = build_layers(self)
        self.stages, self.observers = [], []
        self.ledgers = {"resilience": self.resilience.snapshot}
        for name, layer in self.layers.items():
            self.stages += layer.stages
            self.observers += layer.observers
            if layer.snapshot:
                self.ledgers[name] = layer.snapshot
        if self.tracer.enabled:
            self.ledgers["trace"] = self._trace_ledger
        if self.execution is None:
            self.stages = [("generate", self.generate)]
        else:
            self.stages += [("retrieve", self._retrieve), ("generate", self.generate)]
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
        # The index holds its rows now (MUST and MR over the encoded
        # corpus's own memory); a second reference here would go stale at
        # the first ingest.
        self.representation.corpus = None
        # A query cache is the ``cache`` layer's to install: it may need the planner.
        self.execution = QueryExecution(
            framework,
            cost_accounting=self.config.cost_accounting,
            index_name=self.config.index,
        )
        self.events.record(
            "representation", "indexing", "vectors", framework.describe()
        )
        return {"index": self.config.index, "framework": framework.name}

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
        answerer = self.layer("agentic")
        if answerer is None:
            return self.run_round(context)
        return answerer.answer(self, context)

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
            k=self.config.result_count if k is None else k,
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
            k=self.config.result_count if k is None else k,
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
    # the coordinator's own stages (the layers' are in repro.core.layers)
    # ------------------------------------------------------------------
    def _retrieve(self, context: RoundContext) -> None:
        """The round's retrieval; a plan's latency is reported back to its
        planner.  Under ``resilience`` a search that still fails after its
        retries degrades the round to no retrieval."""
        if not context.queries:
            return
        self.status.start("query execution")
        self.events.record("coordinator", "execution", "query", f"k={context.k}")
        with Timer() as timer:
            try:
                context.responses = self.resilience.call(
                    "index.search",
                    lambda: [
                        self.execution.execute(
                            context.queries[0],
                            k=context.k,
                            budget=context.budget,
                            weights=context.weights,
                            exclude_ids=context.exclude_ids,
                            filter_fn=context.filter_fn,
                            fanout=context.fanout,
                        )
                    ],
                    deadline=context.deadline,
                )
            except MQAError as exc:
                if not self.resilience.enabled:
                    raise
                context.degraded_reasons.append(
                    f"retrieval unavailable ({type(exc).__name__})"
                )
                self.resilience.record_fallback("retrieval_unavailable")
                self.status.fail("query execution", f"{type(exc).__name__}: {exc}")
                self.events.record(
                    "execution", "generation", "search-failed",
                    f"{type(exc).__name__}: {exc}"[:80],
                )
        if context.plan is not None:
            context.plan.planner.observe(
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

    def _compose(self, context: RoundContext) -> Answer:
        """The answer to ``context``.  Under ``resilience`` a failing or
        out-of-budget LLM degrades to the retrieval-only listing — the same
        component without a model — instead of failing the round."""

        def compose(generation: AnswerGeneration) -> Answer:
            return generation.generate(
                context.user_text,
                context.responses[0] if context.responses else None,
                self.kb,
                history=context.history,
                preferred_ids=context.preferred_ids,
                had_image=context.had_image,
                round_index=context.round_index,
            )

        if self.generation.llm is None:  # already the listing: nothing to guard
            return compose(self.generation)
        deadline = context.deadline  # None unless resilience is on
        if deadline is not None and deadline.expired:
            reason = "llm skipped (deadline exhausted)"
            detail = "deadline exhausted before LLM call"
        else:
            try:
                return self.resilience.call(
                    "llm.generate", lambda: compose(self.generation), deadline=deadline
                )
            except MQAError as exc:
                if not self.resilience.enabled:
                    raise
                reason = f"llm fallback ({type(exc).__name__})"
                detail = f"{type(exc).__name__}: {exc}"[:80]
        context.degraded_reasons.append(reason)
        self.resilience.record_fallback("llm_fallback")
        self.events.record("generation", "frontend", "generation-fallback", detail)
        return compose(AnswerGeneration(temperature=self.config.temperature))

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
            already_deleted = obj.object_id in framework.deleted_ids

            def apply() -> None:
                framework.remove_object(obj.object_id)
                obj.metadata["deleted"] = True

            def undo() -> None:
                if not already_deleted:
                    framework.restore_object(obj.object_id)
                    obj.metadata.pop("deleted", None)

            return obj.object_id, apply, undo, f"object {obj.object_id}"

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
        return self.ledgers[name]() if name in self.ledgers else None

    def layer(self, name: str) -> Any:
        """The object of the optional layer called ``name`` (``None``: the
        layer is off in this deployment)."""
        return self.layers[name].part if name in self.layers else None

    def _trace_ledger(self) -> "dict | None":
        last = self.tracer.last_trace
        return None if last is None else {"last": last.render()}

    def get_object(self, object_id: int):
        """Fetch a knowledge-base object through the coordinator."""
        if self.kb is None:
            raise CoordinatorError("no knowledge base attached")
        return self.kb.get(object_id)
