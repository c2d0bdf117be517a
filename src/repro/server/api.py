"""Endpoint routing over the coordinator.

Endpoints (mirroring the demo's backend):

* ``GET  /options``            — dropdown contents for the config panel.
* ``POST /configure``          — set one configuration option.
* ``POST /apply``              — build the system from the draft config.
* ``GET  /status``             — status-monitoring panel content.
* ``GET  /weights``            — modality weights in force.
* ``POST /session/new``        — open an additional dialogue session;
  returns its id (session ``0`` always exists after apply).
* ``POST /query``              — submit a dialogue query (text, optional
  reference object id standing in for an uploaded image, optional
  ``session`` id).
* ``POST /select``             — click a result card.
* ``POST /reject``             — dismiss a result card (negative feedback).
* ``POST /refine``             — refine from the selected result.
* ``GET  /transcript``         — the QA panel transcript.
* ``GET  /events``             — the coordinator's event log, paginated
  (``offset`` / ``limit``; also reports ring-buffer totals).
* ``POST /ingest``             — add a new object to the live system.
* ``GET  /metrics``            — request counters, latency percentiles,
  per-stage timings, and cache statistics; with ``format="prometheus"``
  returns text exposition instead (``{"content_type": ..., "body": ...}``).
* ``GET  /trace``              — the last-N query traces as JSON span
  trees (requires ``tracing`` enabled in the configuration).
* ``GET  /profile``            — aggregated per-span-path profile over all
  captured traces (``format="collapsed"`` returns collapsed-stack text
  for flamegraph tooling, ``format="table"`` the rendered table).
* ``GET  /stats``              — the cost plane: rolling per-(framework,
  index, shard) latency/cost/recall distributions with the K slowest
  queries retained as exemplars (requires ``cost_accounting``).
* ``POST /search``             — raw batched retrieval, no dialogue state
  and no answer generation.  A single-query body (``{"text": ...}``) may
  be micro-batched with concurrent requests when ``max_batch > 1``; a
  list body (``{"queries": [...]}``) runs as one explicit batch.
* ``GET  /health``             — SLO grading (ok / degraded / breach)
  plus every ledger of the coordinator's table by name — quality,
  recorder, engine, batching, resilience, sharding (per-shard counts,
  replica health, breakers), tiered, cache, planner, admission, agentic;
  ``null`` where the deployment has no such layer (``monitoring`` turns
  the SLO/quality sections on).

Dialogue endpoints accept an optional ``session`` field; all sessions share
the coordinator (and therefore the index) but keep independent dialogue
state — several users against one deployment.

All responses are ``{"ok": True, ...}`` or ``{"ok": False, "error": ...}``.
"""

from __future__ import annotations

import math
import numbers
import threading
import time
import traceback
from concurrent.futures import Future
from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional, Tuple

from repro.core import ConfigurationPanel, MQAConfig, QAPanel, StatusPanel
from repro.core.concurrency import (
    READ,
    WRITE,
    EngineSaturatedError,
    MicroBatcher,
    QueryEngine,
)
from repro.core.coordinator import Coordinator
from repro.core.planning import AdmissionShedError
from repro.data import KnowledgeBase, Modality, RawQuery
from repro.errors import DeadlineExceededError, MQAError
from repro.observability import (
    STATE_OK,
    ProfileAggregator,
    collapse_spans,
    render_prometheus,
)


class ApiError(MQAError):
    """A request that cannot be routed or is malformed."""


class ApiServer:
    """Routes endpoint calls to the panels and the coordinator.

    Every request dispatches through a :class:`QueryEngine`: reads (query,
    refine, transcript, metrics, ...) run concurrently under the engine's
    shared read lock, writes (configure, apply, ingest, remove,
    session/new) run exclusively, and dialogue verbs carrying a ``session``
    id serialise per session.  With the default ``workers=1`` the engine
    executes inline on the calling thread — identical behaviour to the
    historical serial server, no pool threads.

    Args:
        config: Initial draft configuration (panel defaults otherwise).
        knowledge_base: Optional prebuilt base served instead of generating
            one at apply time.
        clock: Time source for request latency (injectable so SLO grading
            can be driven deterministically in tests).
        workers: Engine worker count; overrides ``config.workers`` when
            given (as the CLI ``--workers`` flag does).
        engine_queue: Bounded-queue depth (the engine's own default when
            omitted).
        max_batch: Micro-batch size cap for ``POST /search``; overrides
            ``config.max_batch`` when given (as ``--max-batch`` does).
            ``1`` disables coalescing — identical serving behaviour to the
            pre-batching server.
        batch_window_ms: Collector wait window; overrides
            ``config.batch_window_ms``.
    """

    #: Verbs that mutate shared state — exclusive under the engine lock.
    _WRITE_ROUTES: FrozenSet[Tuple[str, str]] = frozenset(
        {
            ("POST", "/configure"),
            ("POST", "/apply"),
            ("POST", "/ingest"),
            ("POST", "/remove"),
            ("POST", "/session/new"),
        }
    )
    #: Verbs whose dialogue state must not interleave within one session.
    _SESSION_ROUTES: FrozenSet[Tuple[str, str]] = frozenset(
        {
            ("POST", "/query"),
            ("POST", "/ask"),
            ("POST", "/select"),
            ("POST", "/refine"),
            ("POST", "/reject"),
            ("GET", "/transcript"),
        }
    )
    #: Retrieval-bearing verbs subject to admission control; monitoring
    #: and configuration verbs are never shed.
    _ADMITTED_ROUTES: FrozenSet[Tuple[str, str]] = frozenset(
        {
            ("POST", "/query"),
            ("POST", "/ask"),
            ("POST", "/refine"),
            ("POST", "/search"),
        }
    )

    def __init__(
        self,
        config: Optional[MQAConfig] = None,
        knowledge_base: Optional[KnowledgeBase] = None,
        clock: Optional[Callable[[], float]] = None,
        workers: Optional[int] = None,
        engine_queue: Optional[int] = None,
        max_batch: Optional[int] = None,
        batch_window_ms: Optional[float] = None,
    ) -> None:
        self._panel = ConfigurationPanel(config)
        self._knowledge_base = knowledge_base
        self._clock = clock or time.perf_counter
        self._coordinator: Optional[Coordinator] = None
        self._sessions: Dict[int, QAPanel] = {}
        # Explicit constructor/CLI settings pin the engine; otherwise it
        # follows the (possibly reconfigured) panel config.
        self._engine_pinned = workers is not None or engine_queue is not None
        draft = self._panel.config
        self.engine = QueryEngine(
            workers=workers if workers is not None else draft.workers,
            **({} if engine_queue is None else {"max_queue": engine_queue}),
        )
        self._batcher_pinned = max_batch is not None or batch_window_ms is not None
        self.batcher = MicroBatcher(
            self._run_search_batch,
            max_batch=max_batch if max_batch is not None else draft.max_batch,
            window_ms=(
                batch_window_ms
                if batch_window_ms is not None
                else draft.batch_window_ms
            ),
        )
        self._engine_lock = threading.Lock()
        self._routes: Dict[Tuple[str, str], Callable[[Dict[str, Any]], Dict[str, Any]]] = {
            ("GET", "/options"): self._get_options,
            ("POST", "/configure"): self._post_configure,
            ("POST", "/apply"): self._post_apply,
            ("GET", "/status"): self._get_status,
            ("GET", "/weights"): self._get_weights,
            ("POST", "/query"): lambda body: self._post_question(body, "query"),
            ("POST", "/ask"): lambda body: self._post_question(body, "ask"),
            ("POST", "/select"): self._post_select,
            ("POST", "/refine"): lambda body: self._post_question(body, "refine"),
            ("GET", "/transcript"): self._get_transcript,
            ("GET", "/events"): self._get_events,
            ("POST", "/ingest"): self._post_ingest,
            ("POST", "/session/new"): self._post_session_new,
            ("POST", "/reject"): self._post_reject,
            ("POST", "/remove"): self._post_remove,
            ("POST", "/search"): self._post_search,
            ("GET", "/metrics"): self._get_metrics,
            ("GET", "/trace"): self._get_trace,
            ("GET", "/stats"): self._get_stats,
            ("GET", "/profile"): self._get_profile,
            ("GET", "/health"): self._get_health,
        }

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle(self, method: str, path: str, body: "Dict[str, Any] | None" = None) -> Dict[str, Any]:
        """Route one request through the engine; exceptions become error
        responses, including engine saturation (``"saturated": True``)."""
        try:
            return self.handle_async(method, path, body).result()
        except AdmissionShedError as exc:
            # Admission control turned the request away before it touched
            # the engine (admission mode only).
            return {"ok": False, "error": str(exc), "shed": True}
        except EngineSaturatedError as exc:
            return {"ok": False, "error": str(exc), "saturated": True}
        except DeadlineExceededError as exc:
            # The engine shed the request after its budget expired in the
            # queue (resilience mode only).
            return {"ok": False, "error": str(exc), "deadline_exceeded": True}

    def handle_async(
        self, method: str, path: str, body: "Dict[str, Any] | None" = None
    ) -> "Future[Dict[str, Any]]":
        """Submit one request to the engine; the future resolves to the
        response dict.

        Raises:
            EngineSaturatedError: The bounded queue is full — callers doing
                their own dispatch decide whether to retry or shed.
        """
        if body is not None and not isinstance(body, Mapping):
            refused: "Future[Dict[str, Any]]" = Future()
            refused.set_result(
                {"ok": False, "error": f"request body must be an object, got {body!r}"}
            )
            return refused
        route = (method.upper(), path)
        mode = WRITE if route in self._WRITE_ROUTES else READ
        session_key = None
        if route in self._SESSION_ROUTES:
            try:
                session_key = self._int_field(body or {}, "session", 0)
            except ApiError:
                session_key = None  # the handler raises it again, as a reply
        self._maybe_resize_engine()
        self._maybe_resize_batcher()
        # In resilience mode the engine sheds requests whose latency budget
        # expires while queued; this deadline covers queue wait only — the
        # coordinator starts its own round budget once the verb runs.
        deadline = None
        coordinator = self._coordinator
        if coordinator is not None and coordinator.resilience.enabled:
            try:
                override = self._deadline_override(body)
            except ApiError:
                override = None  # the verb handler raises it again, as a reply
            deadline = coordinator.resilience.deadline(override)
        if (
            coordinator is not None
            and coordinator.admission is not None
            and route in self._ADMITTED_ROUTES
        ):
            # Admission happens before the engine queue is touched: the
            # predicted tier-0 cost is the token charge, a shed decision
            # never enqueues, and a degrade decision is picked up by the
            # planner through ``under_pressure``.
            predicted = (
                coordinator.planner.predicted_base_ms()
                if coordinator.planner is not None
                else 1.0
            )
            if coordinator.admission.decide(predicted) == "shed":
                coordinator.resilience.record_fallback("admission_shed")
                raise AdmissionShedError(
                    "admission control shed the request: engine queue "
                    "delay or predicted cost exceeds serving capacity"
                )
        return self.engine.submit(
            lambda: self._dispatch(method, path, body),
            mode=mode,
            session_key=session_key,
            deadline=deadline,
        )

    @staticmethod
    def _deadline_override(body: "Dict[str, Any] | None") -> Optional[float]:
        """The request's ``deadline_ms`` as a float; None (no override)
        when absent, null or not positive.  Anything that is not a finite
        number is an ApiError."""
        raw = (body or {}).get("deadline_ms")
        if raw is None:
            return None
        try:
            value = float(raw)
        except (TypeError, ValueError):
            value = math.nan
        if not math.isfinite(value):
            raise ApiError(f"'deadline_ms' must be a finite number, got {raw!r}")
        return value if value > 0 else None

    def _dispatch(self, method: str, path: str, body: "Dict[str, Any] | None") -> Dict[str, Any]:
        handler = self._routes.get((method.upper(), path))
        if handler is None:
            return {"ok": False, "error": f"no route for {method.upper()} {path}"}
        try:
            payload = handler(dict(body or {}))
        except DeadlineExceededError as exc:
            return {"ok": False, "error": str(exc), "deadline_exceeded": True}
        except MQAError as exc:
            return {"ok": False, "error": str(exc)}
        response = {"ok": True}
        response.update(payload)
        return response

    def _maybe_resize_engine(self) -> None:
        """Follow ``POST /configure`` engine settings (unless pinned).

        The swap happens here — on the submitting thread, outside any
        engine task — because a task cannot shut down the pool it is
        running on.
        """
        if self._engine_pinned:
            return
        desired = self._panel.config.workers
        if desired == self.engine.workers:
            return
        with self._engine_lock:
            if desired == self.engine.workers:
                return
            old = self.engine
            self.engine = QueryEngine(workers=desired)
            self._install_wait_observer()
            old.shutdown(wait=False)

    def _install_wait_observer(self) -> None:
        """Feed the engine's queue signals to admission control.

        Two hooks: the engine's measured per-request queue waits (EWMA
        fallback signal) and a live queue-depth probe (the preferred
        Little's-law wait estimate).  Re-run after every apply and
        engine swap so the active engine's signals always reach the
        active coordinator's controller (a no-op ``None`` when admission
        is off); the probe closes over ``self`` so it follows engine
        swaps automatically.
        """
        coordinator = self._coordinator
        admission = coordinator.admission if coordinator is not None else None
        self.engine.wait_observer = (
            admission.observe_wait if admission is not None else None
        )
        if admission is not None:
            admission.queue_probe = lambda: self.engine.queue_depth

    def _maybe_resize_batcher(self) -> None:
        """Follow ``POST /configure`` batching settings (unless pinned).

        Swapping in a fresh collector is safe at any point: waiters on the
        old instance elect leaders among themselves, so every in-flight
        submission still completes.
        """
        if self._batcher_pinned:
            return
        draft = self._panel.config
        desired = (draft.max_batch, draft.batch_window_ms)
        if desired == (self.batcher.max_batch, self.batcher.window_ms):
            return
        with self._engine_lock:
            if desired == (self.batcher.max_batch, self.batcher.window_ms):
                return
            self.batcher = MicroBatcher(
                self._run_search_batch,
                max_batch=desired[0],
                window_ms=desired[1],
            )

    def close(self) -> None:
        """Shut the engine down (stops accepting work, drains the pool)."""
        self.engine.shutdown()

    def __enter__(self) -> "ApiServer":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.close()
        return False

    def _require_system(self, body: "Dict[str, Any] | None" = None) -> Tuple[Coordinator, QAPanel]:
        if self._coordinator is None or not self._sessions:
            raise ApiError("system not applied yet; POST /apply first")
        session_id = self._int_field(body or {}, "session", 0)
        if session_id not in self._sessions:
            known = ", ".join(str(s) for s in sorted(self._sessions))
            raise ApiError(f"unknown session {session_id}; known sessions: {known}")
        return self._coordinator, self._sessions[session_id]

    @staticmethod
    def _require_field(body: Dict[str, Any], field: str) -> Any:
        if field not in body:
            raise ApiError(f"request body is missing field {field!r}")
        return body[field]

    @classmethod
    def _int_field(
        cls, body: Dict[str, Any], field: str, default: Optional[int] = None,
        required: bool = False,
    ) -> Optional[int]:
        """``body[field]`` as an int; ``default`` when absent or null,
        unless ``required``.  Anything ``int()`` refuses is an ApiError."""
        value = cls._require_field(body, field) if required else body.get(field)
        if value is None and not required:
            return default
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ApiError(f"{field!r} must be an integer, got {value!r}") from None

    @staticmethod
    def _weights_field(body: Dict[str, Any]) -> "Dict[Modality, float] | None":
        """The request's per-query ``weights`` as ``{Modality: float}``, or
        None.  Shape, names and number-ness are checked here, once; whether
        the numbers make a weighting (finite, non-negative, not all zero,
        every modality present) is the kernel's check, which library
        callers share."""
        raw = body.get("weights")
        if raw is None:
            return None
        if not isinstance(raw, Mapping):
            raise ApiError(f"'weights' must map modality names to numbers, got {raw!r}")
        weights = {}
        for name, value in raw.items():
            try:
                modality = Modality.parse(name)
            except ValueError as exc:
                raise ApiError(f"'weights': {exc}") from None
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ApiError(
                    f"'weights' value for {name!r} must be a number, got {value!r}"
                )
            weights[modality] = float(value)
        return weights

    # ------------------------------------------------------------------
    # configuration endpoints
    # ------------------------------------------------------------------
    def _get_options(self, body: Dict[str, Any]) -> Dict[str, Any]:
        return {"options": self._panel.options()}

    def _post_configure(self, body: Dict[str, Any]) -> Dict[str, Any]:
        option = self._require_field(body, "option")
        value = self._require_field(body, "value")
        self._panel.set_option(option, value)
        return {"feedback": self._panel.feedback[-1]}

    def _post_apply(self, body: Dict[str, Any]) -> Dict[str, Any]:
        self._coordinator = self._panel.apply(knowledge_base=self._knowledge_base)
        self._sessions = {0: QAPanel(self._coordinator)}
        # Through ``self``: the entries follow engine and batcher swaps.
        self._coordinator.ledgers.update(
            engine=lambda: self.engine.snapshot(),
            batching=lambda: self.batcher.snapshot(),
        )
        self._install_wait_observer()
        return {
            "feedback": self._panel.feedback[-1],
            "summary": self._panel.config.summary(),
        }

    # ------------------------------------------------------------------
    # monitoring endpoints
    # ------------------------------------------------------------------
    def _get_status(self, body: Dict[str, Any]) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        milestones = [
            {
                "name": m.name,
                "state": m.state.value,
                "elapsed_ms": round(m.elapsed * 1000, 2),
                "details": dict(m.details),
            }
            for m in coordinator.status.milestones()
        ]
        return {
            "milestones": milestones,
            "rendered": StatusPanel(coordinator.status, coordinator.ledger).render(),
        }

    def _get_weights(self, body: Dict[str, Any]) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        return {
            "weights": {m.value: w for m, w in coordinator.weights.items()}
        }

    def _get_events(self, body: Dict[str, Any]) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        offset = self._int_field(body, "offset", 0)
        limit = self._int_field(body, "limit", None)
        # One snapshot call: the page and its ring-buffer totals must
        # describe the same instant even while appends continue.
        retained, total_recorded, dropped = coordinator.events.snapshot()
        offset = max(int(offset), 0)
        if limit is None:
            page = retained[offset:]
        else:
            page = retained[offset : offset + max(int(limit), 0)]
        events = [
            {
                "source": e.source,
                "target": e.target,
                "kind": e.kind,
                "detail": e.detail,
            }
            for e in page
        ]
        return {
            "events": events,
            "offset": offset,
            "retained": len(retained),
            "total_recorded": total_recorded,
            "dropped": dropped,
        }

    # ------------------------------------------------------------------
    # dialogue endpoints
    # ------------------------------------------------------------------
    @staticmethod
    def _answer_payload(answer) -> Dict[str, Any]:
        payload = {
            "text": answer.text,
            "grounded": answer.grounded,
            "round": answer.round_index,
            "degraded": answer.degraded,
            "degraded_reasons": list(answer.degraded_reasons),
            "items": [
                {
                    "object_id": item.object_id,
                    "description": item.description,
                    "score": round(item.score, 4),
                    "preferred": item.preferred,
                }
                for item in answer.items
            ],
        }
        if answer.cost is not None:
            payload["cost"] = answer.cost.to_dict()
        if answer.plan is not None:
            payload["plan"] = answer.plan.to_dict()
        # Agentic rounds only — absent keys keep non-agentic payloads
        # bit-identical to the pre-agentic server.
        if answer.claims is not None:
            payload["claims"] = [claim.to_dict() for claim in answer.claims]
        if answer.groundedness is not None:
            payload["groundedness"] = round(answer.groundedness, 4)
        return payload

    def _timed_verb(self, coordinator: Coordinator, verb: str, fn: Callable[[], Any]):
        """Run one dialogue verb, feeding counters and latency histograms.

        Every dialogue round — errored ones too — is counted and timed
        here, each fact in one place (the coordinator's registry, the SLO
        window) that ``/metrics`` and ``/health`` read: a read taken while
        rounds are in flight may be one observation stale, and once they
        have finished every total agrees.  A failure's full traceback goes
        to the event log before re-raising — ``_dispatch`` flattens the
        exception into a one-line error payload.
        """
        start = self._clock()
        try:
            answer = fn()
        except Exception as exc:
            self._account(coordinator, verb, start, exc)
            raise
        self._account(coordinator, verb, start)
        return answer

    def _account(
        self, coordinator: Coordinator, verb: str, start: float,
        failure: Optional[Exception] = None,
    ) -> None:
        elapsed_ms = (self._clock() - start) * 1000.0
        metrics = coordinator.metrics
        if coordinator.slo is not None:
            coordinator.slo.observe(elapsed_ms, error=failure is not None)
        if failure is None:
            metrics.inc(f"api.{verb}")
        else:
            metrics.inc("api.errors")
            metrics.inc(f"api.{verb}.errors")
            coordinator.events.record(
                "qa", "coordinator", "api-error",
                f"{verb}: " + "".join(
                    traceback.format_exception(
                        type(failure), failure, failure.__traceback__
                    )
                ).strip(),
            )
        metrics.observe("api.request_ms", elapsed_ms)
        metrics.observe(f"api.{verb}_ms", elapsed_ms)

    def _post_question(self, body: Dict[str, Any], verb: str) -> Dict[str, Any]:
        """The dialogue verbs: ``POST /query``, ``POST /ask`` — its
        multi-hop agentic mode; with ``config.agentic`` off both run the
        single-hop round and answer the same body bit-identically — and
        ``POST /refine``."""
        coordinator, qa = self._require_system(body)
        text = self._require_field(body, "text")
        if not isinstance(text, str):  # what the encoders and the cache key take
            raise ApiError(f"'text' expects a string, got {text!r}")
        options = {
            "weights": self._weights_field(body),
            "deadline_ms": self._deadline_override(body),
        }
        if verb == "refine":
            ask = qa.session.refine
        else:
            ask = qa.session.ask_agentic if verb == "ask" else qa.session.ask
            reference_id = self._int_field(body, "reference_object_id")
            if reference_id is not None:
                # An uploaded image is modelled by referencing an object whose
                # image modality stands in for the user's file.
                options["image"] = coordinator.get_object(reference_id).get(
                    Modality.IMAGE
                )
        answer = self._timed_verb(coordinator, verb, lambda: ask(text, **options))
        return {"answer": self._answer_payload(answer)}

    def _post_select(self, body: Dict[str, Any]) -> Dict[str, Any]:
        _, qa = self._require_system(body)
        rank = self._int_field(body, "rank", required=True)
        object_id = qa.click_result(rank)
        return {"selected_object_id": object_id}

    def _get_transcript(self, body: Dict[str, Any]) -> Dict[str, Any]:
        _, qa = self._require_system(body)
        return {"transcript": qa.render_transcript()}

    def _post_remove(self, body: Dict[str, Any]) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        object_id = self._int_field(body, "object_id", required=True)
        coordinator.remove_object(object_id)
        return {"removed_object_id": object_id}

    # ------------------------------------------------------------------
    # raw batched retrieval
    # ------------------------------------------------------------------
    def _search_query(self, coordinator: Coordinator, spec: Any) -> RawQuery:
        """Build one :class:`RawQuery` from a ``/search`` request spec."""
        if not isinstance(spec, Mapping):
            raise ApiError(f"a search spec must be an object with 'text', got {spec!r}")
        text = str(self._require_field(spec, "text"))
        reference_id = self._int_field(spec, "reference_object_id")
        if reference_id is not None:
            reference = coordinator.get_object(reference_id)
            return RawQuery.from_text_and_image(text, reference.get(Modality.IMAGE))
        return RawQuery.from_text(text)

    @staticmethod
    def _search_payload(response) -> Dict[str, Any]:
        payload = {
            "framework": response.framework,
            "items": [
                {
                    "object_id": item.object_id,
                    "score": round(item.score, 6),
                    "rank": item.rank,
                }
                for item in response.items
            ],
            "stats": {
                "hops": response.stats.hops,
                "distance_evaluations": response.stats.distance_evaluations,
            },
        }
        if response.degraded_reasons:
            payload["degraded_reasons"] = list(response.degraded_reasons)
        if response.cost is not None:
            payload["cost"] = response.cost.to_dict()
        return payload

    @staticmethod
    def _weights_key(weights) -> "Tuple | None":
        if weights is None:
            return None
        return tuple(sorted((str(m), float(w)) for m, w in weights.items()))

    def _run_search_batch(self, items):
        """Micro-batch runner: group compatible requests, one batched
        retrieval per group.

        Requests coalesce only when they share ``k`` and ``weights`` —
        mixed groups split into separate ``retrieve_batch`` calls, each
        still amortising encode and traversal across its members.
        """
        coordinator = self._coordinator
        if coordinator is None:
            raise ApiError("system not applied yet; POST /apply first")
        results: list = [None] * len(items)
        groups: Dict[Any, list] = {}
        for position, (query, k, weights_key, _weights) in enumerate(items):
            groups.setdefault((k, weights_key), []).append(position)
        for (k, _weights_key), members in groups.items():
            weights = items[members[0]][3]
            responses = coordinator.retrieve_batch(
                [items[m][0] for m in members], k=k, weights=weights
            )
            for member, response in zip(members, responses):
                results[member] = response
        return results

    def _post_search(self, body: Dict[str, Any]) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        k = self._int_field(body, "k", None)
        weights = self._weights_field(body)
        deadline_ms = self._deadline_override(body)
        if "queries" in body:
            specs = body["queries"]
            if not isinstance(specs, (list, tuple)) or not specs:
                raise ApiError("'queries' must be a non-empty list")
            queries = [self._search_query(coordinator, spec) for spec in specs]
            responses = coordinator.retrieve_batch(queries, k=k, weights=weights)
            self.batcher.note(len(queries))
            return {"results": [self._search_payload(r) for r in responses]}
        query = self._search_query(coordinator, body)
        planner = coordinator.planner
        if planner is not None and self.batcher.max_batch > 1:
            # A request whose remaining deadline cannot absorb several
            # collector windows runs inline instead of joining the batch.
            deadline = coordinator.resilience.deadline(deadline_ms)
            remaining = (
                deadline.remaining_ms if deadline is not None else None
            )
            if planner.skip_batching(remaining, self.batcher.window_ms):
                responses = coordinator.retrieve_batch(
                    [query], k=k, weights=weights
                )
                return {"result": self._search_payload(responses[0])}
        response = self.batcher.submit(
            (query, k, self._weights_key(weights), weights)
        )
        return {"result": self._search_payload(response)}

    def _get_metrics(self, body: Dict[str, Any]) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        fmt = str(body.get("format", "json")).lower()
        if fmt == "prometheus":
            return {
                "content_type": "text/plain; version=0.0.4; charset=utf-8",
                "body": render_prometheus(coordinator.metrics),
            }
        if fmt != "json":
            raise ApiError(f"unknown metrics format {fmt!r}; expected json or prometheus")
        cache = coordinator.ledger("cache")
        framework = coordinator.execution.framework if coordinator.execution else None
        # Every round — errored ones too — is one ``api.request_ms``
        # observation, the same traffic the SLO window saw.
        count = coordinator.metrics.count
        latency = coordinator.metrics.histogram("api.request_ms")
        return {
            "metrics": {
                "queries": count("api.query") + count("api.ask"),
                "refines": count("api.refine"),
                "errors": count("api.errors"),
                "mean_query_ms": round(latency.mean, 3),
                "latency_ms": latency.summary(),
                "stages": coordinator.metrics.histogram_summaries("stage_ms."),
                "sessions": len(self._sessions),
                "kb_objects": len(coordinator.kb) if coordinator.kb else 0,
                "deleted_objects": len(framework.deleted_ids) if framework else 0,
                # One locked snapshot: hits/misses/size are mutated
                # together, so reading them attribute-by-attribute could
                # pair a hit with the wrong total.
                "cache": (
                    {"enabled": True, **cache}
                    if cache is not None
                    else {
                        "enabled": False,
                        "size": 0,
                        "hits": 0,
                        "misses": 0,
                        "hit_rate": 0.0,
                    }
                ),
                "trace": {
                    "enabled": coordinator.tracer.enabled,
                    "captured": len(coordinator.tracer.traces),
                },
            }
        }

    def _get_trace(self, body: Dict[str, Any]) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        return {
            "enabled": coordinator.tracer.enabled,
            "traces": coordinator.tracer.export(
                self._int_field(body, "limit", None)
            ),
        }

    def _get_profile(self, body: Dict[str, Any]) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        traces = coordinator.tracer.traces
        fmt = str(body.get("format", "rows")).lower()
        if fmt == "collapsed":
            return {
                "enabled": coordinator.tracer.enabled,
                "traces": len(traces),
                "collapsed": collapse_spans(traces),
            }
        aggregator = ProfileAggregator().add_traces(traces)
        payload: Dict[str, Any] = {
            "enabled": coordinator.tracer.enabled,
            "traces": len(traces),
        }
        if fmt == "table":
            payload["table"] = aggregator.render()
        elif fmt == "rows":
            payload["profile"] = aggregator.rows()
        else:
            raise ApiError(
                f"unknown profile format {fmt!r}; expected rows, table or collapsed"
            )
        return payload

    def _get_stats(self, body: Dict[str, Any]) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        stats = coordinator.ledger("stats")
        return {
            "enabled": stats is not None,
            "stats": stats,
            **{
                name: coordinator.ledger(name)
                for name in ("tiered", "planner", "admission", "cache", "agentic")
            },
        }

    def _get_health(self, body: Dict[str, Any]) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        slo = coordinator.ledger("slo")
        return {
            "monitoring": slo is not None,
            "state": slo["state"] if slo is not None else STATE_OK,
            "slo": slo,
            **{
                name: coordinator.ledger(name)
                for name in (
                    "quality", "recorder", "engine", "batching", "resilience",
                    "sharding", "tiered", "cache", "planner", "admission",
                    "agentic",
                )
            },
        }

    def _post_session_new(self, body: Dict[str, Any]) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        session_id = max(self._sessions) + 1
        self._sessions[session_id] = QAPanel(coordinator)
        return {"session": session_id}

    def _post_reject(self, body: Dict[str, Any]) -> Dict[str, Any]:
        _, qa = self._require_system(body)
        rank = self._int_field(body, "rank", required=True)
        object_id = qa.session.reject(rank)
        return {"rejected_object_id": object_id}

    def _post_ingest(self, body: Dict[str, Any]) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        concepts = self._require_field(body, "concepts")
        if (
            not isinstance(concepts, (list, tuple))
            or not concepts
            or not all(isinstance(concept, str) for concept in concepts)
        ):
            raise ApiError("'concepts' must be a non-empty list of concept names")
        intensities = body.get("intensities")
        if intensities is not None:
            if not isinstance(intensities, (list, tuple)) or len(intensities) != len(concepts):
                raise ApiError(
                    "'intensities' must be a list matching 'concepts' in length"
                )
            if not all(
                isinstance(v, numbers.Real) and not isinstance(v, bool)
                for v in intensities
            ):
                raise ApiError(f"'intensities' must be numbers, got {intensities!r}")
            intensities = [float(v) for v in intensities]
        metadata = body.get("metadata") or {}
        if not isinstance(metadata, Mapping):
            raise ApiError(f"'metadata' must be an object, got {metadata!r}")
        object_id = coordinator.ingest_object(
            list(concepts), intensities=intensities, metadata=dict(metadata)
        )
        return {"object_id": object_id}
