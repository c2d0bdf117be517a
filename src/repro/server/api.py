"""Endpoint routing over the coordinator, mirroring the demo's backend.

A route that reads a body declares it once, as a :class:`Body` dataclass
below whose docstring says what the route does, and the body is read
through :func:`repro.utils.read_fields`: unknown keys are ignored, an
integer field also takes an integral float or a digit string, a float field
a numeric string, and anything else its declaration refuses is an error
reply naming the field and the value.  The routes that read no body:

* ``GET /options`` — the config panel's dropdowns; ``POST /apply`` builds
  the system from the draft config; ``GET /status`` — the status panel;
  ``GET /weights`` — the modality weights in force.
* ``POST /session/new`` — open another dialogue session; returns its id.
  Sessions share the coordinator (and so the index) but keep their own
  dialogue state; past :data:`MAX_SESSIONS` the least recently used closes.
* ``GET /stats`` — the cost plane: per-(framework, index, shard) latency /
  cost / recall distributions and the slowest queries (``cost_accounting``).
* ``GET /health`` — SLO grading (ok / degraded / breach) and every ledger of
  the coordinator's table by name; ``null`` where a layer is off.

All responses are ``{"ok": True, ...}`` or ``{"ok": False, "error": ...}``.
"""

from __future__ import annotations

import numbers
import threading
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.core import ConfigurationPanel, MQAConfig, QAPanel, StatusPanel
from repro.core.concurrency import (
    READ,
    WRITE,
    EngineSaturatedError,
    MicroBatcher,
    QueryEngine,
)
from repro.core.coordinator import Coordinator
from repro.data import KnowledgeBase, Modality, RawQuery
from repro.errors import DeadlineExceededError, MQAError
from repro.observability import STATE_OK, ProfileAggregator, render_prometheus
from repro.utils import check_fields, param, read_fields


class ApiError(MQAError):
    """A request that cannot be routed or is malformed."""


class Body:
    """A request body, checked against its declaration at construction; never
    compared or printed, so no ``__eq__`` / ``__repr__`` is generated."""

    def __post_init__(self) -> None:
        check_fields(self, ApiError)


@dataclass(kw_only=True, eq=False, repr=False)
class SessionBody(Body):
    """``GET /transcript``: the QA panel transcript.  Every dialogue verb
    carries a ``session`` too; its verbs do not interleave."""

    #: The dialogue session; 0 when absent or null.
    session: Optional[int] = None


@dataclass(kw_only=True, eq=False, repr=False)
class DeadlineBody(Body):
    """A latency budget, which resilience mode reads from any body; a body
    that carries one is a read, which admission control may shed."""

    deadline_ms: Optional[float] = None

    @property
    def deadline_override(self) -> Optional[float]:
        """``deadline_ms``; None (no override) when null or not positive."""
        return self.deadline_ms if self.deadline_ms is not None and self.deadline_ms > 0 else None


@dataclass(kw_only=True, eq=False, repr=False)
class QuestionBody(SessionBody, DeadlineBody):
    """``POST /query`` submits a dialogue query, ``/ask`` its multi-hop
    mode, ``/refine`` refines from the selected result.  ``weights`` are
    checked here for shape, names and number-ness; whether they make a
    weighting is the kernel's check, which library callers share."""

    text: str
    weights: Optional[Dict[Modality, numbers.Real]] = None
    #: An object whose image stands in for an uploaded one (not on /refine).
    reference_object_id: Optional[int] = None


@dataclass(kw_only=True, eq=False, repr=False)
class RankBody(SessionBody):
    """``POST /select`` clicks a result card, ``/reject`` dismisses one."""

    rank: int


@dataclass(kw_only=True, eq=False, repr=False)
class RemoveBody(Body):
    """``POST /remove``: tombstone an object."""

    object_id: int


@dataclass(kw_only=True, eq=False, repr=False)
class SearchQuery(Body):
    """One query of ``POST /search``."""

    text: str
    reference_object_id: Optional[int] = None


@dataclass(kw_only=True, eq=False, repr=False)
class SearchBody(DeadlineBody):
    """``POST /search``: raw retrieval, no dialogue state, no answer.  One
    query (the :class:`SearchQuery` fields at the top level) may be
    micro-batched with concurrent ones when ``max_batch > 1``; ``queries``
    runs as one explicit batch."""

    text: Optional[str] = None
    reference_object_id: Optional[int] = None
    k: Optional[int] = None
    weights: Optional[Dict[Modality, numbers.Real]] = None
    queries: Optional[List[SearchQuery]] = param(None, ge=1)


@dataclass(kw_only=True, eq=False, repr=False)
class IngestBody(Body):
    """``POST /ingest``: add an object of these domain concepts, live."""

    concepts: List[str] = param(ge=1)
    intensities: Optional[List[float]] = None
    metadata: Optional[Dict[str, Any]] = None


@dataclass(kw_only=True, eq=False, repr=False)
class EventsBody(Body):
    """``GET /events``: a page of the event log, with its ring-buffer
    totals."""

    offset: Optional[int] = None
    limit: Optional[int] = None


@dataclass(kw_only=True, eq=False, repr=False)
class TraceBody(Body):
    """``GET /trace``: the last ``limit`` traces (all when null) as JSON
    span trees (requires ``tracing``)."""

    limit: Optional[int] = None


@dataclass(kw_only=True, eq=False, repr=False)
class MetricsBody(Body):
    """``GET /metrics``: request counters, latency percentiles, stage
    timings and cache statistics, or their Prometheus text exposition."""

    format: str = param("json", choices=("json", "prometheus"))


@dataclass(kw_only=True, eq=False, repr=False)
class ProfileBody(Body):
    """``GET /profile``: the per-span-path profile of the captured traces,
    as rows, the rendered table or collapsed stacks (flamegraph tooling)."""

    format: str = param("rows", choices=("rows", "table", "collapsed"))


@dataclass(kw_only=True, eq=False, repr=False)
class ConfigureBody(Body):
    """``POST /configure``: set one option of the draft configuration."""

    option: str
    value: Any


#: Dialogue sessions the server keeps besides session 0; opening one more
#: closes the least recently used.  At about 8 KB a session that is 2 MB.
MAX_SESSIONS = 256


class SessionTable:
    """The server's live dialogue sessions.

    Session 0 is opened by ``POST /apply`` and never evicted.  At most
    :data:`MAX_SESSIONS` others live beside it; opening one more closes the
    least recently used.  Ids come from a counter that never goes back, not
    even across a re-apply, so a closed id stays ``unknown session`` and
    never lands a client in a stranger's dialogue.

    :meth:`get` marks a session used.  It runs under the engine's *read*
    lock, beside other verbs, so one leaf lock guards the table and nothing
    is called while it is held.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pinned: Optional[QAPanel] = None
        #: Sessions other than 0, least recently used first.
        self._recent: "OrderedDict[int, QAPanel]" = OrderedDict()
        self._next_id = 1

    def reset(self, panel: QAPanel) -> List[int]:
        """Make ``panel`` session 0 and close every other session; returns
        the closed ids."""
        with self._lock:
            closed = list(self._recent)
            self._pinned = panel
            self._recent.clear()
        return closed

    def open(self, panel: QAPanel) -> Tuple[int, List[int]]:
        """Add ``panel`` under a new id; returns the id and the ids evicted
        to make room."""
        with self._lock:
            session_id = self._next_id
            self._next_id += 1
            self._recent[session_id] = panel
            evicted = []
            while len(self._recent) > MAX_SESSIONS:
                evicted.append(self._recent.popitem(last=False)[0])
        return session_id, evicted

    def _lookup(self, session_id: object) -> Optional[QAPanel]:
        """The session's panel or None; the caller holds the lock."""
        return self._pinned if session_id == 0 else self._recent.get(session_id)

    def get(self, session_id: int) -> Optional[QAPanel]:
        """The session's panel, marked most recently used; None when the
        session is not live."""
        with self._lock:
            panel = self._lookup(session_id)
            if panel is not None and session_id != 0:
                self._recent.move_to_end(session_id)
            return panel

    def __getitem__(self, session_id: int) -> QAPanel:
        """The session's panel for inspection, *not* marked used; KeyError
        when the session is not live."""
        with self._lock:
            panel = self._lookup(session_id)
        if panel is None:
            raise KeyError(session_id)
        return panel

    def __contains__(self, session_id: object) -> bool:
        with self._lock:
            return self._lookup(session_id) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._recent) + (self._pinned is not None)


class ApiServer:
    """Routes endpoint calls to the panels and the coordinator.

    Every request dispatches through a :class:`QueryEngine` and runs on the
    thread that called :meth:`handle`: reads (query, refine, transcript,
    metrics, ...) run concurrently under the engine's shared read lock,
    writes (configure, apply, ingest, remove, session/new) run exclusively,
    and dialogue verbs carrying a ``session`` id serialise per session.
    ``workers`` caps how many callers run at once; the server starts no
    thread of its own.

    Args:
        config: Initial draft configuration (panel defaults otherwise).
        knowledge_base: Optional prebuilt base served instead of generating
            one at apply time.
        clock: Time source for request latency (injectable so SLO grading
            can be driven deterministically in tests).
        workers: How many requests may run at once; overrides
            ``config.workers`` when given (and then ``POST /configure``
            no longer changes it).  The micro-batcher of ``POST /search`` always follows
            the panel's ``max_batch``.
    """

    #: Verbs that mutate shared state — exclusive under the engine lock.
    _WRITE_ROUTES: FrozenSet[Tuple[str, str]] = frozenset({
        ("POST", "/configure"), ("POST", "/apply"), ("POST", "/ingest"), ("POST", "/remove"),
        ("POST", "/session/new"),
    })

    def __init__(
        self,
        config: Optional[MQAConfig] = None,
        knowledge_base: Optional[KnowledgeBase] = None,
        clock: Optional[Callable[[], float]] = None,
        workers: Optional[int] = None,
    ) -> None:
        self._panel = ConfigurationPanel(config)
        self._knowledge_base = knowledge_base
        self._clock = clock or time.perf_counter
        self._coordinator: Optional[Coordinator] = None
        self._sessions = SessionTable()
        # An explicit ``workers`` pins the engine's width; otherwise it
        # follows the (possibly reconfigured) panel config.
        self._engine_pinned = workers is not None
        draft = self._panel.config
        self.engine = QueryEngine(
            workers=workers if workers is not None else draft.workers,
            live_session=self._sessions.__contains__,
        )
        self.batcher = MicroBatcher(self._run_search_batch, max_batch=draft.max_batch)
        self._batcher_lock = threading.Lock()
        #: route -> (the declaration its body is read through, None for no
        #: body; the handler, given the read body).
        self._routes: Dict[Tuple[str, str], Tuple[Optional[type], Callable[..., Any]]] = {
            ("GET", "/options"): (None, self._get_options),
            ("POST", "/configure"): (ConfigureBody, self._post_configure),
            ("POST", "/apply"): (None, self._post_apply),
            ("GET", "/status"): (None, self._get_status),
            ("GET", "/weights"): (None, self._get_weights),
            ("POST", "/query"): (QuestionBody, lambda body: self._post_question(body, "query")),
            ("POST", "/ask"): (QuestionBody, lambda body: self._post_question(body, "ask")),
            ("POST", "/select"): (RankBody, self._post_select),
            ("POST", "/refine"): (QuestionBody, lambda body: self._post_question(body, "refine")),
            ("GET", "/transcript"): (SessionBody, self._get_transcript),
            ("GET", "/events"): (EventsBody, self._get_events),
            ("POST", "/ingest"): (IngestBody, self._post_ingest),
            ("POST", "/session/new"): (None, self._post_session_new),
            ("POST", "/reject"): (RankBody, self._post_reject),
            ("POST", "/remove"): (RemoveBody, self._post_remove),
            ("POST", "/search"): (SearchBody, self._post_search),
            ("GET", "/metrics"): (MetricsBody, self._get_metrics),
            ("GET", "/trace"): (TraceBody, self._get_trace),
            ("GET", "/stats"): (None, self._get_stats),
            ("GET", "/profile"): (ProfileBody, self._get_profile),
            ("GET", "/health"): (None, self._get_health),
        }

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle(self, method: str, path: str, body: "Dict[str, Any] | None" = None) -> Dict[str, Any]:
        """Route one request through the engine on the calling thread.

        Exceptions become error responses: admission shedding (``"shed":
        True``), engine saturation (``"saturated": True``) and a deadline
        that expired in the queue (``"deadline_exceeded": True``).
        """
        if body is not None and not isinstance(body, Mapping):
            return {"ok": False, "error": f"request body must be an object, got {body!r}"}
        route = (method.upper(), path)
        mode = WRITE if route in self._WRITE_ROUTES else READ
        declared = self._routes.get(route, (None, None))[0]
        session_key = None
        if declared and issubclass(declared, SessionBody):  # one dialogue's verbs serialise
            try:
                session_key = read_fields(SessionBody, body or {}, ApiError).session or 0
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
                override = read_fields(DeadlineBody, body or {}, ApiError).deadline_override
            except ApiError:
                override = None  # the verb handler raises it again, as a reply
            deadline = coordinator.resilience.deadline(override)
        admission = coordinator.layer("admission") if coordinator is not None else None
        if admission is not None and declared and issubclass(declared, DeadlineBody):
            # Admission happens before the engine queue is touched: the
            # predicted tier-0 cost is the token charge, a shed decision
            # never enqueues, and a degrade decision is picked up by the
            # planner through ``under_pressure``.
            planner = coordinator.layer("planner")
            predicted = planner.predicted_base_ms() if planner is not None else 1.0
            if admission.decide(predicted) == "shed":
                coordinator.resilience.record_fallback("admission_shed")
                return {
                    "ok": False,
                    "error": "admission control shed the request: engine queue "
                    "delay or predicted cost exceeds serving capacity",
                    "shed": True,
                }
        try:
            return self.engine.submit(
                lambda: self._dispatch(method, path, body),
                mode=mode,
                session_key=session_key,
                deadline=deadline,
            )
        except EngineSaturatedError as exc:
            return {"ok": False, "error": str(exc), "saturated": True}
        except DeadlineExceededError as exc:
            # The engine shed the request after its budget expired in the
            # queue (resilience mode only).
            return {"ok": False, "error": str(exc), "deadline_exceeded": True}

    def _dispatch(self, method: str, path: str, body: "Dict[str, Any] | None") -> Dict[str, Any]:
        route = self._routes.get((method.upper(), path))
        if route is None:
            return {"ok": False, "error": f"no route for {method.upper()} {path}"}
        declared, handler = route
        try:
            payload = handler() if declared is None else handler(
                read_fields(declared, body or {}, ApiError)
            )
        except DeadlineExceededError as exc:
            return {"ok": False, "error": str(exc), "deadline_exceeded": True}
        except MQAError as exc:
            return {"ok": False, "error": str(exc)}
        response = {"ok": True}
        response.update(payload)
        return response

    def _maybe_resize_engine(self) -> None:
        """Follow ``POST /configure`` engine settings (unless pinned).

        Only the width changes: the engine, its RW lock and its session
        locks stay, so a verb admitted before the change still excludes
        every verb admitted after it.
        """
        if not self._engine_pinned:
            desired = self._panel.config.workers
            if desired != self.engine.workers:
                self.engine.resize(desired)

    def _install_wait_observer(self) -> None:
        """Feed the engine's queue signals to admission control.

        Two hooks: the engine's measured per-request queue waits (EWMA
        fallback signal) and a live queue-depth probe (the preferred
        Little's-law wait estimate).  Re-run after every apply so the
        engine's signals reach the active coordinator's controller (a
        no-op ``None`` when admission is off).
        """
        coordinator = self._coordinator
        admission = coordinator.layer("admission") if coordinator is not None else None
        self.engine.wait_observer = admission.observe_wait if admission is not None else None
        if admission is not None:
            admission.queue_probe = lambda: self.engine.queue_depth

    def _maybe_resize_batcher(self) -> None:
        """Follow the panel's ``max_batch`` after ``POST /configure``.

        Swapping in a fresh collector is safe at any point: waiters on the
        old instance elect leaders among themselves, so every in-flight
        submission still completes.
        """
        desired = self._panel.config.max_batch
        if desired == self.batcher.max_batch:
            return
        with self._batcher_lock:
            if desired == self.batcher.max_batch:
                return
            self.batcher = MicroBatcher(self._run_search_batch, max_batch=desired)

    def close(self) -> None:
        """Stop accepting requests: a later one is refused as saturated.
        There is no thread to join — a request in flight finishes on its
        caller's thread."""
        self.engine.shutdown()

    def __enter__(self) -> "ApiServer":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.close()
        return False

    def _require_system(self, session_id: int = 0) -> Tuple[Coordinator, QAPanel]:
        if self._coordinator is None:
            raise ApiError("system not applied yet; POST /apply first")
        qa = self._sessions.get(session_id)
        if qa is None:
            raise ApiError(f"unknown session {session_id}")
        return self._coordinator, qa

    # ------------------------------------------------------------------
    # configuration endpoints
    # ------------------------------------------------------------------
    def _get_options(self) -> Dict[str, Any]:
        return {"options": self._panel.options()}

    def _post_configure(self, body: ConfigureBody) -> Dict[str, Any]:
        self._panel.set_option(body.option, body.value)
        return {"feedback": self._panel.feedback[-1]}

    def _post_apply(self) -> Dict[str, Any]:
        self._coordinator = self._panel.apply(knowledge_base=self._knowledge_base)
        # Session 0 keeps its id, and so its engine lock: a verb may hold
        # it already, queued behind this write.
        self.engine.drop_sessions(self._sessions.reset(QAPanel(self._coordinator)))
        # The batcher entry reads through ``self``: it follows batcher swaps.
        self._coordinator.ledgers.update(
            engine=self.engine.snapshot, batching=lambda: self.batcher.snapshot()
        )
        self._install_wait_observer()
        return {"feedback": self._panel.feedback[-1], "summary": self._panel.config.summary()}

    # ------------------------------------------------------------------
    # monitoring endpoints
    # ------------------------------------------------------------------
    def _get_status(self) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        milestones = [
            {"name": m.name, "state": m.state.value,
             "elapsed_ms": round(m.elapsed * 1000, 2), "details": dict(m.details)}
            for m in coordinator.status.milestones()
        ]
        return {
            "milestones": milestones,
            "rendered": StatusPanel(coordinator.status, coordinator.ledger).render(),
        }

    def _get_weights(self) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        return {"weights": {m.value: w for m, w in coordinator.weights.items()}}

    def _get_events(self, body: EventsBody) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        # One snapshot call: the page and its ring-buffer totals must
        # describe the same instant even while appends continue.
        retained, total_recorded, dropped = coordinator.events.snapshot()
        offset = max(body.offset or 0, 0)
        end = None if body.limit is None else offset + max(body.limit, 0)
        return {
            "events": [
                {"source": e.source, "target": e.target, "kind": e.kind, "detail": e.detail}
                for e in retained[offset:end]
            ],
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
                {"object_id": item.object_id, "description": item.description,
                 "score": round(item.score, 4), "preferred": item.preferred}
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
        slo = coordinator.layer("slo")
        if slo is not None:
            slo.observe(elapsed_ms, error=failure is not None)
        if failure is None:
            metrics.inc(f"api.{verb}")
        else:
            metrics.inc("api.errors")
            metrics.inc(f"api.{verb}.errors")
            trace = "".join(traceback.format_exception(failure)).strip()
            coordinator.events.record("qa", "coordinator", "api-error", f"{verb}: {trace}")
        metrics.observe("api.request_ms", elapsed_ms)
        metrics.observe(f"api.{verb}_ms", elapsed_ms)

    def _post_question(self, body: QuestionBody, verb: str) -> Dict[str, Any]:
        """The dialogue verbs: ``POST /query``, ``POST /ask`` — its
        multi-hop agentic mode; with ``config.agentic`` off both run the
        single-hop round and answer the same body bit-identically — and
        ``POST /refine``."""
        coordinator, qa = self._require_system(body.session or 0)
        options = {"weights": body.weights, "deadline_ms": body.deadline_override}
        if verb == "refine":
            ask = qa.session.refine
        else:
            ask = qa.session.ask_agentic if verb == "ask" else qa.session.ask
            if body.reference_object_id is not None:
                # An uploaded image is modelled by referencing an object whose
                # image modality stands in for the user's file.
                reference = coordinator.get_object(body.reference_object_id)
                options["image"] = reference.get(Modality.IMAGE)
        answer = self._timed_verb(coordinator, verb, lambda: ask(body.text, **options))
        return {"answer": self._answer_payload(answer)}

    def _post_select(self, body: RankBody) -> Dict[str, Any]:
        _, qa = self._require_system(body.session or 0)
        return {"selected_object_id": qa.click_result(body.rank)}

    def _get_transcript(self, body: SessionBody) -> Dict[str, Any]:
        _, qa = self._require_system(body.session or 0)
        return {"transcript": qa.render_transcript()}

    def _post_remove(self, body: RemoveBody) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        coordinator.remove_object(body.object_id)
        return {"removed_object_id": body.object_id}

    # ------------------------------------------------------------------
    # raw batched retrieval
    # ------------------------------------------------------------------
    @staticmethod
    def _search_query(coordinator: Coordinator, spec: SearchQuery) -> RawQuery:
        """Build one :class:`RawQuery` from a ``/search`` query."""
        if spec.reference_object_id is not None:
            reference = coordinator.get_object(spec.reference_object_id)
            return RawQuery.from_text_and_image(spec.text, reference.get(Modality.IMAGE))
        return RawQuery.from_text(spec.text)

    @staticmethod
    def _search_payload(response) -> Dict[str, Any]:
        payload = {
            "framework": response.framework,
            "items": [
                {"object_id": item.object_id, "score": round(item.score, 6), "rank": item.rank}
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

    def _run_search_batch(self, items):
        """Micro-batch runner over ``(query, k, weights)`` items: group
        compatible requests, one batched retrieval per group.

        Requests coalesce only when they share ``k`` and ``weights`` —
        mixed groups split into separate ``retrieve_batch`` calls, each
        still amortising encode and traversal across its members.
        """
        coordinator = self._coordinator
        if coordinator is None:
            raise ApiError("system not applied yet; POST /apply first")
        results: list = [None] * len(items)
        groups: Dict[Any, list] = {}
        for position, (_, k, weights) in enumerate(items):
            named = None if weights is None else tuple(sorted(
                (str(m), float(w)) for m, w in weights.items()
            ))
            groups.setdefault((k, named), []).append(position)
        for members in groups.values():
            _, k, weights = items[members[0]]
            queries = [items[m][0] for m in members]
            for member, response in zip(members, coordinator.retrieve_batch(
                queries, k=k, weights=weights
            )):
                results[member] = response
        return results

    def _post_search(self, body: SearchBody) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        k, weights = body.k, body.weights
        if body.queries is not None:
            queries = [self._search_query(coordinator, spec) for spec in body.queries]
            responses = coordinator.retrieve_batch(queries, k=k, weights=weights)
            self.batcher.note(len(queries))
            return {"results": [self._search_payload(r) for r in responses]}
        query = self._search_query(coordinator, read_fields(SearchQuery, vars(body), ApiError))
        planner = coordinator.layer("planner")
        if planner is not None and self.batcher.max_batch > 1:
            # A request whose remaining deadline cannot absorb several
            # collector windows runs inline instead of joining the batch.
            deadline = coordinator.resilience.deadline(body.deadline_override)
            remaining = deadline.remaining_ms if deadline is not None else None
            if planner.skip_batching(remaining, self.batcher.window_ms):
                (response,) = coordinator.retrieve_batch([query], k=k, weights=weights)
                return {"result": self._search_payload(response)}
        response = self.batcher.submit((query, k, weights))
        return {"result": self._search_payload(response)}

    def _get_metrics(self, body: MetricsBody) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        if body.format == "prometheus":
            return {
                "content_type": "text/plain; version=0.0.4; charset=utf-8",
                "body": render_prometheus(coordinator.metrics),
            }
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
                "cache": {"enabled": True, **cache} if cache is not None else {
                    "enabled": False, "size": 0, "hits": 0, "misses": 0, "hit_rate": 0.0,
                },
                "trace": {
                    "enabled": coordinator.tracer.enabled,
                    "captured": len(coordinator.tracer.traces),
                },
            }
        }

    def _get_trace(self, body: TraceBody) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        traces = coordinator.tracer.export(body.limit)
        return {"enabled": coordinator.tracer.enabled, "traces": traces}

    def _get_profile(self, body: ProfileBody) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        traces = coordinator.tracer.traces
        aggregator = ProfileAggregator().add_traces(traces)
        payload: Dict[str, Any] = {"enabled": coordinator.tracer.enabled, "traces": len(traces)}
        if body.format == "collapsed":
            payload["collapsed"] = aggregator.collapsed()
        elif body.format == "table":
            payload["table"] = aggregator.render()
        else:
            payload["profile"] = aggregator.rows()
        return payload

    def _get_stats(self) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        stats = coordinator.ledger("stats")
        return {
            "enabled": stats is not None, "stats": stats,
            **{name: coordinator.ledger(name)
               for name in ("tiered", "planner", "admission", "cache", "agentic")},
        }

    def _get_health(self) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        slo = coordinator.ledger("slo")
        return {
            "monitoring": slo is not None,
            "state": slo["state"] if slo is not None else STATE_OK,
            "slo": slo,
            **{name: coordinator.ledger(name) for name in (
                "quality", "recorder", "engine", "batching", "resilience", "sharding",
                "tiered", "cache", "planner", "admission", "agentic",
            )},
        }

    def _post_session_new(self) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        session_id, evicted = self._sessions.open(QAPanel(coordinator))
        self.engine.drop_sessions(evicted)
        return {"session": session_id}

    def _post_reject(self, body: RankBody) -> Dict[str, Any]:
        _, qa = self._require_system(body.session or 0)
        return {"rejected_object_id": qa.session.reject(body.rank)}

    def _post_ingest(self, body: IngestBody) -> Dict[str, Any]:
        coordinator, _ = self._require_system()
        metadata = dict(body.metadata or {})
        object_id = coordinator.ingest_object(body.concepts, body.intensities, metadata)
        return {"object_id": object_id}
