"""Hierarchical query tracing.

The paper's demo ships a status-monitoring panel; production serving needs
the query-time analogue: per-stage attribution of where each millisecond
went (retrieval vs. fusion vs. generation).  A :class:`Tracer` produces a
tree of :class:`Span` objects per query — query → encode →
weight-inference → per-stream index search → fusion → generation —
each carrying wall-clock timings plus structured attributes (distance
evaluations, hops, beam budget, cache hit/miss, k).

Instrumented code never receives a tracer argument.  Call sites open spans
through the module-level :func:`trace_span`, which consults an ambient
context variable: when no trace is active (the default), it returns a
shared no-op span and costs one context-variable read — zero overhead in
the serving hot path.  A :class:`Tracer` activates itself for the duration
of one :meth:`Tracer.trace` block and keeps the last N finished traces for
the ``/trace`` endpoint, the status panel, and the CLI ``--trace`` flag.
"""

from __future__ import annotations

import contextvars
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterator, List, Mapping, Optional, Tuple


@dataclass
class Span:
    """One timed stage of a query, possibly with child stages.

    Attributes:
        name: Stage name ("query", "encode", "index-search", ...).
        attributes: Structured facts about the stage (modality, hops,
            distance_evaluations, cache, k, ...).
        children: Sub-stages, in execution order.
        duration: Wall-clock seconds (0 until the span closes).
    """

    name: str
    attributes: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)
    duration: float = 0.0
    _start: float = 0.0
    # A lifted span reads its exported ms: ms -> s -> ms is not exact in floats.
    _exported_ms: Optional[float] = field(default=None, repr=False, compare=False)

    @classmethod
    def from_dict(cls, data: Any) -> "Span":
        """Lift a :meth:`to_dict` export (``duration_ms``, ``attributes`` and
        ``children`` optional) back into a tree; ValueError if it is not one."""
        if not isinstance(data, Mapping) or not isinstance(data.get("name"), str):
            raise ValueError(f"not a span: an object with a string 'name', got {data!r:.60}")
        name, ms = data["name"], data.get("duration_ms", 0.0)
        attributes, children = data.get("attributes", {}), data.get("children", [])
        if isinstance(ms, bool) or not isinstance(ms, (int, float)) or not 0 <= ms < math.inf:
            raise ValueError(f"span {name!r}: 'duration_ms' is not a finite ms count: {ms!r}")
        if not isinstance(attributes, Mapping) or not isinstance(children, list):
            raise ValueError(f"span {name!r}: 'attributes' is not an object or 'children' a list")
        children = [cls.from_dict(child) for child in children]
        return cls(name, dict(attributes), children, ms / 1000.0, _exported_ms=float(ms))

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes to the span; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    @property
    def duration_ms(self) -> float:
        """Wall-clock milliseconds (a lifted span's as exported)."""
        if self._exported_ms is not None:
            return self._exported_ms
        return self.duration * 1000.0

    @property
    def self_ms(self) -> float:
        """Milliseconds spent in this span excluding its children.

        Clamped at zero: clock granularity can make the children sum to
        slightly more than the parent.
        """
        children_ms = 0.0  # left to right: ``sum`` compensates from Python 3.12
        for child in self.children:
            children_ms += child.duration_ms
        return max(self.duration_ms - children_ms, 0.0)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def paths(self, prefix: str = "") -> Iterator[Tuple[str, "Span"]]:
        """``(path, span)`` for this span and every descendant, depth first;
        a path is the ``;``-joined span names from the root."""
        path = f"{prefix};{self.name}" if prefix else self.name
        yield path, self
        for child in self.children:
            yield from child.paths(path)

    def find(self, name: str) -> Optional["Span"]:
        """First span called ``name`` in the subtree (depth first)."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> List["Span"]:
        """Every span called ``name`` in the subtree (depth first)."""
        return [span for span in self.walk() if span.name == name]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable view of the subtree."""
        return {
            "name": self.name,
            "duration_ms": round(self.duration_ms, 3),
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def render(self, indent: int = 0) -> str:
        """Multi-line text tree (used by the status panel and the CLI)."""
        attrs = ", ".join(f"{k}={v}" for k, v in self.attributes.items())
        line = (
            "  " * indent
            + f"{self.name} [{self.duration_ms:.2f} ms]"
            + (f" ({attrs})" if attrs else "")
        )
        lines = [line]
        lines.extend(child.render(indent + 1) for child in self.children)
        return "\n".join(lines)


class _NoopSpan:
    """Shared do-nothing span returned when no trace is active."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attributes: Any) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class _TraceState:
    """The ambient (tracer, current-span) pair while a trace is open."""

    __slots__ = ("tracer", "current")

    def __init__(self, tracer: "Tracer", current: Span) -> None:
        self.tracer = tracer
        self.current = current


_ACTIVE: "contextvars.ContextVar[Optional[_TraceState]]" = contextvars.ContextVar(
    "repro-active-trace", default=None
)


class _SpanContext:
    """Context manager opening a child span under the active trace."""

    __slots__ = ("_state", "_span", "_parent")

    def __init__(self, state: _TraceState, name: str, attributes: Dict[str, Any]) -> None:
        self._state = state
        self._span = Span(name=name, attributes=attributes)
        self._parent = state.current

    def __enter__(self) -> Span:
        self._parent.children.append(self._span)
        self._state.current = self._span
        self._span._start = self._state.tracer._clock()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        span.duration = max(self._state.tracer._clock() - span._start, 0.0)
        if exc_type is not None:
            span.attributes.setdefault("error", exc_type.__name__)
        self._state.current = self._parent
        return False


def trace_span(name: str, **attributes: Any):
    """Open a child span under the active trace (no-op when none is).

    The single instrumentation entry point: call sites do::

        with trace_span("index-search", modality="text") as span:
            ...
            span.set(hops=stats.hops)

    and pay only a context-variable read when tracing is disabled.
    """
    state = _ACTIVE.get()
    if state is None:
        return NOOP_SPAN
    return _SpanContext(state, name, dict(attributes))


class _TraceContext:
    """Context manager for one root trace; restores the ambient state."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", name: str, attributes: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._span = Span(name=name, attributes=attributes)
        self._token: "contextvars.Token | None" = None

    def __enter__(self) -> Span:
        self._token = _ACTIVE.set(_TraceState(self._tracer, self._span))
        self._span._start = self._tracer._clock()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        span.duration = max(self._tracer._clock() - span._start, 0.0)
        if exc_type is not None:
            span.attributes.setdefault("error", exc_type.__name__)
        if self._token is not None:
            _ACTIVE.reset(self._token)
        self._tracer._finish(span)
        return False


class Tracer:
    """Collects query traces and feeds per-stage latency histograms.

    Args:
        capacity: Finished traces kept (oldest evicted first).
        metrics: Optional :class:`~repro.observability.metrics.MetricsRegistry`;
            when given, every finished span records its duration into the
            ``stage_ms.<name>`` histogram so ``/metrics`` can aggregate
            per-stage latency across queries.
        clock: Time source (injectable for deterministic tests).
    """

    #: Reported by ``/metrics`` and the status panel.
    enabled: bool = True

    def __init__(
        self,
        capacity: int = 64,
        metrics=None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"trace capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.metrics = metrics
        self._clock = clock
        self._traces: Deque[Span] = deque(maxlen=capacity)
        # Concurrent queries finish traces while /trace exports them;
        # iterating a deque during an append raises RuntimeError.
        self._lock = threading.Lock()

    def trace(self, name: str, **attributes: Any):
        """Open a root span and make this tracer ambient for its duration.

        Opened inside one of this tracer's own traces (an agentic round's
        hop batches) it is a child span, so a request stays one trace.
        """
        state = _ACTIVE.get()
        if state is not None and state.tracer is self:
            return _SpanContext(state, name, dict(attributes))
        return _TraceContext(self, name, dict(attributes))

    def _finish(self, root: Span) -> None:
        with self._lock:
            self._traces.append(root)
        if self.metrics is not None:
            for span in root.walk():
                self.metrics.observe(f"stage_ms.{span.name}", span.duration_ms)

    @property
    def traces(self) -> List[Span]:
        """Finished traces, oldest first."""
        with self._lock:
            return list(self._traces)

    @property
    def last_trace(self) -> Optional[Span]:
        """The most recently finished trace, if any."""
        with self._lock:
            return self._traces[-1] if self._traces else None

    def export(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """The last ``limit`` traces (all when None, none when zero or
        less) as JSON-ready dicts."""
        traces = self.traces
        if limit is not None:
            limit = int(limit)
            traces = traces[-limit:] if limit > 0 else []  # [-0:] is everything
        return [span.to_dict() for span in traces]

    def clear(self) -> None:
        """Drop all collected traces."""
        with self._lock:
            self._traces.clear()


class NoopTracer:
    """Tracer with the same surface that records nothing.

    The default on every coordinator: ``trace`` hands back the shared
    no-op span without touching the ambient context variable, so
    instrumented code runs at full speed.
    """

    enabled = False
    capacity = 0
    metrics = None

    def trace(self, name: str, **attributes: Any) -> _NoopSpan:
        """Hand back the shared no-op span; nothing is recorded."""
        return NOOP_SPAN

    @property
    def traces(self) -> List[Span]:
        return []

    @property
    def last_trace(self) -> Optional[Span]:
        return None

    def export(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Always empty — nothing is ever captured."""
        return []

    def clear(self) -> None:
        """Nothing to drop."""
        return None


NOOP_TRACER = NoopTracer()
