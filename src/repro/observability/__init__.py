"""End-to-end query observability: tracing, metrics, and the durable half.

In-process (PR 1): a :class:`Tracer` captures one hierarchical span tree
per query (query → encode → weight-inference → index-search →
fusion → generation), and a :class:`MetricsRegistry` aggregates
counters and p50/p95/p99 latency histograms across queries.  Instrumented
call sites use :func:`trace_span`, which is a no-op unless a tracer is
active.

Durable (PR 2): a :class:`FlightRecorder` persists finished traces plus
request context to a rotating JSONL sink that
:mod:`repro.observability.replay` can deterministically re-execute;
:mod:`~repro.observability.exporters` renders the registry as Prometheus
text exposition and span trees as collapsed stacks; a
:class:`ProfileAggregator` folds many traces into a per-path self-time
table; and :class:`SLOMonitor` / :class:`QualityMonitor` grade live
latency, error-rate, and retrieval quality against configured targets.

Cost plane (PR 7): a :class:`QueryCostProfile` accounts per-query kernel
work (distance evaluations, hops, block reads), written by the executor,
and per-stage wall time and per-shard rows, read off the round's closed
trace by :func:`fold_span` — spans are the one timer, there is no ambient
profile; a :class:`StatsPlane` aggregates profiles into rolling
per-(framework, index, shard) distributions with tail-latency exemplars
for ``GET /stats``.  A sharded query is one trace like any other: the
router's scatter is a loop of nested ``shard-search`` spans.

(:mod:`repro.observability.replay` is imported lazily — it depends on
:mod:`repro.core`, which imports this package.)
"""

from repro.observability.costs import QueryCostProfile, fold_span
from repro.observability.exporters import (
    collapse_spans,
    prometheus_name,
    render_prometheus,
    split_labels,
)
from repro.observability.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    Window,
    labelled,
)
from repro.observability.monitoring import (
    STATE_BREACH,
    STATE_DEGRADED,
    STATE_OK,
    QualityMonitor,
    SLOMonitor,
    SLOTargets,
)
from repro.observability.profiling import ProfileAggregator
from repro.observability.recorder import FlightRecorder, read_recording
from repro.observability.stats import StatsPlane
from repro.observability.tracing import (
    NOOP_SPAN,
    NOOP_TRACER,
    NoopTracer,
    Span,
    Tracer,
    trace_span,
)

__all__ = [
    "Counter",
    "FlightRecorder",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "NOOP_TRACER",
    "NoopTracer",
    "ProfileAggregator",
    "QualityMonitor",
    "QueryCostProfile",
    "SLOMonitor",
    "SLOTargets",
    "STATE_BREACH",
    "STATE_DEGRADED",
    "STATE_OK",
    "Span",
    "StatsPlane",
    "Tracer",
    "Window",
    "collapse_spans",
    "fold_span",
    "labelled",
    "prometheus_name",
    "read_recording",
    "render_prometheus",
    "split_labels",
    "trace_span",
]
