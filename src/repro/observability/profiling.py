"""Fold many span trees into one per-path profile table.

A single trace answers "where did *this* query's time go"; the
:class:`ProfileAggregator` answers the aggregate question across many
queries (or across the build phases of many indexes): for every span
*path* — the semicolon-joined chain of span names from the root, e.g.
``query;retrieval;index-search;beam-search`` (``beam-search`` is the one
graph-traversal span at every batch width; it carries ``queries=``) — it
accumulates call count,
cumulative time, and a reservoir-sampled distribution of *self* time
(duration minus children), reporting total/mean/p95.  Exposed live at
``GET /profile`` over the tracer's retained traces and offline via
``python -m repro profile <trace-file>`` over a flight recording.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Union

from repro.observability.metrics import Histogram
from repro.observability.tracing import Span

SpanLike = Union[Span, Mapping[str, Any]]


class _PathStats:
    """Accumulated timing facts for one span path."""

    __slots__ = ("count", "total_ms", "self_total_ms", "self_histogram")

    def __init__(self, path: str, reservoir_size: int) -> None:
        self.count = 0
        self.total_ms = 0.0
        self.self_total_ms = 0.0
        self.self_histogram = Histogram(path, reservoir_size=reservoir_size)


class ProfileAggregator:
    """Streams span trees in, produces a cumulative/self-time table.

    Args:
        reservoir_size: Per-path sample cap for the self-time percentile
            sketch (the aggregate stays bounded no matter how many traces
            flow in).
    """

    def __init__(self, reservoir_size: int = 512) -> None:
        self._reservoir_size = reservoir_size
        self._paths: Dict[str, _PathStats] = {}
        self.trace_count = 0

    @staticmethod
    def _fields(span: SpanLike):
        if isinstance(span, Span):
            return span.name, span.duration_ms, list(span.children)
        return (
            str(span["name"]),
            float(span.get("duration_ms", 0.0)),
            list(span.get("children", ())),
        )

    def add_trace(self, root: SpanLike) -> None:
        """Fold one span tree (a :class:`Span` or its dict export) in."""
        self.trace_count += 1
        self._walk(root, "")

    def add_traces(self, roots: Iterable[SpanLike]) -> "ProfileAggregator":
        """Fold many span trees in; returns self for chaining."""
        for root in roots:
            self.add_trace(root)
        return self

    def _walk(self, span: SpanLike, prefix: str) -> None:
        name, duration_ms, children = self._fields(span)
        path = f"{prefix};{name}" if prefix else name
        children_ms = sum(self._fields(child)[1] for child in children)
        self_ms = max(duration_ms - children_ms, 0.0)
        stats = self._paths.get(path)
        if stats is None:
            stats = self._paths[path] = _PathStats(path, self._reservoir_size)
        stats.count += 1
        stats.total_ms += duration_ms
        stats.self_total_ms += self_ms
        stats.self_histogram.observe(self_ms)
        for child in children:
            self._walk(child, path)

    def rows(self) -> List[Dict[str, Any]]:
        """One dict per path, heaviest self time first.

        Keys: ``path``, ``count``, ``total_ms`` (cumulative, includes
        children), ``self_ms`` (sum of self times), ``mean_self_ms``,
        ``p95_self_ms``.
        """
        rows = []
        for path, stats in self._paths.items():
            rows.append(
                {
                    "path": path,
                    "count": stats.count,
                    "total_ms": round(stats.total_ms, 3),
                    "self_ms": round(stats.self_total_ms, 3),
                    "mean_self_ms": round(stats.self_total_ms / stats.count, 3),
                    "p95_self_ms": round(stats.self_histogram.percentile(95), 3),
                }
            )
        rows.sort(key=lambda row: (-row["self_ms"], row["path"]))
        return rows

    def render(self) -> str:
        """Aligned text table (the CLI's ``profile`` output)."""
        rows = self.rows()
        if not rows:
            return "profile: no traces aggregated"
        headers = ["path", "count", "total_ms", "self_ms", "mean_self_ms", "p95_self_ms"]
        cells = [[str(row[h]) for h in headers] for row in rows]
        widths = [
            max(len(headers[i]), *(len(line[i]) for line in cells))
            for i in range(len(headers))
        ]
        lines = [
            "  ".join(headers[i].ljust(widths[i]) for i in range(len(headers))),
            "  ".join("-" * widths[i] for i in range(len(headers))),
        ]
        for line in cells:
            lines.append(
                line[0].ljust(widths[0])
                + "  "
                + "  ".join(line[i].rjust(widths[i]) for i in range(1, len(headers)))
            )
        return "\n".join(lines)
