"""Render the metrics registry as Prometheus text exposition (version 0.0.4).

Counters become ``*_total`` counter families, histograms summary families
with p50/p95/p99 quantiles plus ``_sum``/``_count``.  Served by ``GET
/metrics?format=prometheus`` so a scraper can point straight at the MQA
server.  The output is deterministic for deterministic inputs: families are
emitted in sorted order, values rounded to fixed precision.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Tuple

from repro.observability.metrics import MetricsRegistry

_INVALID_METRIC_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_FIRST_CHAR = re.compile(r"^[^a-zA-Z_:]")

#: Quantiles a histogram family exposes, in exposition order.
SUMMARY_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("0.5", 50.0),
    ("0.95", 95.0),
    ("0.99", 99.0),
)


def prometheus_name(name: str, prefix: str = "repro") -> str:
    """Sanitise a registry key into a legal Prometheus metric name.

    Dots and other invalid characters become underscores, and the shared
    ``prefix`` namespaces every family (``api.query_ms`` →
    ``repro_api_query_ms``).
    """
    cleaned = _INVALID_METRIC_CHARS.sub("_", name)
    cleaned = _INVALID_FIRST_CHAR.sub("_", cleaned)
    return f"{prefix}_{cleaned}" if prefix else cleaned


def _format_value(value: float) -> str:
    """Fixed-precision rendering so output is byte-stable across runs."""
    if value == int(value):
        return str(int(value))
    return repr(round(float(value), 6))


#: Registry keys carrying a :func:`~repro.observability.metrics.labelled`
#: suffix: ``base{k=v,k2=v2}``.
_LABELLED_KEY = re.compile(r"^(?P<base>[^{]+)\{(?P<labels>[^{}]*)\}$")


def split_labels(name: str) -> Tuple[str, Dict[str, str]]:
    """Decode a registry key into ``(base_name, labels)``.

    Inverse of :func:`repro.observability.metrics.labelled`; plain keys
    come back with an empty label dict.
    """
    match = _LABELLED_KEY.match(name)
    if match is None:
        return name, {}
    labels: Dict[str, str] = {}
    body = match.group("labels")
    if body:
        for pair in body.split(","):
            key, _, value = pair.partition("=")
            labels[key] = value
    return match.group("base"), labels


def _label_suffix(labels: Dict[str, str], extra: "Tuple[str, str] | None" = None) -> str:
    """Render ``{k="v",...}`` for a sample line (empty for no labels)."""
    pairs = [(key, labels[key]) for key in sorted(labels)]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    escaped = (
        (key, value.replace("\\", "\\\\").replace('"', '\\"'))
        for key, value in pairs
    )
    return "{" + ",".join(f'{key}="{value}"' for key, value in escaped) + "}"


def _families(names: Iterable[str]) -> "Dict[str, List[Tuple[str, Dict[str, str]]]]":
    """Group registry keys into ``base -> [(key, labels), ...]`` families.

    Families and the label sets within each family are sorted, so the
    exposition stays deterministic; an unlabelled key renders exactly as
    it did before labels existed (its family has one suffix-free sample).
    """
    families: Dict[str, List[Tuple[str, Dict[str, str]]]] = {}
    for name in sorted(names):
        base, labels = split_labels(name)
        families.setdefault(base, []).append((name, labels))
    return families


def render_prometheus(registry: MetricsRegistry, prefix: str = "repro") -> str:
    """The registry as Prometheus text exposition (one string, trailing \\n).

    Counters render as ``counter`` families suffixed ``_total``;
    histograms render as ``summary`` families with p50/p95/p99 quantile
    samples plus ``_sum`` and ``_count``.  Registry keys encoded with
    :func:`~repro.observability.metrics.labelled` are grouped into one
    family per base name with ``HELP``/``TYPE`` emitted once and proper
    ``{k="v"}`` label sets on every sample.
    """
    snapshot = registry.snapshot()
    lines: List[str] = []
    for base, members in sorted(_families(snapshot["counters"]).items()):
        family = prometheus_name(base, prefix) + "_total"
        lines.append(f"# HELP {family} Monotonic counter {base!r}.")
        lines.append(f"# TYPE {family} counter")
        for name, labels in members:
            lines.append(
                f"{family}{_label_suffix(labels)} "
                f"{_format_value(snapshot['counters'][name])}"
            )
    for base, members in sorted(_families(snapshot["histograms"]).items()):
        family = prometheus_name(base, prefix)
        lines.append(f"# HELP {family} Streaming summary {base!r}.")
        lines.append(f"# TYPE {family} summary")
        for name, labels in members:
            histogram = registry.histogram(name)
            for label, q in SUMMARY_QUANTILES:
                lines.append(
                    f"{family}{_label_suffix(labels, ('quantile', label))} "
                    f"{_format_value(round(histogram.percentile(q), 6))}"
                )
            lines.append(
                f"{family}_sum{_label_suffix(labels)} "
                f"{_format_value(round(histogram.total, 6))}"
            )
            lines.append(
                f"{family}_count{_label_suffix(labels)} "
                f"{_format_value(histogram.count)}"
            )
    return "\n".join(lines) + "\n"

