"""Per-query cost accounting: who spent what, where, and on which shard.

The cost plane answers the question the tracer alone cannot: *why* was
this query slow?  It keeps no clock and no ambient state of its own — a
block is timed once, by its span, and the cost plane reads the round's
closed trace.  A :class:`QueryCostProfile` has two writers:

* ``QueryExecution.execute_batch`` creates one per query and fills in what
  it alone knows: framework, index, shard count, the query-cache
  disposition, the kernel counters (distance evaluations, graph hops,
  Starling block reads and block-cache hits) off the response's
  ``SearchStats``, and the result count;
* after the round's trace has closed, :func:`fold_span` reads the wall
  times off it: span durations become ``stage_ms`` (:data:`STAGE_OF_SPAN`
  names the spans that are stages), and each ``shard-search`` branch the
  router attached becomes one per-shard row.

Two span names are opaque to the fold.  A ``shard-search`` branch is one
row and its inner ``encode`` / ``index-search`` spans are not counted
again — the shard's work is attributed per shard, identically for inline
and pooled scatter because the two build identical trees.  A nested
``query-batch`` (an agentic hop batch) is a round of its own with its own
profiles, folded when it closed.

``cost_accounting`` therefore implies a tracer (as ``recorder_path``
does).  Profiles ride on ``RetrievalResponse.cost`` and ``Answer.cost``,
are aggregated by :class:`repro.observability.stats.StatsPlane`, and
surface through ``GET /stats``, the answer/search payloads, and ``python
-m repro stats``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.observability.tracing import Span

__all__ = ["QueryCostProfile", "STAGE_OF_SPAN", "fold_span"]


@dataclass
class QueryCostProfile:
    """Cost ledger for one query (or one batch of queries).

    Attributes:
        framework: Retrieval framework that served the query.
        index: Configured index type (``flat``/``hnsw``/``starling``...).
        shards_total: Shard count behind the framework (0 = unsharded).
        batch: Number of queries covered; 0 for a single-query profile.
        cache: Query-cache disposition — ``"off"`` (no cache), ``"bypass"``
            (filters force a live search), ``"miss"``, ``"hit"``, or
            ``"semantic"`` (a near-duplicate's response served by the
            semantic cache).  On a hit — exact or semantic — the served
            response did no kernel work, so the counters below stay
            zero; the original search's cost was accounted when it first
            ran.
        distance_evaluations: Distance-kernel evaluations performed.
        hops: Graph hops (HNSW/beam) walked.
        block_reads: Starling disk blocks fetched.
        cache_hits: Starling block-*cache* hits (distinct from the
            query-level ``cache`` label above).
        items: Results returned.
        shards_failed: Shards that degraded out of the scatter.
        stage_ms: Wall time per pipeline stage (``encode``, ``search``,
            ``fuse``, ``retrieve``, ``merge``, ``generate``).
        shards: Per-shard rows, one per ``shard-search`` branch of the trace:
            ``{"shard", "replica", "ok", "ms", "items",
            "distance_evaluations", "hops"}``.
        trace_id: Sequence id assigned by the stats plane on observation;
            exemplar traces in ``GET /stats`` reference it.
    """

    framework: str
    index: str = ""
    shards_total: int = 0
    batch: int = 0
    cache: str = "off"
    distance_evaluations: int = 0
    hops: int = 0
    block_reads: int = 0
    cache_hits: int = 0
    items: int = 0
    shards_failed: int = 0
    stage_ms: Dict[str, float] = field(default_factory=dict)
    shards: List[Dict[str, Any]] = field(default_factory=list)
    trace_id: Optional[int] = None

    def add_search_stats(self, stats: Any) -> None:
        """Fold a ``SearchStats``-shaped object into the kernel counters."""
        if stats is None:
            return
        self.distance_evaluations += int(
            getattr(stats, "distance_evaluations", 0)
        )
        self.hops += int(getattr(stats, "hops", 0))
        self.block_reads += int(getattr(stats, "block_reads", 0))
        self.cache_hits += int(getattr(stats, "cache_hits", 0))

    def add_stage(self, name: str, ms: float) -> None:
        """Accumulate ``ms`` of wall time under stage ``name``."""
        self.stage_ms[name] = self.stage_ms.get(name, 0.0) + float(ms)

    def add_shard(self, **entry: Any) -> None:
        """Append one shard's contribution (called by :func:`fold_span`)."""
        self.shards.append(entry)

    def signature(self) -> Dict[str, Any]:
        """Deterministic fields only — identical across execution paths.

        Wall-clock stages and per-shard detail legitimately differ
        between the serial and batched paths (a batch amortises one
        scatter across all queries), so the parity contract covers the
        work counters, the cache disposition, and the result count.
        """
        return {
            "framework": self.framework,
            "index": self.index,
            "shards_total": self.shards_total,
            "cache": self.cache,
            "items": self.items,
            "distance_evaluations": self.distance_evaluations,
            "hops": self.hops,
            "block_reads": self.block_reads,
            "cache_hits": self.cache_hits,
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready export for payloads, exemplars, and the CLI."""
        body: Dict[str, Any] = {
            "framework": self.framework,
            "index": self.index,
            "shards_total": self.shards_total,
            "cache": self.cache,
            "distance_evaluations": self.distance_evaluations,
            "hops": self.hops,
            "block_reads": self.block_reads,
            "cache_hits": self.cache_hits,
            "items": self.items,
            "stage_ms": {
                name: round(ms, 3) for name, ms in sorted(self.stage_ms.items())
            },
        }
        if self.batch:
            body["batch"] = self.batch
        if self.shards_failed:
            body["shards_failed"] = self.shards_failed
        if self.shards:
            body["shards"] = [dict(entry) for entry in self.shards]
        if self.trace_id is not None:
            body["trace_id"] = self.trace_id
        return body


#: Span name -> the ``stage_ms`` key its duration accumulates under.  Spans
#: not named here (``guard``, ``scatter``, ``beam-search``, ``block-io``,
#: ``weight-inference``, ...) add nothing themselves but are descended into.
STAGE_OF_SPAN = {
    "encode": "encode",
    "index-search": "search",
    "fusion": "fuse",
    "retrieval": "retrieve",
    "shard-merge": "merge",
    "generation": "generate",
    "decompose": "agentic-decompose",
    "synthesize": "agentic-synthesize",
    "refine": "agentic-refine",
}


def fold_span(profile: QueryCostProfile, span: Span) -> None:
    """Read a closed trace (sub)tree's wall times into ``profile``.

    ``span`` is the scope, not a stage: only its descendants are read.
    """
    for child in span.children:
        if child.name == "shard-search":
            facts = child.attributes
            ok = bool(facts.get("ok"))
            profile.add_shard(
                shard=facts.get("shard"),
                replica=facts.get("replica"),
                ok=ok,
                ms=round(child.duration_ms, 3),
                items=facts.get("items", 0),
                distance_evaluations=facts.get("distance_evaluations", 0),
                hops=facts.get("hops", 0),
            )
            if not ok:
                profile.shards_failed += 1
            continue
        if child.name == "query-batch":
            continue
        stage = STAGE_OF_SPAN.get(child.name)
        if stage is not None:
            profile.add_stage(stage, child.duration_ms)
        fold_span(profile, child)
