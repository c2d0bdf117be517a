"""Rolling per-(framework, index, shard) cost/latency/recall statistics.

The :class:`StatsPlane` is the aggregation tier of the cost plane: every
observed :class:`~repro.observability.costs.QueryCostProfile` is folded
into rolling distributions keyed by ``(framework, index, shard)`` —
``shard="-"`` holds the whole-query view, numbered entries hold the
per-shard split appended by the router.  Alongside the distributions the
plane retains the K slowest queries as *exemplars* (full cost profile +
an assigned trace id) so a tail-latency spike in ``GET /stats`` can be
chased down to the concrete queries that caused it.

This is the data substrate the ROADMAP's cost-based planner reads: the
``snapshot()`` payload carries exactly the per-index/per-framework
latency and recall distributions a planner needs to pick a framework,
index, and search budget under a deadline.

The plane only exists when ``cost_accounting`` is enabled; the disabled
path never constructs one.  A distribution that has a labelled family —
``cost.latency_ms`` / ``cost.distance_evaluations`` / ``cost.queries``
``{framework,index}``, ``cost.stage_ms{...,stage}``, ``cost.shard_ms`` /
``cost.shard_failures{...,shard}`` — *is* that registry instrument: one
``observe``, read by ``GET /stats`` here and by
:func:`repro.observability.exporters.render_prometheus` there, for lone
and batch-scope profiles alike.  What has no family (hops, recall@k, a
shard's distance evaluations, the item / block / cache tallies) stays
private to its group.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.observability.costs import QueryCostProfile, fold_span
from repro.observability.metrics import Histogram, MetricsRegistry, labelled

__all__ = ["StatsPlane"]

#: Whole-query rows use this shard key; numbered keys hold per-shard rows.
WHOLE_QUERY = "-"


class _CostGroup:
    """Rolling distributions for one (framework, index, shard) key."""

    def __init__(
        self, metrics: MetricsRegistry, framework: str, index: str, shard: str
    ) -> None:
        self.metrics = metrics
        self.framework = framework
        self.index = index
        self.shard = shard
        self.items = 0
        self.block_reads = 0
        self.block_cache_hits = 0
        self.shards_failed = 0
        self.cache: Dict[str, int] = {}
        self.labels = {"framework": framework, "index": index}
        self.queries_key = labelled("cost.queries", **self.labels)
        stem = f"stats.{framework}.{index}.{shard}"
        if shard == WHOLE_QUERY:
            self.latency = metrics.histogram(labelled("cost.latency_ms", **self.labels))
            self.distance_evaluations = metrics.histogram(
                labelled("cost.distance_evaluations", **self.labels)
            )
        else:
            self.labels["shard"] = shard
            self.latency = metrics.histogram(labelled("cost.shard_ms", **self.labels))
            self.distance_evaluations = Histogram(f"{stem}.distance_evaluations")
        self.failures_key = labelled("cost.shard_failures", **self.labels)
        self.hops = Histogram(f"{stem}.hops")
        self.recall = Histogram(f"{stem}.recall_at_k")
        self.stages: Dict[str, Histogram] = {}

    def observe_query(
        self, profile: QueryCostProfile, latency_ms: float
    ) -> None:
        """Fold one whole-query profile into the distributions."""
        self.metrics.inc(self.queries_key)
        self.items += profile.items
        self.block_reads += profile.block_reads
        self.block_cache_hits += profile.cache_hits
        self.shards_failed += profile.shards_failed
        self.cache[profile.cache] = self.cache.get(profile.cache, 0) + 1
        self.latency.observe(latency_ms)
        self.distance_evaluations.observe(float(profile.distance_evaluations))
        self.hops.observe(float(profile.hops))
        self.observe_stages(profile)

    def observe_stages(self, profile: QueryCostProfile) -> None:
        """Fold a profile's per-stage wall times in (nothing else of it)."""
        for name, ms in profile.stage_ms.items():
            histogram = self.stages.get(name)
            if histogram is None:
                histogram = self.stages[name] = self.metrics.histogram(
                    labelled("cost.stage_ms", stage=name, **self.labels)
                )
            histogram.observe(ms)

    def observe_shard(self, entry: Dict[str, Any]) -> None:
        """Fold one per-shard contribution entry from the router."""
        self.items += int(entry.get("items", 0))
        if not entry.get("ok", True):
            self.metrics.inc(self.failures_key)
        self.latency.observe(float(entry.get("ms", 0.0)))
        self.distance_evaluations.observe(
            float(entry.get("distance_evaluations", 0))
        )
        self.hops.observe(float(entry.get("hops", 0)))

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready row for ``GET /stats`` and the CLI table."""
        return {
            "framework": self.framework,
            "index": self.index,
            "shard": self.shard,
            "queries": self.latency.count,
            "items": self.items,
            "block_reads": self.block_reads,
            "block_cache_hits": self.block_cache_hits,
            # A whole-query row sums its profiles' lost shards; a shard row
            # reads its own failure counter (the other term is zero).
            "failures": self.shards_failed + self.metrics.count(self.failures_key),
            "cache": {k: v for k, v in sorted(self.cache.items()) if v},
            "latency_ms": self.latency.summary(),
            "distance_evaluations": self.distance_evaluations.summary(),
            "hops": self.hops.summary(),
            "recall_at_k": (
                self.recall.summary() if self.recall.count else None
            ),
            "stages_ms": {
                name: histogram.summary()
                for name, histogram in sorted(self.stages.items())
            },
        }


def _group_order(key: Tuple[str, str, str]) -> Tuple[str, str, int, int]:
    """Sort whole-query rows before their per-shard splits."""
    framework, index, shard = key
    if shard == WHOLE_QUERY:
        return (framework, index, 0, -1)
    return (framework, index, 1, int(shard) if shard.isdigit() else 0)


class StatsPlane:
    """Aggregates cost profiles into rolling stats with tail exemplars.

    Args:
        metrics: The registry the ``cost.*`` families live in (the plane
            makes its own when handed none).
        exemplars: How many of the slowest queries to retain with their
            full cost profiles (the K in "K slowest traces").
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        exemplars: int = 8,
    ) -> None:
        if exemplars < 0:
            raise ValueError("exemplars must be >= 0")
        self.metrics = metrics or MetricsRegistry()
        self.exemplars_retained = exemplars
        self._lock = threading.Lock()
        self._groups: Dict[Tuple[str, str, str], _CostGroup] = {}
        self._exemplars: List[Dict[str, Any]] = []
        self._sequence = 0

    def _group(self, framework: str, index: str, shard: str) -> _CostGroup:
        key = (framework, index, shard)
        group = self._groups.get(key)
        if group is None:
            group = _CostGroup(self.metrics, framework, index, shard)
            self._groups[key] = group
        return group

    def observe(self, profile: QueryCostProfile, latency_ms: float) -> int:
        """Fold one query's profile in; returns its assigned trace id."""
        with self._lock:
            trace_id = self._sequence
            self._sequence += 1
            profile.trace_id = trace_id
            self._group(
                profile.framework, profile.index, WHOLE_QUERY
            ).observe_query(profile, latency_ms)
            self._observe_shards(profile)
            self._note_exemplar(profile, latency_ms, trace_id)
        return trace_id

    def _observe_shards(self, profile: QueryCostProfile) -> None:
        for entry in profile.shards:
            self._group(
                profile.framework, profile.index, str(entry.get("shard"))
            ).observe_shard(entry)

    def observe_batch(
        self,
        profiles: Sequence[Optional[QueryCostProfile]],
        batch_profile: Optional[QueryCostProfile],
        batch_ms: float,
    ) -> None:
        """Fold a batch in: per-query profiles plus the batch-scope one.

        Per-query latency inside a batch is not individually measurable
        (the batch amortises one scatter), so each query is attributed an
        equal share of the batch wall time.  The batch-scope profile
        contributes its per-shard split and stage times without bumping
        query counts — those queries were already counted individually.
        """
        live = [profile for profile in profiles if profile is not None]
        share_ms = batch_ms / len(live) if live else 0.0
        for profile in live:
            self.observe(profile, share_ms)
        if batch_profile is None:
            return
        with self._lock:
            self._observe_shards(batch_profile)
            self._group(
                batch_profile.framework, batch_profile.index, WHOLE_QUERY
            ).observe_stages(batch_profile)

    def observe_round(self, context) -> None:
        """The ``stats`` observer (``cost_accounting``): read a round's wall
        times off its closed trace, then fold its ledgers in.

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
            first, batch = profiles[0], context.trace.find("retrieval-batch")
            ledger = QueryCostProfile(
                first.framework, first.index, first.shards_total, batch=len(profiles)
            )
            fold_span(ledger, batch)
            share_ms = batch.duration_ms / len(profiles)
            for profile in profiles:
                profile.add_stage("retrieve", share_ms)
        self.observe_batch(profiles, ledger, context.elapsed_ms)

    def observe_recall(
        self, framework: str, index: str, recall: float
    ) -> None:
        """Record a sampled recall@k score for the whole-query group."""
        with self._lock:
            self._group(framework, index, WHOLE_QUERY).recall.observe(recall)

    def _note_exemplar(
        self, profile: QueryCostProfile, latency_ms: float, trace_id: int
    ) -> None:
        if self.exemplars_retained == 0:
            return
        self._exemplars.append(
            {
                "trace_id": trace_id,
                "latency_ms": round(latency_ms, 3),
                "framework": profile.framework,
                "index": profile.index,
                "cost": profile.to_dict(),
            }
        )
        self._exemplars.sort(
            key=lambda entry: (-entry["latency_ms"], entry["trace_id"])
        )
        del self._exemplars[self.exemplars_retained :]

    def snapshot(self) -> Dict[str, Any]:
        """Full JSON-ready view for ``GET /stats`` / the status panel."""
        with self._lock:
            groups = [
                self._groups[key].snapshot()
                for key in sorted(self._groups, key=_group_order)
            ]
            exemplars = [dict(entry) for entry in self._exemplars]
            observed = self._sequence
        return {
            "queries": observed,
            "exemplars_retained": self.exemplars_retained,
            "exemplars": exemplars,
            "groups": groups,
        }
