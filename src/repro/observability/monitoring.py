"""Online quality and SLO monitoring.

Production MRAG surveys single out two operational blind spots: retrieval
*quality drift* (the index quietly degrades while latency looks fine) and
*latency attribution against targets*.  Two monitors close them:

* :class:`QualityMonitor` — on a deterministic sample of live queries
  (every ``sample_rate``-th), scores the retrieved ids against the
  knowledge base's latent-concept ground truth and streams recall@k / MRR
  into the metrics registry.  Sampling is counter-based, not random, so
  two identical runs score identical queries.
* :class:`SLOMonitor` — keeps rolling windows of request latency and
  error outcomes and grades them against configurable targets:
  ``ok`` (within target), ``degraded`` (over target), ``breach`` (over
  ``breach_factor`` × target).  Surfaced by ``GET /health`` and the
  status panel.

Both monitors are cheap enough to leave on in production (a deque append
per request; one oracle scan per sampled query) and are **off by
default** (``MQAConfig.monitoring``).
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.observability.metrics import Window

STATE_OK = "ok"
STATE_DEGRADED = "degraded"
STATE_BREACH = "breach"

_TOKEN_SPLIT = re.compile(r"[^a-z0-9-]+")


@dataclass(frozen=True)
class SLOTargets:
    """The service-level objectives a deployment is graded against.

    Attributes:
        latency_ms: Rolling-window p95 latency target.
        error_rate: Rolling-window error-fraction target.
        window: Requests per rolling window.
        breach_factor: Multiplier separating ``degraded`` from ``breach``.
    """

    latency_ms: float = 250.0
    error_rate: float = 0.05
    window: int = 64
    breach_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.latency_ms <= 0:
            raise ValueError(f"latency_ms must be positive, got {self.latency_ms}")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError(f"error_rate must be in [0, 1], got {self.error_rate}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.breach_factor <= 1.0:
            raise ValueError(
                f"breach_factor must be > 1, got {self.breach_factor}"
            )


class SLOMonitor:
    """Rolling-window latency/error grading against :class:`SLOTargets`."""

    def __init__(self, targets: SLOTargets = SLOTargets()) -> None:
        self.targets = targets
        self._latencies = Window(targets.window)
        self._errors = Window(targets.window)
        self._lock = threading.Lock()
        self.total_requests = 0
        self.total_errors = 0

    def observe(self, latency_ms: float, error: bool = False) -> None:
        """Fold one finished request into the rolling windows."""
        with self._lock:
            self._latencies.observe(latency_ms)
            self._errors.observe(error)
            self.total_requests += 1
            if error:
                self.total_errors += 1

    # ------------------------------------------------------------------
    # grading
    # ------------------------------------------------------------------
    def _reading(self) -> Tuple[float, float, int, int, int]:
        """``(p95, error rate, fill, requests, errors)`` of one instant.

        Every derived figure is computed in a single acquisition — grading
        must not mix a latency window that saw a request with an error
        window that hasn't, and the lock is non-reentrant so the readers
        below cannot simply call each other while holding it.
        """
        with self._lock:
            return (
                self._latencies.percentile(95),
                self._errors.mean,
                len(self._latencies),
                self.total_requests,
                self.total_errors,
            )

    def _grade(self, p95: float, errors: float) -> str:
        factor = self.targets.breach_factor
        if (
            p95 > self.targets.latency_ms * factor
            or errors > min(self.targets.error_rate * factor, 1.0)
        ):
            return STATE_BREACH
        if p95 > self.targets.latency_ms or errors > self.targets.error_rate:
            return STATE_DEGRADED
        return STATE_OK

    @property
    def window_p95_ms(self) -> float:
        """p95 latency over the current window (0.0 when empty)."""
        return self._reading()[0]

    @property
    def window_error_rate(self) -> float:
        """Error fraction over the current window (0.0 when empty)."""
        return self._reading()[1]

    @property
    def state(self) -> str:
        """``ok`` / ``degraded`` / ``breach`` under the targets."""
        p95, error_rate, _, _, _ = self._reading()
        return self._grade(p95, error_rate)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready grading report for ``/health``."""
        p95, error_rate, fill, total_requests, total_errors = self._reading()
        return {
            "state": self._grade(p95, error_rate),
            "window_p95_ms": round(p95, 3),
            "latency_target_ms": self.targets.latency_ms,
            "window_error_rate": round(error_rate, 4),
            "error_rate_target": self.targets.error_rate,
            "window": self.targets.window,
            "window_fill": fill,
            "breach_factor": self.targets.breach_factor,
            "total_requests": total_requests,
            "total_errors": total_errors,
        }


class QualityMonitor:
    """Scores a deterministic sample of live queries against the oracle.

    Args:
        kb: The knowledge base whose latent-concept ground truth is the
            scoring oracle.
        metrics: Registry receiving ``quality.*`` counters and gauges.
        sample_rate: Score every ``sample_rate``-th query (1 = all).
        k: Oracle depth for recall@k.
    """

    def __init__(self, kb, metrics, sample_rate: int = 8, k: int = 5) -> None:
        if sample_rate < 1:
            raise ValueError(f"sample_rate must be >= 1, got {sample_rate}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.kb = kb
        self.metrics = metrics
        self.sample_rate = sample_rate
        self.k = k
        self._seen = 0
        self._lock = threading.Lock()
        self.last_score: Optional[Dict[str, Any]] = None
        # Oracle answers are deterministic for a fixed corpus; caching them
        # keeps sampled queries off the O(corpus) ground-truth scan.  The
        # cache drops whenever the knowledge base changes size (ingest).
        self._oracle_cache: Dict[Tuple[str, ...], List[int]] = {}
        self._oracle_kb_size = len(kb)

    def concepts_of(self, query_text: str) -> List[str]:
        """Concept tokens of ``query_text`` known to the latent space."""
        tokens = [t for t in _TOKEN_SPLIT.split(query_text.lower()) if t]
        return self.kb.space.known_tokens(tokens)

    def maybe_score(
        self, query_text: str, retrieved_ids: Sequence[int]
    ) -> Optional[Dict[str, Any]]:
        """Score this query if it falls on the deterministic sample grid.

        Returns the score dict when the query was sampled *and* carried at
        least one known concept, else None.  Queries with no recognised
        concepts count into ``quality.unscorable`` (no oracle exists for
        them).
        """
        with self._lock:
            sampled = self._seen % self.sample_rate == 0
            self._seen += 1
        if not sampled:
            return None
        from repro.evaluation.metrics import mean_reciprocal_rank, recall_at_k

        concepts = self.concepts_of(query_text)
        if not concepts:
            self.metrics.inc("quality.unscorable")
            return None
        key = tuple(concepts)
        with self._lock:
            if len(self.kb) != self._oracle_kb_size:
                self._oracle_cache.clear()
                self._oracle_kb_size = len(self.kb)
            oracle = self._oracle_cache.get(key)
        if oracle is None:
            oracle = self.kb.ground_truth_for_concepts(concepts, self.k)
            with self._lock:
                self._oracle_cache[key] = oracle
        score = {
            "recall_at_k": recall_at_k(list(retrieved_ids), oracle, self.k),
            "mrr": mean_reciprocal_rank(list(retrieved_ids), oracle),
            "k": self.k,
            "concepts": concepts,
        }
        self.metrics.inc("quality.sampled")
        self.metrics.observe("quality.recall_at_k", score["recall_at_k"])
        self.metrics.observe("quality.mrr", score["mrr"])
        self.last_score = score
        return score

    def snapshot(self) -> Dict[str, Any]:
        """Streaming gauges for ``/health`` and the status panel."""
        recall = self.metrics.histogram("quality.recall_at_k")
        mrr = self.metrics.histogram("quality.mrr")
        return {
            "sample_rate": self.sample_rate,
            "k": self.k,
            "queries_seen": self._seen,
            "sampled": self.metrics.count("quality.sampled"),
            "unscorable": self.metrics.count("quality.unscorable"),
            "mean_recall_at_k": round(recall.mean, 4),
            "mean_mrr": round(mrr.mean, 4),
            "last_score": dict(self.last_score) if self.last_score else None,
        }
