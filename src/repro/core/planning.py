"""Self-tuning query planning, admission control, and the semantic-cache
recall guard.

ROADMAP item 4: the observability stack already records per-(framework,
index, shard) latency and recall distributions — exactly the data a
cost-based optimizer needs.  This module turns that data into per-query
serving decisions:

* :class:`QueryPlanner` — picks the execution parameters for one query
  (search ``budget`` / beam width, shard fan-out, micro-batch
  participation) under the PR 5 :class:`~repro.core.resilience.Deadline`
  as its constraint.  The planner maintains a deterministic *budget
  ladder* derived from the configured ``search_budget`` and, for each
  tier, a rolling latency sample plus a recall EWMA fed back from live
  queries (seeded from the :class:`~repro.observability.stats.StatsPlane`
  when one exists).  ``plan()`` walks the ladder from the most to the
  least expensive tier whose *observed* recall still meets the
  configured floor and returns the first tier whose predicted p95 —
  times a safety factor — fits the deadline's remaining budget: the
  cheapest viable degradation level, full quality whenever the deadline
  allows it.
* :class:`AdmissionController` — sheds or degrades load at the
  :class:`~repro.core.concurrency.QueryEngine` boundary *before*
  saturation: a token bucket denominated in predicted milliseconds of
  retrieval work models serving capacity, and an EWMA over measured
  engine queue waits detects queue build-up long before the bounded
  queue overflows into a hard ``EngineSaturatedError``.
* the **semantic-cache recall guard** — the planner predicts whether
  serving a near-duplicate's cached response keeps recall above the
  floor (:meth:`QueryPlanner.semantic_guard`), which is the admission
  rule of :class:`~repro.core.cache.SemanticQueryCache`.

Everything here is off by default (``MQAConfig.planner`` /
``MQAConfig.admission`` / ``MQAConfig.semantic_cache``); when disabled
no object in this module is even constructed and the query path is
bit-identical to the pre-planning code.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.observability.metrics import MetricsRegistry, Window
from repro.observability.tracing import trace_span

__all__ = [
    "AdmissionController",
    "QueryPlan",
    "QueryPlanner",
]

logger = logging.getLogger(__name__)

#: Latency samples retained per budget tier (rolling window).
_TIER_WINDOW = 128

#: Minimum predicted recall a plan must keep (the status panel prints it).
RECALL_FLOOR = 0.8

#: Exponent of the prior recall model ``(budget / base) ** rho`` used for
#: tiers with no observed recall yet — mildly pessimistic, so very cheap
#: tiers start out below any reasonable floor until proven otherwise.
_PRIOR_RHO = 0.15

#: Exponent of the latency scaling model used to extrapolate a tier's
#: cost from an observed neighbour: cost grows sublinearly with beam
#: width (shared fixed costs: encode, fuse, merge).
_COST_SCALE = 0.8

#: How dissimilarity translates into predicted recall loss for the
#: semantic cache: ``predicted = 1 - (1 - cosine) * penalty``.
_SIMILARITY_PENALTY = 2.0


@dataclass
class QueryPlan:
    """The execution parameters chosen for one query.

    Attributes:
        budget: Search budget (beam width / ef) to run with.
        tier: Position in the planner's budget ladder (0 = full budget).
        predicted_ms: Predicted p95 retrieval latency of the chosen tier.
        predicted_recall: Predicted recall@k retention of the chosen tier
            (observed EWMA when available, prior model otherwise).
        degraded: True when even the cheapest floor-respecting tier could
            not fit the remaining deadline and the plan dropped below the
            recall floor — the round reports a ``degraded_reasons`` entry.
        reason: Why this tier was chosen — ``"no-deadline"``, ``"fit"``,
            ``"pressure"``, or ``"deadline"`` (degraded).
        fanout: Shard fan-out limit for degraded plans on a sharded
            deployment (None = scatter to every shard).
        planner: The planner that made the plan, which its measured
            latency and sampled recall are reported back to.
    """

    budget: int
    tier: int
    predicted_ms: float
    predicted_recall: float
    degraded: bool = False
    reason: str = "fit"
    fanout: Optional[int] = None
    planner: Optional["QueryPlanner"] = field(default=None, repr=False, compare=False)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready view carried on answer payloads and trace spans."""
        body: Dict[str, Any] = {
            "budget": self.budget,
            "tier": self.tier,
            "predicted_ms": round(self.predicted_ms, 3),
            "predicted_recall": round(self.predicted_recall, 4),
            "reason": self.reason,
        }
        if self.degraded:
            body["degraded"] = True
        if self.fanout is not None:
            body["fanout"] = self.fanout
        return body


class _Tier:
    """Rolling latency/recall state for one ladder budget (how often the
    tier was planned is the registry's ``planner.tier.<budget>``)."""

    __slots__ = ("budget", "latencies", "recall_ewma", "observed")

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.latencies = Window(_TIER_WINDOW)
        self.recall_ewma: Optional[float] = None
        self.observed = 0

    def note_latency(self, ms: float) -> None:
        self.latencies.observe(ms)
        self.observed += 1

    def p95(self) -> Optional[float]:
        return self.latencies.percentile(95) if len(self.latencies) else None


def budget_ladder(base_budget: int, k: int, min_budget: int = 8) -> List[int]:
    """The deterministic budget ladder for one configuration.

    Successive halvings of the configured ``search_budget`` down to
    ``max(k, min_budget)``, most expensive first.  The base budget is
    always tier 0, so a planner with an ample deadline reproduces the
    planner-off retrieval bit-identically.
    """
    if base_budget < 1:
        raise ValueError(f"base_budget must be >= 1, got {base_budget}")
    floor = max(int(k), int(min_budget), 1)
    ladder = [int(base_budget)]
    step = int(base_budget) // 2
    while step >= floor and step < ladder[-1]:
        ladder.append(step)
        step //= 2
    return ladder


class QueryPlanner:
    """Cost-based per-query planner over a deterministic budget ladder.

    Args:
        base_budget: The configured ``search_budget`` (tier 0).
        k: Default result count (lower bound for ladder budgets).
        recall_floor: Minimum predicted recall a tier must retain to be
            eligible for a non-degraded plan.
        shards: Shard count of the deployment (0/1 = unsharded); degraded
            plans on a sharded deployment additionally limit fan-out.
        stats: Optional :class:`~repro.observability.stats.StatsPlane`
            whose whole-query latency p95 seeds tier-0 predictions before
            the planner has its own samples.
        metrics: The registry the ``planner.*`` counters live in — what
            :meth:`snapshot` reads (the planner makes its own when the
            deployment hands it none).
        safety: Multiplier applied to predicted p95 before comparing with
            the remaining deadline (headroom for generation and jitter).
        min_budget: Smallest ladder budget considered.

    Thread safety: one planner is shared by every request thread; all
    mutable state is guarded by an internal lock.
    """

    def __init__(
        self,
        base_budget: int,
        k: int,
        recall_floor: float = RECALL_FLOOR,
        shards: int = 0,
        stats: Optional[Any] = None,
        metrics: Optional[Any] = None,
        safety: float = 1.25,
        min_budget: int = 8,
    ) -> None:
        if not 0.0 <= recall_floor <= 1.0:
            raise ValueError(
                f"recall_floor must be in [0, 1], got {recall_floor}"
            )
        self.base_budget = int(base_budget)
        self.k = int(k)
        self.recall_floor = float(recall_floor)
        self.shards = int(shards or 0)
        self.stats = stats
        self.metrics = metrics or MetricsRegistry()
        self.safety = float(safety)
        self._lock = threading.Lock()
        self._tiers = [
            _Tier(budget) for budget in budget_ladder(base_budget, k, min_budget)
        ]
        self._error_logged = False
        self._stats_seed_ms: Optional[float] = None
        self._stats_seed_at = 0

    # ------------------------------------------------------------------
    # prediction model
    # ------------------------------------------------------------------
    @property
    def ladder(self) -> List[int]:
        """The tier budgets, most expensive first."""
        return [tier.budget for tier in self._tiers]

    def _seed_ms(self) -> Optional[float]:
        """Whole-query p95 from the stats plane (refreshed lazily).

        The snapshot allocates, so it is re-read at most every 32 plans;
        between refreshes the cached value is used.
        """
        if self.stats is None:
            return self._stats_seed_ms
        plans = self.metrics.count("planner.plans")
        if plans - self._stats_seed_at < 32 and self._stats_seed_ms is not None:
            return self._stats_seed_ms
        self._stats_seed_at = plans
        try:
            snap = self.stats.snapshot()
        except Exception as exc:
            # Falling back to the cached seed keeps planning alive, but a
            # broken stats plane must be visible, not silent: count every
            # failure and log the first one with its cause.
            self.metrics.inc("planner.errors")
            if not self._error_logged:
                self._error_logged = True
                logger.warning(
                    "planner stats seeding failed; using cached seed "
                    "(error=%s message=%r)",
                    type(exc).__name__,
                    str(exc),
                )
            return self._stats_seed_ms
        whole = [g for g in snap.get("groups", []) if g.get("shard") == "-"]
        if whole:
            self._stats_seed_ms = max(
                float(g["latency_ms"]["p95"]) for g in whole
            )
        return self._stats_seed_ms

    def _predict_ms(self, tier: _Tier) -> float:
        """Predicted p95 retrieval latency for ``tier``.

        Own rolling sample when available; otherwise scaled from the
        nearest observed tier (sublinear in the budget ratio); otherwise
        the stats-plane seed; otherwise 0 (optimistic — the first queries
        run tier 0 and seed the model from real feedback).
        """
        own = tier.p95()
        if own is not None:
            return own
        nearest: Optional[_Tier] = None
        for other in self._tiers:
            if other.p95() is not None:
                if nearest is None or abs(
                    math.log(other.budget / tier.budget)
                ) < abs(math.log(nearest.budget / tier.budget)):
                    nearest = other
        if nearest is not None:
            scale = (tier.budget / nearest.budget) ** _COST_SCALE
            return float(nearest.p95()) * scale  # type: ignore[arg-type]
        seed = self._seed_ms()
        if seed is not None:
            return seed * (tier.budget / self.base_budget) ** _COST_SCALE
        return 0.0

    def _predict_recall(self, tier: _Tier) -> float:
        """Observed recall EWMA, or the prior ``(budget/base) ** rho``."""
        if tier.recall_ewma is not None:
            return tier.recall_ewma
        return (tier.budget / self.base_budget) ** _PRIOR_RHO

    def predicted_base_ms(self) -> float:
        """Tier-0 predicted cost — the admission token charge per query."""
        with self._lock:
            return max(self._predict_ms(self._tiers[0]), 1.0)

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(self, deadline: Optional[Any] = None, pressure: bool = False) -> QueryPlan:
        """Choose the execution parameters for one query.

        ``deadline`` is a :class:`~repro.core.resilience.Deadline` (or
        None when resilience is off / no budget applies).  ``pressure``
        marks admission-control degrade mode: the plan skips tier 0 and
        starts from the next floor-respecting tier, trading a little
        recall headroom for service time while staying above the floor —
        such plans are *not* marked degraded.
        """
        remaining: Optional[float] = None
        if deadline is not None:
            remaining = max(float(deadline.remaining_ms), 0.0)
        with self._lock:
            self.metrics.inc("planner.plans")
            eligible = [
                (index, tier)
                for index, tier in enumerate(self._tiers)
                if self._predict_recall(tier) >= self.recall_floor
            ]
            if not eligible:
                # A floor above every tier's prediction: tier 0 is the
                # best the system can do — run it and report honestly.
                eligible = [(0, self._tiers[0])]
            if pressure and len(eligible) > 1:
                eligible = eligible[1:]
            (index, tier), predicted, degraded = eligible[0], None, False
            reason = "pressure" if pressure else "no-deadline"
            if remaining is not None:
                reason = "pressure" if pressure else "fit"
                for index, tier in eligible:
                    predicted = self._predict_ms(tier)
                    if predicted * self.safety <= remaining:
                        break
                else:
                    # Nothing above the floor fits: degrade to the absolute
                    # cheapest tier and, when sharded, halve the fan-out.
                    index, predicted, degraded = len(self._tiers) - 1, None, True
                    tier = self._tiers[index]
            chosen = QueryPlan(
                budget=tier.budget,
                tier=index,
                predicted_ms=self._predict_ms(tier) if predicted is None else predicted,
                predicted_recall=self._predict_recall(tier),
                degraded=degraded,
                reason="deadline" if degraded else reason,
                fanout=max(1, self.shards // 2) if degraded and self.shards > 1 else None,
                planner=self,
            )
        self.metrics.inc(f"planner.tier.{chosen.budget}")
        if chosen.degraded:
            self.metrics.inc("planner.plan_degraded")
        if pressure:
            self.metrics.inc("planner.plan_pressure")
        self.metrics.observe("planner.budget", float(chosen.budget))
        return chosen

    def plan_round(self, context, admission: Optional["AdmissionController"] = None) -> None:
        """The ``plan`` stage (``planner``): pick the round's search budget
        (and fan-out) under its deadline — a tier down while ``admission``,
        when that layer is on, is under pressure."""
        if not context.queries:
            return
        pressure = admission is not None and admission.under_pressure
        with trace_span("plan") as span:
            plan = self.plan(deadline=context.deadline, pressure=pressure)
            span.set(**plan.to_dict())
        context.plan = plan
        context.budget = plan.budget
        context.fanout = plan.fanout
        if plan.degraded:
            context.degraded_reasons.append(
                f"plan degraded to budget {plan.budget} (deadline pressure)"
            )

    def skip_batching(
        self, remaining_ms: Optional[float], window_ms: float
    ) -> bool:
        """Should a ``/search`` request bypass the micro-batch collector?

        Joining the collector costs up to ``window_ms`` of pure waiting;
        when the remaining deadline cannot absorb several windows the
        plan runs the query inline instead.
        """
        if remaining_ms is None or window_ms <= 0:
            return False
        skip = remaining_ms < window_ms * 4.0
        if skip:
            self.metrics.inc("planner.batch_skipped")
        return skip

    # ------------------------------------------------------------------
    # feedback
    # ------------------------------------------------------------------
    def observe(self, plan: QueryPlan, latency_ms: float, ok: bool = True) -> None:
        """Fold one executed plan's measured retrieval latency back in."""
        if not ok:
            return
        with self._lock:
            if 0 <= plan.tier < len(self._tiers):
                self._tiers[plan.tier].note_latency(latency_ms)
        self.metrics.observe("planner.observed_ms", float(latency_ms))

    def observe_recall(self, budget: int, recall: float, alpha: float = 0.25) -> None:
        """Fold one sampled recall@k score into the matching tier's EWMA."""
        with self._lock:
            for tier in self._tiers:
                if tier.budget == budget:
                    if tier.recall_ewma is None:
                        tier.recall_ewma = float(recall)
                    else:
                        tier.recall_ewma = (
                            (1.0 - alpha) * tier.recall_ewma + alpha * float(recall)
                        )
                    break

    def semantic_guard(self, similarity: float) -> bool:
        """Admission rule for the semantic cache.

        Serving a near-duplicate at cosine similarity ``s`` is predicted
        to retain ``1 - (1 - s) * penalty`` of the fresh search's recall;
        the cached response is served only when that prediction stays at
        or above the recall floor.
        """
        predicted = 1.0 - (1.0 - float(similarity)) * _SIMILARITY_PENALTY
        return predicted >= self.recall_floor

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Ladder state for ``GET /health`` / ``GET /stats``; the counts
        are read from the registry, where they are kept."""
        count = self.metrics.count
        with self._lock:
            tiers = []
            for index, tier in enumerate(self._tiers):
                p95 = tier.p95()
                tiers.append(
                    {
                        "tier": index,
                        "budget": tier.budget,
                        "plans": count(f"planner.tier.{tier.budget}"),
                        "observed": tier.observed,
                        "p95_ms": round(p95, 3) if p95 is not None else None,
                        "predicted_ms": round(self._predict_ms(tier), 3),
                        "recall": (
                            round(tier.recall_ewma, 4)
                            if tier.recall_ewma is not None
                            else None
                        ),
                        "predicted_recall": round(self._predict_recall(tier), 4),
                    }
                )
            return {
                "enabled": True,
                "recall_floor": self.recall_floor,
                "safety": self.safety,
                "plans": count("planner.plans"),
                "degraded": count("planner.plan_degraded"),
                "pressure_plans": count("planner.plan_pressure"),
                "batch_skips": count("planner.batch_skipped"),
                "errors": count("planner.errors"),
                "tiers": tiers,
            }


class AdmissionController:
    """Sheds or degrades load before the engine queue saturates.

    Two independent signals feed each :meth:`decide` call:

    * a **token bucket** denominated in predicted milliseconds of
      retrieval work — refilled at ``workers × 1000 × utilization`` ms of
      capacity per wall second, drained by each accepted request's
      predicted cost.  When the bucket cannot cover a request, demand
      exceeds sustainable capacity and the request is degraded (planner
      pressure) rather than queued blindly;
    * a **queue-delay estimate**.  With a :attr:`queue_probe` installed
      (the engine's live queue depth) the expected wait is Little's law
      — ``depth / workers x predicted`` — recomputed from the *current*
      queue at every decision.  Without a probe the controller falls
      back to an EWMA over the engine's measured per-request queue waits
      (fed through :attr:`QueryEngine.wait_observer`); the EWMA only
      updates when requests actually execute, so during a shed storm it
      can stay stale-high after the queue has drained — the live probe
      is immune to that and is preferred whenever available.  Crossing
      ``degrade_wait_ms`` degrades new arrivals; a request whose
      expected wait *plus* predicted service time (times the planner's
      safety factor) reaches ``shed_wait_ms`` is shed outright — it is
      predicted to miss its budget even if accepted, so running it
      would waste capacity the requests already queued still need.
      Both fire before the bounded queue overflows into
      ``EngineSaturatedError``.

    Args:
        workers: Engine worker count (capacity model).
        degrade_wait_ms: Queue-wait EWMA above which arrivals degrade.
        shed_wait_ms: Predicted completion time (queue-wait EWMA +
            predicted service x safety) above which arrivals shed.
        utilization: Fraction of theoretical capacity the bucket refills
            at (headroom for writes and generation).
        burst_ms: Bucket capacity; defaults to half a second of refill.
        alpha: EWMA smoothing factor for queue waits.
        safety: Multiplier on predicted service time in the shed
            decision — kept equal to the planner's safety factor so a
            request admission accepts still has room for a full-quality
            (non-degraded) plan when it reaches the planner.
        queue_probe: Optional callable returning the engine's live queue
            depth (:attr:`QueryEngine.queue_depth`); also settable after
            construction, mirroring ``QueryEngine.wait_observer``.
        clock: Time source (injectable for deterministic tests).
        metrics: The registry the ``admission.*`` decision counters live
            in — what :meth:`snapshot` reads (the controller makes its
            own when handed none).
    """

    def __init__(
        self,
        workers: int = 1,
        degrade_wait_ms: float = 50.0,
        shed_wait_ms: float = 200.0,
        utilization: float = 0.85,
        burst_ms: Optional[float] = None,
        alpha: float = 0.2,
        safety: float = 1.25,
        queue_probe: Optional[Callable[[], int]] = None,
        clock: Callable[[], float] = time.perf_counter,
        metrics: Optional[Any] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shed_wait_ms < degrade_wait_ms:
            raise ValueError(
                "shed_wait_ms must be >= degrade_wait_ms, got "
                f"{shed_wait_ms} < {degrade_wait_ms}"
            )
        self.workers = int(workers)
        self.degrade_wait_ms = float(degrade_wait_ms)
        self.shed_wait_ms = float(shed_wait_ms)
        self.rate_ms_per_s = float(workers) * 1000.0 * float(utilization)
        self.burst_ms = (
            float(burst_ms) if burst_ms is not None else self.rate_ms_per_s * 0.5
        )
        self.alpha = float(alpha)
        self.safety = float(safety)
        self.queue_probe = queue_probe
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = self.burst_ms
        self._last = clock()
        self._wait_ewma = 0.0
        self._wait_seen = False
        self._predicted = 0.0
        self._probe_error_logged = False
        self.metrics = metrics or MetricsRegistry()

    @classmethod
    def from_config(cls, config: Any, metrics: Optional[Any] = None) -> "AdmissionController":
        """Build a controller from an :class:`~repro.core.config.MQAConfig`.

        The wait thresholds derive from the per-request budget when one is
        configured (degrade at half the deadline spent queueing, shed at a
        full deadline) and from the SLO latency target otherwise.
        """
        budget = config.deadline_ms or config.slo_latency_ms
        return cls(
            workers=config.workers,
            degrade_wait_ms=budget * 0.5,
            shed_wait_ms=budget,
            metrics=metrics,
        )

    def observe_wait(self, wait_ms: float) -> None:
        """Fold one measured engine queue wait into the EWMA (the hook
        installed as :attr:`QueryEngine.wait_observer`)."""
        with self._lock:
            if not self._wait_seen:
                self._wait_ewma = float(wait_ms)
                self._wait_seen = True
            else:
                self._wait_ewma = (
                    (1.0 - self.alpha) * self._wait_ewma
                    + self.alpha * float(wait_ms)
                )

    def _expected_wait_ms(self, predicted: float) -> float:
        """Forward-looking queue-wait estimate for one arriving request.

        With a live queue probe: Little's law, ``depth / workers x
        predicted`` — recomputed from the current queue, so a drained
        queue immediately re-enables acceptance after a shed storm.
        Without one (or when the probe fails): the backward-looking
        queue-wait EWMA.
        """
        depth = self._probe_depth()
        return self._wait_ewma if depth is None else depth / self.workers * predicted

    def _probe_depth(self) -> Optional[int]:
        """The live queue depth, or None without a working probe; a failed
        probe is counted and the first one logged.

        Called both with ``self._lock`` held (:meth:`decide`) and without
        (:meth:`snapshot`), so it never takes the lock.
        """
        probe = self.queue_probe  # settable from another thread: read once
        if probe is None:
            return None
        try:
            return max(int(probe()), 0)
        except Exception as exc:
            self.metrics.inc("admission.probe_errors")
            if not self._probe_error_logged:
                self._probe_error_logged = True
                logger.warning(
                    "admission queue probe failed; falling back to the "
                    "queue-wait EWMA (error=%s message=%r)",
                    type(exc).__name__,
                    str(exc),
                )
            return None

    def decide(self, predicted_ms: float) -> str:
        """Admit one request: ``"accept"``, ``"degrade"``, or ``"shed"``.

        The shed test is *predicted completion time*: the expected queue
        wait (see :meth:`_expected_wait_ms`) plus the request's
        predicted service time (times the safety factor) against the
        full budget.  A request that cannot make its budget even if
        accepted is turned away immediately — and, symmetrically, a
        request that *is* accepted still has ``predicted x safety`` of
        budget left when it reaches the planner, so admission never
        forces a degraded plan by itself.  Degraded requests still run
        (the planner drops to a cheaper floor-respecting tier) and are
        charged half their predicted cost; shed requests never touch
        the engine.
        """
        predicted = max(float(predicted_ms), 0.0)
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst_ms,
                self._tokens + (now - self._last) * self.rate_ms_per_s,
            )
            self._last = now
            self._predicted = predicted
            wait = self._expected_wait_ms(predicted)
            completion = wait + predicted * self.safety
            if completion >= self.shed_wait_ms or self._tokens <= -self.burst_ms:
                decision = "shed"
            elif wait >= self.degrade_wait_ms or self._tokens < predicted:
                self._tokens -= predicted * 0.5
                decision = "degrade"
            else:
                self._tokens -= predicted
                decision = "accept"
        self.metrics.inc(f"admission.{decision}")
        return decision

    @property
    def under_pressure(self) -> bool:
        """True while the controller is in degrade territory — the
        planner starts below tier 0 for the duration.  The wait is the one
        :meth:`decide` reads (the live probe when installed, priced at the
        last arrival's predicted cost; the EWMA otherwise), so a drained
        queue is no pressure however high the EWMA was left."""
        with self._lock:
            wait = self._expected_wait_ms(self._predicted)
            return wait >= self.degrade_wait_ms or self._tokens < 0.0

    def snapshot(self) -> Dict[str, Any]:
        """Live signals plus the registry's decision counts for
        ``GET /health`` / ``GET /stats``."""
        depth = self._probe_depth()
        with self._lock:
            return {
                "enabled": True,
                "workers": self.workers,
                "degrade_wait_ms": self.degrade_wait_ms,
                "shed_wait_ms": self.shed_wait_ms,
                "safety": self.safety,
                "tokens_ms": round(self._tokens, 3),
                "burst_ms": self.burst_ms,
                "queue_wait_ewma_ms": round(self._wait_ewma, 3),
                "queue_depth": depth,
                "accepted": self.metrics.count("admission.accept"),
                "degraded": self.metrics.count("admission.degrade"),
                "shed": self.metrics.count("admission.shed"),
                "probe_errors": self.metrics.count("admission.probe_errors"),
            }
