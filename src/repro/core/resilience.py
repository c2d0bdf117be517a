"""Fault injection, retries, deadlines, and graceful degradation.

MQA is a serving system: a dialogue round must produce *some* answer even
when a component is slow or failing.  This module makes failure a
first-class, testable input:

* :class:`FaultInjector` — deterministic, seeded injection of exceptions
  and latency spikes at named component boundaries (``encoder.text``,
  ``index.search``, ``llm.generate``, ``store.ingest``, ...).  Each
  configured site draws from its own :func:`~repro.utils.rng.derive_rng`
  stream, so the fault schedule at one boundary never shifts another's.
* :class:`Deadline` — a per-request latency budget with an injectable
  clock; work checks ``remaining_ms`` instead of sleeping past the point
  where the caller has given up.
* :class:`RetryPolicy` — bounded attempts with exponential backoff,
  always capped by the request deadline (a retry that cannot finish in
  budget is not attempted).
* :class:`CircuitBreaker` — classic closed → open → half-open per-site
  state machine so a repeatedly failing component is probed, not hammered.
* :class:`ResilienceManager` — the facade the coordinator / engine /
  server use: ``manager.call(site, fn, deadline=...)`` applies injection,
  breaker, retry and deadline in one place and feeds every outcome into
  the metrics registry and its own snapshot (surfaced by ``GET /health``).

Everything here is **off by default** (``MQAConfig.resilience = False``);
the disabled manager forwards calls with a single attribute check so the
serving hot path is unchanged.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    InjectedFaultError,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import trace_span
from repro.utils.rng import derive_rng

__all__ = [
    "FaultSpec",
    "FaultInjector",
    "Deadline",
    "RetryPolicy",
    "BreakerState",
    "CircuitBreaker",
    "ResilienceManager",
]


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultSpec:
    """What the injector may do at one call site.

    Attributes:
        error_rate: Probability of raising :class:`InjectedFaultError`.
        latency_ms: Extra latency added when a latency spike fires.
        latency_rate: Probability of a latency spike.
        max_faults: Cap on raised errors (None = unlimited); lets a chaos
            scenario model a component that recovers after N failures.
    """

    error_rate: float = 0.0
    latency_ms: float = 0.0
    latency_rate: float = 0.0
    max_faults: Optional[int] = None

    def validate(self, site: str) -> None:
        """Raise :class:`ConfigurationError` on out-of-range fields."""
        if not 0.0 <= self.error_rate <= 1.0:
            raise ConfigurationError(
                f"fault site {site!r}: error_rate must be in [0, 1], "
                f"got {self.error_rate}"
            )
        if not 0.0 <= self.latency_rate <= 1.0:
            raise ConfigurationError(
                f"fault site {site!r}: latency_rate must be in [0, 1], "
                f"got {self.latency_rate}"
            )
        if self.latency_ms < 0:
            raise ConfigurationError(
                f"fault site {site!r}: latency_ms must be >= 0, "
                f"got {self.latency_ms}"
            )
        if self.max_faults is not None and self.max_faults < 0:
            raise ConfigurationError(
                f"fault site {site!r}: max_faults must be >= 0, "
                f"got {self.max_faults}"
            )


class FaultInjector:
    """Seeded, per-site fault schedule.

    A spec configured for ``"encoder"`` matches every ``encoder.*`` site;
    an exact site name takes precedence over its prefix.  Every
    :meth:`fire` consumes exactly two uniform draws from the matched
    spec's stream (latency, then error) regardless of the spec's rates,
    so enabling one kind of fault never reshuffles the other.
    """

    def __init__(
        self,
        seed: int = 0,
        specs: Optional[Dict[str, Dict[str, Any]]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.seed = int(seed)
        self._sleep = sleep
        self._lock = threading.Lock()
        self._specs: Dict[str, FaultSpec] = {}
        self._rngs: Dict[str, Any] = {}
        self._error_budget: Dict[str, int] = {}
        self.errors: Dict[str, int] = {}
        self.delays: Dict[str, int] = {}
        for site, spec in (specs or {}).items():
            self.configure(site, **dict(spec))

    def configure(self, site: str, **spec_kwargs: Any) -> None:
        """Register (or replace) the fault spec for one site/prefix."""
        unknown = set(spec_kwargs) - {
            "error_rate",
            "latency_ms",
            "latency_rate",
            "max_faults",
        }
        if unknown:
            raise ConfigurationError(
                f"fault site {site!r}: unknown spec keys: "
                f"{', '.join(sorted(unknown))}"
            )
        spec = FaultSpec(**spec_kwargs)
        spec.validate(site)
        with self._lock:
            self._specs[site] = spec
            self._rngs[site] = derive_rng(self.seed, "fault", site)
            self._error_budget[site] = (
                -1 if spec.max_faults is None else spec.max_faults
            )

    def _match(self, site: str) -> Optional[str]:
        if site in self._specs:
            return site
        prefix = site.split(".", 1)[0]
        if prefix != site and prefix in self._specs:
            return prefix
        return None

    def fire(self, site: str) -> None:
        """Maybe delay, maybe raise, according to the site's schedule."""
        key = self._match(site)
        if key is None:
            return
        with self._lock:
            spec = self._specs[key]
            rng = self._rngs[key]
            spike = rng.random() < spec.latency_rate
            fail = rng.random() < spec.error_rate
            if fail and self._error_budget[key] == 0:
                fail = False
            if fail and self._error_budget[key] > 0:
                self._error_budget[key] -= 1
            if spike:
                self.delays[site] = self.delays.get(site, 0) + 1
            if fail:
                self.errors[site] = self.errors.get(site, 0) + 1
        if spike and spec.latency_ms > 0:
            self._sleep(spec.latency_ms / 1000.0)
        if fail:
            raise InjectedFaultError(site)

    def snapshot(self) -> Dict[str, Any]:
        """Counters for ``/health`` and chaos-test bookkeeping."""
        with self._lock:
            return {
                "seed": self.seed,
                "sites": sorted(self._specs),
                "errors": dict(self.errors),
                "delays": dict(self.delays),
            }


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
class Deadline:
    """A monotonic per-request latency budget."""

    __slots__ = ("budget_ms", "_start", "_clock")

    def __init__(
        self, budget_ms: float, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if budget_ms <= 0:
            raise ConfigurationError(
                f"deadline budget must be positive, got {budget_ms}"
            )
        self.budget_ms = float(budget_ms)
        self._clock = clock
        self._start = clock()

    @property
    def elapsed_ms(self) -> float:
        return (self._clock() - self._start) * 1000.0

    @property
    def remaining_ms(self) -> float:
        return self.budget_ms - self.elapsed_ms

    @property
    def expired(self) -> bool:
        return self.remaining_ms <= 0.0

    def check(self, label: str = "request") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        if self.expired:
            raise DeadlineExceededError(
                f"{label}: deadline of {self.budget_ms:.0f} ms exceeded "
                f"({self.elapsed_ms:.1f} ms elapsed)"
            )


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff.

    ``attempts`` is the total number of tries (1 = no retries).  The
    backoff before retry *n* is ``backoff_ms * multiplier**(n-1)``,
    capped at ``max_backoff_ms`` — and never slept if it would overrun
    the request deadline.
    """

    attempts: int = 1
    backoff_ms: float = 10.0
    multiplier: float = 2.0
    max_backoff_ms: float = 1000.0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on out-of-range fields."""
        if self.attempts < 1:
            raise ConfigurationError(
                f"retry attempts must be >= 1, got {self.attempts}"
            )
        if self.backoff_ms < 0:
            raise ConfigurationError(
                f"retry backoff_ms must be >= 0, got {self.backoff_ms}"
            )
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"retry multiplier must be >= 1, got {self.multiplier}"
            )
        if self.max_backoff_ms < self.backoff_ms:
            raise ConfigurationError(
                "retry max_backoff_ms must be >= backoff_ms, "
                f"got {self.max_backoff_ms} < {self.backoff_ms}"
            )

    def backoff_for(self, retry_index: int) -> float:
        """Backoff in ms before the ``retry_index``-th retry (1-based)."""
        return min(
            self.backoff_ms * (self.multiplier ** (retry_index - 1)),
            self.max_backoff_ms,
        )


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
class BreakerState(str, enum.Enum):
    """The three circuit-breaker states (string-valued for JSON export)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-site closed → open → half-open breaker.

    * **closed**: calls pass; ``threshold`` consecutive failures open it.
    * **open**: calls are rejected until ``reset_ms`` has elapsed, then
      the breaker moves to half-open.
    * **half-open**: up to ``half_open_probes`` trial calls pass; all
      succeeding closes the breaker, any failure re-opens it.

    The clock is injectable so tests drive the state machine without
    real waiting.  All methods are thread-safe.
    """

    def __init__(
        self,
        site: str,
        threshold: int = 5,
        reset_ms: float = 1000.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ConfigurationError(
                f"breaker threshold must be >= 1, got {threshold}"
            )
        if reset_ms <= 0:
            raise ConfigurationError(
                f"breaker reset_ms must be positive, got {reset_ms}"
            )
        if half_open_probes < 1:
            raise ConfigurationError(
                f"breaker half_open_probes must be >= 1, got {half_open_probes}"
            )
        self.site = site
        self.threshold = threshold
        self.reset_ms = float(reset_ms)
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_left = 0
        self._probe_successes = 0
        self.transitions = 0
        self.times_opened = 0

    def _transition(self, state: BreakerState) -> None:
        # Callers hold self._lock.
        if state is not self._state:
            self._state = state
            self.transitions += 1
            if state is BreakerState.OPEN:
                self.times_opened += 1
                self._opened_at = self._clock()

    @property
    def state(self) -> BreakerState:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        if (
            self._state is BreakerState.OPEN
            and (self._clock() - self._opened_at) * 1000.0 >= self.reset_ms
        ):
            self._transition(BreakerState.HALF_OPEN)
            self._probes_left = self.half_open_probes
            self._probe_successes = 0

    def allow(self) -> bool:
        """May a call proceed right now?  Consumes a probe in half-open."""
        with self._lock:
            self._maybe_half_open()
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.HALF_OPEN and self._probes_left > 0:
                self._probes_left -= 1
                return True
            return False

    def record_success(self) -> None:
        """Record a success: resets the streak, or closes from half-open."""
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= self.half_open_probes:
                    self._transition(BreakerState.CLOSED)
                    self._consecutive_failures = 0
            else:
                self._consecutive_failures = 0

    def record_failure(self) -> bool:
        """Record a failure; returns True when the breaker is now open."""
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._transition(BreakerState.OPEN)
                return True
            self._consecutive_failures += 1
            if (
                self._state is BreakerState.CLOSED
                and self._consecutive_failures >= self.threshold
            ):
                self._transition(BreakerState.OPEN)
            return self._state is BreakerState.OPEN

    def snapshot(self) -> Dict[str, Any]:
        """State + counters for ``/health`` (advances open → half-open)."""
        with self._lock:
            self._maybe_half_open()
            return {
                "state": self._state.value,
                "consecutive_failures": self._consecutive_failures,
                "transitions": self.transitions,
                "times_opened": self.times_opened,
            }


# ----------------------------------------------------------------------
# the facade
# ----------------------------------------------------------------------
@dataclass
class _SiteCounters:
    calls: int = 0
    failures: int = 0
    retries: int = 0
    deadline_exceeded: int = 0
    short_circuited: int = 0


class ResilienceManager:
    """Applies injection + breaker + retry + deadline at call boundaries.

    When ``enabled`` is False, :meth:`call` forwards directly to ``fn``
    and :meth:`deadline` returns None — the guarded code paths collapse
    to the exact pre-resilience behaviour.
    """

    def __init__(
        self,
        enabled: bool = False,
        retry: Optional[RetryPolicy] = None,
        default_deadline_ms: Optional[float] = None,
        breaker_threshold: int = 5,
        breaker_reset_ms: float = 1000.0,
        breaker_half_open_probes: int = 1,
        injector: Optional[FaultInjector] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.enabled = bool(enabled)
        self.retry = retry or RetryPolicy()
        self.retry.validate()
        self.default_deadline_ms = default_deadline_ms
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_ms = breaker_reset_ms
        self.breaker_half_open_probes = breaker_half_open_probes
        self.injector = injector
        self.metrics = metrics or MetricsRegistry()
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._counters: Dict[str, _SiteCounters] = {}
        self._fallbacks: Dict[str, int] = {}

    @classmethod
    def from_config(
        cls,
        config: Any,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> "ResilienceManager":
        """Build the manager the coordinator owns from an ``MQAConfig``."""
        injector = None
        if config.resilience and config.faults:
            injector = FaultInjector(
                seed=config.fault_seed, specs=config.faults, sleep=sleep
            )
        return cls(
            enabled=config.resilience,
            retry=RetryPolicy(
                attempts=config.retry_attempts, backoff_ms=config.retry_backoff_ms
            ),
            default_deadline_ms=config.deadline_ms,
            breaker_threshold=config.breaker_threshold,
            breaker_reset_ms=config.breaker_reset_ms,
            injector=injector,
            metrics=metrics,
            clock=clock,
            sleep=sleep,
        )

    # -- bookkeeping ---------------------------------------------------
    def _site(self, site: str) -> _SiteCounters:
        # Callers hold self._lock.
        counters = self._counters.get(site)
        if counters is None:
            counters = self._counters[site] = _SiteCounters()
        return counters

    def breaker(self, site: str) -> CircuitBreaker:
        """The (lazily created) breaker guarding ``site``."""
        with self._lock:
            breaker = self._breakers.get(site)
            if breaker is None:
                breaker = self._breakers[site] = CircuitBreaker(
                    site,
                    threshold=self.breaker_threshold,
                    reset_ms=self.breaker_reset_ms,
                    half_open_probes=self.breaker_half_open_probes,
                    clock=self._clock,
                )
            return breaker

    def record_fallback(self, kind: str) -> None:
        """Count one graceful-degradation event (e.g. ``llm_fallback``)."""
        with self._lock:
            self._fallbacks[kind] = self._fallbacks.get(kind, 0) + 1
        self.metrics.inc("resilience.fallbacks")
        self.metrics.inc(f"resilience.fallback.{kind}")

    def deadline(self, override_ms: Optional[float] = None) -> Optional[Deadline]:
        """A fresh request deadline, or None when disabled / unbudgeted."""
        if not self.enabled:
            return None
        budget = override_ms if override_ms is not None else self.default_deadline_ms
        if budget is None:
            return None
        return Deadline(budget, clock=self._clock)

    # -- the guarded call ----------------------------------------------
    def call(
        self,
        site: str,
        fn: Callable[[], Any],
        deadline: Optional[Deadline] = None,
        retryable: bool = True,
    ) -> Any:
        """Run ``fn`` under injection, breaker, retry, and deadline.

        Non-retryable sites (mutations) get exactly one attempt.  A
        nested :class:`DeadlineExceededError` is never retried — the
        budget that failed one attempt cannot fund another.
        """
        if not self.enabled:
            return fn()
        breaker = self.breaker(site)
        if not breaker.allow():
            with self._lock:
                self._site(site).short_circuited += 1
            self.metrics.inc("resilience.short_circuits")
            raise CircuitOpenError(site)
        attempts = self.retry.attempts if retryable else 1
        with self._lock:
            self._site(site).calls += 1
        self.metrics.inc("resilience.calls")
        with trace_span("guard", site=site) as span:
            for attempt in range(1, attempts + 1):
                if deadline is not None and deadline.expired:
                    with self._lock:
                        self._site(site).deadline_exceeded += 1
                    self.metrics.inc("resilience.deadline_exceeded")
                    span.set(outcome="deadline", attempts=attempt)
                    raise DeadlineExceededError(
                        f"{site}: deadline of {deadline.budget_ms:.0f} ms "
                        f"exceeded before attempt {attempt}"
                    )
                try:
                    if self.injector is not None:
                        self.injector.fire(site)
                    result = fn()
                except DeadlineExceededError:
                    with self._lock:
                        self._site(site).deadline_exceeded += 1
                    self.metrics.inc("resilience.deadline_exceeded")
                    span.set(outcome="deadline", attempts=attempt)
                    raise
                except Exception as exc:
                    with self._lock:
                        self._site(site).failures += 1
                    self.metrics.inc("resilience.failures")
                    if isinstance(exc, InjectedFaultError):
                        self.metrics.inc("resilience.injected_faults")
                    now_open = breaker.record_failure()
                    if now_open:
                        self.metrics.inc("resilience.breaker_opens")
                    if attempt >= attempts or now_open:
                        span.set(outcome="failed", attempts=attempt)
                        raise
                    backoff_ms = self.retry.backoff_for(attempt)
                    if (
                        deadline is not None
                        and deadline.remaining_ms <= backoff_ms
                    ):
                        # No budget to wait out the backoff: surface the
                        # real failure rather than a late deadline error.
                        span.set(outcome="failed", attempts=attempt)
                        raise
                    with self._lock:
                        self._site(site).retries += 1
                    self.metrics.inc("resilience.retries")
                    if backoff_ms > 0:
                        self._sleep(backoff_ms / 1000.0)
                else:
                    breaker.record_success()
                    span.set(outcome="ok", attempts=attempt)
                    return result
        raise AssertionError("unreachable")  # pragma: no cover

    # -- reporting -----------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The ``resilience`` section of ``GET /health``."""
        with self._lock:
            sites = {
                site: {
                    "calls": c.calls,
                    "failures": c.failures,
                    "retries": c.retries,
                    "deadline_exceeded": c.deadline_exceeded,
                    "short_circuited": c.short_circuited,
                }
                for site, c in sorted(self._counters.items())
            }
            fallbacks = dict(self._fallbacks)
            breakers = {
                site: breaker.snapshot()
                for site, breaker in sorted(self._breakers.items())
            }
        totals = {
            key: sum(site[key] for site in sites.values())
            for key in (
                "calls",
                "failures",
                "retries",
                "deadline_exceeded",
                "short_circuited",
            )
        }
        snap: Dict[str, Any] = {
            "enabled": self.enabled,
            "deadline_ms": self.default_deadline_ms,
            "retry": {
                "attempts": self.retry.attempts,
                "backoff_ms": self.retry.backoff_ms,
                "multiplier": self.retry.multiplier,
                "max_backoff_ms": self.retry.max_backoff_ms,
            },
            "totals": totals,
            "sites": sites,
            "fallbacks": fallbacks,
            "breakers": breakers,
            "breaker_transitions": sum(
                b["transitions"] for b in breakers.values()
            ),
        }
        if self.injector is not None:
            snap["injected"] = self.injector.snapshot()
        return snap


#: Shared no-op manager for code paths built without a config.
DISABLED = ResilienceManager(enabled=False)
