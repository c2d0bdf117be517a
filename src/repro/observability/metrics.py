"""Counters, streaming latency histograms and the rolling window.

The :class:`MetricsRegistry` aggregates across queries what a single trace
shows for one query: monotonically increasing counters plus bounded-memory
:class:`Histogram` sketches reporting p50/p95/p99.  Histograms use
reservoir sampling (Vitter's Algorithm R) with a deterministically seeded
RNG — memory stays fixed no matter how many observations stream in, and
identical observation sequences always produce identical summaries, so
tests and benchmark artefacts are reproducible.

The registry is where a served event is *counted*: the planner, admission,
agentic, cost-plane and API ledgers keep no counter of their own and read
the names they increment here, so ``/health``, ``/stats``, ``/metrics`` and
the Prometheus exposition cannot disagree about the same traffic.

Two bounded samples answer two questions.  A :class:`Histogram` is a
*reservoir* — uniform over the whole stream, everything served since
set-up.  A :class:`Window` is the *last N* observations — now: an SLO must
recover when latency does, a planner tier must forget a slow start.

Thread safety
-------------
The server no longer guarantees a single request thread, so every *write*
path (``Counter.inc``, ``Histogram.observe``, instrument creation) takes
one :class:`threading.Lock` shared across the whole registry — a single
lock keeps the design simple and the write critical sections are tiny
(a float add, or one reservoir slot swap).  *Read* paths (``value``,
``summary``, ``snapshot``) deliberately take no lock: every read is either
one atomic attribute load or a copy of a small list under the GIL, so the
worst case is a summary computed from a snapshot that is one observation
stale — acceptable for monitoring output, and it keeps the serving hot
path free of reader/writer contention.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional

import numpy as np

from repro.utils import derive_rng


def labelled(name: str, **labels: Any) -> str:
    """Encode a labelled registry key: ``name{k=v,...}``, labels sorted.

    The registry itself is label-agnostic — a labelled instrument is just
    a key with a ``{k=v,...}`` suffix — but the Prometheus exporter
    recognises the encoding and renders every key sharing a base name as
    one metric family with proper label sets.  Values are stringified;
    ``,``/``=``/``}`` inside them would corrupt the encoding and are
    rejected.
    """
    if not labels:
        return name
    parts = []
    for key in sorted(labels):
        value = str(labels[key])
        if any(ch in value for ch in ',=}{'):
            raise ValueError(f"label value {value!r} for {key!r} "
                             "may not contain '{', '}', ',' or '='")
        parts.append(f"{key}={value}")
    return f"{name}{{{','.join(parts)}}}"


def _percentile(sample: List[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``sample`` (0.0 when empty)."""
    if not sample:
        return 0.0
    return float(np.percentile(np.asarray(sample), q))


class Window:
    """The last ``size`` observations: a rolling sample, oldest out first.

    Unlocked — :meth:`observe` is one deque append and the readers copy the
    sample before computing, so the owner's own lock (the SLO monitor's,
    the planner's, the engine's) is the only one a write ever takes.
    """

    __slots__ = ("_sample",)

    def __init__(self, size: int) -> None:
        self._sample: Deque[float] = deque(maxlen=size)

    def observe(self, value: float) -> None:
        """Record one observation, evicting the oldest at capacity."""
        self._sample.append(float(value))

    def __len__(self) -> int:
        return len(self._sample)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the retained sample (0.0 when empty)."""
        sample = list(self._sample)
        return sum(sample) / len(sample) if sample else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) of the retained sample."""
        return _percentile(list(self._sample), q)


class Counter:
    """A monotonically increasing counter.

    Args:
        name: Registry key.
        lock: Lock guarding increments; the owning registry passes its own
            so one lock covers every instrument it created.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: "threading.Lock | None" = None) -> None:
        self.name = name
        self.value = 0.0
        self._lock = lock if lock is not None else threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self.value += amount


class Histogram:
    """Streaming distribution sketch with percentile queries.

    Keeps at most ``reservoir_size`` observations via reservoir sampling;
    below that watermark every observation is retained, so percentiles are
    exact for small samples (the tests pin them against numpy).

    Args:
        name: Registry key (also seeds the replacement RNG, making two
            histograms with the same name and inputs identical).
        reservoir_size: Maximum retained observations.
        lock: Lock guarding ``observe``; shared with the owning registry.
    """

    def __init__(
        self,
        name: str,
        reservoir_size: int = 512,
        lock: "threading.Lock | None" = None,
    ) -> None:
        if reservoir_size < 1:
            raise ValueError(f"reservoir_size must be >= 1, got {reservoir_size}")
        self.name = name
        self.reservoir_size = reservoir_size
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._reservoir: List[float] = []
        self._rng = derive_rng(0, "histogram", name)
        self._lock = lock if lock is not None else threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            if len(self._reservoir) < self.reservoir_size:
                self._reservoir.append(value)
                return
            # Algorithm R: keep each of the n observations with probability
            # reservoir_size / n by replacing a uniformly random slot.
            slot = int(self._rng.integers(0, self.count))
            if slot < self.reservoir_size:
                self._reservoir[slot] = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) over the retained sample."""
        # list() snapshots the reservoir atomically under the GIL; a
        # concurrent observe() costs at most one-observation staleness.
        return _percentile(list(self._reservoir), q)

    def summary(self) -> Dict[str, float]:
        """count / mean / min / max / p50 / p95 / p99, all rounded."""
        return {
            "count": self.count,
            "mean": round(self.mean, 3),
            "min": round(self.min or 0.0, 3),
            "max": round(self.max or 0.0, 3),
            "p50": round(self.percentile(50), 3),
            "p95": round(self.percentile(95), 3),
            "p99": round(self.percentile(99), 3),
        }


class MetricsRegistry:
    """Named counters and histograms, created on first use.

    One registry lives on each coordinator; the tracer feeds it per-stage
    latencies and the API layer feeds it per-verb request timings, so
    ``GET /metrics`` renders one coherent snapshot.  All writes serialise
    on one registry-wide lock (see the module docstring for the
    reader/writer contract).
    """

    def __init__(self, reservoir_size: int = 512) -> None:
        self._reservoir_size = reservoir_size
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created empty on first access)."""
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.get(name)
                if counter is None:
                    counter = self._counters[name] = Counter(name, lock=self._lock)
        return counter

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created empty on first access)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram(
                        name, reservoir_size=self._reservoir_size, lock=self._lock
                    )
        return histogram

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment the counter called ``name``."""
        self.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into the histogram called ``name``."""
        self.histogram(name).observe(value)

    def counter_value(self, name: str) -> float:
        """Current value of ``name`` (0.0 if never incremented)."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0.0

    def count(self, name: str) -> int:
        """``name`` as the whole number of events a ledger reports."""
        return int(self.counter_value(name))

    def counts(self, prefix: str = "") -> Dict[str, int]:
        """:meth:`count` of every counter whose name starts with ``prefix``,
        the prefix stripped from the keys (as :meth:`histogram_summaries`)."""
        return {
            name[len(prefix):]: int(counter.value)
            for name, counter in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def histogram_summaries(self, prefix: str = "") -> Dict[str, Dict[str, float]]:
        """Summaries of histograms whose name starts with ``prefix``.

        The prefix is stripped from the returned keys, so
        ``histogram_summaries("stage_ms.")`` maps stage names directly to
        their latency summaries.
        """
        return {
            name[len(prefix):]: histogram.summary()
            for name, histogram in sorted(self._histograms.items())
            if name.startswith(prefix)
        }

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready view: all counters plus all histogram summaries."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(self._histograms.items())
            },
        }
