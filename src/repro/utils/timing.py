"""A tiny wall-clock timer used by the status panel and the benchmarks, and
the bound on a simulated wait."""

from __future__ import annotations

import time

#: The longest simulated wait a parameter may ask for (one hour); past it
#: ``time.sleep`` overflows on a finite value such as ``1e300``.
MAX_SLEEP_MS = 3_600_000


class Timer:
    """Context manager measuring elapsed wall-clock seconds.

    >>> with Timer() as t:
    ...     sum(range(10))
    45
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = time.perf_counter() - self._start

    def start(self) -> None:
        """Start (or restart) the timer outside a ``with`` block."""
        self._start = time.perf_counter()

    def stop(self) -> float:
        """Stop the timer and return the elapsed seconds."""
        self.elapsed = time.perf_counter() - self._start
        return self.elapsed
