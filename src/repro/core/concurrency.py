"""Concurrent query serving: the read/write lock and the query engine.

The paper's demo is an interactive multi-user system, and the roadmap's
north star is production-scale serving — which means a second request must
be able to arrive while the first is still running.  Two primitives make
that safe:

* :class:`RWLock` — a writer-preference read/write lock.  Searches are
  pure reads over the index structures, so any number may proceed in
  parallel; ingestion, removal, and re-apply mutate the graph and take the
  lock exclusively.  Writer preference keeps a stream of cheap reads from
  starving a pending ingest.
* :class:`QueryEngine` — a bounded dispatcher.  Every API verb flows
  through it on the thread that submitted it: reads run concurrently under
  the shared read lock up to ``workers`` at a time, writes run
  exclusively, and dialogue verbs on the same session serialise on a
  per-session lock so multi-round state (history, selections, rejections)
  never interleaves.  The queue is bounded: when ``workers`` tasks are
  running and ``max_queue`` more are waiting, further submissions fail
  fast with :class:`EngineSaturatedError` — backpressure instead of an
  unbounded memory ramp.

The engine owns no thread: every caller blocks on its own verb, so a pool
thread would only add a hand-off (and, for a set-up run on it, a second
malloc arena's worth of resident memory).  ``workers`` caps how many
callers run at once; ``workers == 1`` is the historical single-threaded
server, still safe if callers share it across threads.

Lock ordering, everywhere: session lock → engine RW lock → coordinator RW
lock.  All three levels are acquired in that order only (and each at most
once per task), so the system is deadlock-free by construction.  The
engine's stats lock and the server's session-table lock are leaves: the
stats lock consults the table (``live_session``) under it, the table never
calls out under its own.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional

from repro.errors import DeadlineExceededError, MQAError
from repro.observability.metrics import Window

#: Task modes accepted by :meth:`QueryEngine.submit`.
READ = "read"
WRITE = "write"


class EngineSaturatedError(MQAError):
    """The engine's bounded queue is full; the request was rejected."""


class RWLock:
    """A writer-preference readers/writer lock.

    Any number of readers may hold the lock together; a writer holds it
    alone.  A waiting writer blocks *new* readers (preference), so writes
    cannot starve under a steady read stream.  Non-reentrant: a thread
    must not re-acquire in either mode while already holding it.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._waiting_writers = 0

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def acquire_read(self) -> None:
        """Block until no writer holds or awaits the lock, then enter."""
        with self._cond:
            while self._writer or self._waiting_writers:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        """Leave the shared section; wakes writers when the last reader exits."""
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------
    def acquire_write(self) -> None:
        """Block until all readers have drained, then enter exclusively."""
        with self._cond:
            self._waiting_writers += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._waiting_writers -= 1
            self._writer = True

    def release_write(self) -> None:
        """Leave the exclusive section and wake all waiters."""
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # context managers
    # ------------------------------------------------------------------
    class _Guard:
        __slots__ = ("_acquire", "_release")

        def __init__(self, acquire: Callable[[], None], release: Callable[[], None]) -> None:
            self._acquire = acquire
            self._release = release

        def __enter__(self) -> None:
            self._acquire()

        def __exit__(self, *exc_info: object) -> bool:
            self._release()
            return False

    def read(self) -> "RWLock._Guard":
        """``with lock.read():`` — shared acquisition."""
        return RWLock._Guard(self.acquire_read, self.release_read)

    def write(self) -> "RWLock._Guard":
        """``with lock.write():`` — exclusive acquisition."""
        return RWLock._Guard(self.acquire_write, self.release_write)

    def snapshot(self) -> Dict[str, int]:
        """Introspection for tests and ``/health``."""
        with self._cond:
            return {
                "active_readers": self._readers,
                "writer_active": int(self._writer),
                "waiting_writers": self._waiting_writers,
            }


class _BatchSlot:
    """One submitter's parking spot while the batcher coalesces requests."""

    __slots__ = ("item", "done", "result", "error")

    def __init__(self, item: Any) -> None:
        self.item = item
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None


class MicroBatcher:
    """Coalesces concurrent single-item calls into one batched call.

    Concurrent searches arriving within ``window_ms`` of each other are
    collected (up to ``max_batch``) and handed to ``runner`` as one list;
    each submitter receives exactly its own element of the runner's result
    list.  The batched execution path is bit-identical to the serial one,
    so coalescing changes throughput, never results.

    Leadership rotates: the first submitter to find no active collector
    becomes the leader, waits out the window (or until the batch fills),
    takes the oldest ``max_batch`` pending slots, and executes the runner
    *outside* the internal lock so the next leader can start collecting
    while the batch runs.  A leader whose own slot was swept into an
    earlier batch simply leads on behalf of the remaining waiters.

    With ``max_batch <= 1`` submissions run inline immediately — no
    waiting, no condition variable — preserving the exact pre-batching
    serving behaviour.

    Args:
        runner: Takes the batched items, returns one result per item
            (``len(results) == len(items)``, positionally matched).
        max_batch: Largest batch handed to ``runner``.
        window_ms: How long a leader waits for the batch to fill.
        clock: Injectable time source (monotonic seconds).
    """

    def __init__(
        self,
        runner: Callable[[List[Any]], List[Any]],
        max_batch: int = 1,
        window_ms: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if window_ms < 0:
            raise ValueError(f"window_ms must be >= 0, got {window_ms}")
        self._runner = runner
        self.max_batch = max_batch
        self.window_ms = window_ms
        self._clock = clock
        self._cond = threading.Condition()
        self._pending: List[_BatchSlot] = []
        self._leader_active = False
        self._histogram: Dict[int, int] = {}
        self._flushes: Dict[str, int] = {
            "full": 0, "window": 0, "inline": 0, "explicit": 0,
        }
        self._batches = 0
        self._items = 0

    @property
    def enabled(self) -> bool:
        """True when coalescing can actually happen (``max_batch > 1``)."""
        return self.max_batch > 1

    def submit(self, item: Any) -> Any:
        """Run ``item`` through the runner, possibly batched with others.

        Blocks until the item's result is available; re-raises the runner's
        exception if its batch failed.
        """
        if self.max_batch <= 1:
            result = self._runner([item])[0]
            with self._cond:
                self._record(1, "inline")
            return result
        slot = _BatchSlot(item)
        with self._cond:
            self._pending.append(slot)
            self._cond.notify_all()
            while not slot.done:
                if not self._leader_active and self._pending:
                    self._lead()
                else:
                    self._cond.wait(0.05)
        if slot.error is not None:
            raise slot.error
        return slot.result

    def _lead(self) -> None:
        """Collect and execute one batch.  Caller holds the lock."""
        self._leader_active = True
        deadline = self._clock() + self.window_ms / 1000.0
        while len(self._pending) < self.max_batch:
            remaining = deadline - self._clock()
            if remaining <= 0:
                break
            self._cond.wait(remaining)
        batch = self._pending[: self.max_batch]
        del self._pending[: self.max_batch]
        reason = "full" if len(batch) >= self.max_batch else "window"
        self._record(len(batch), reason)
        # Hand leadership back before running so the next batch can start
        # collecting while this one executes (batches pipeline under the
        # coordinator's shared read lock).
        self._leader_active = False
        self._cond.notify_all()
        self._cond.release()
        try:
            results = None
            error: Optional[BaseException] = None
            try:
                results = self._runner([slot.item for slot in batch])
                if len(results) != len(batch):
                    raise RuntimeError(
                        f"micro-batch runner returned {len(results)} results "
                        f"for {len(batch)} items"
                    )
            except BaseException as exc:  # noqa: BLE001 - mirrored to waiters
                error = exc
        finally:
            self._cond.acquire()
        for position, slot in enumerate(batch):
            if error is not None:
                slot.error = error
            else:
                slot.result = results[position]
            slot.done = True
        self._cond.notify_all()

    def note(self, size: int, reason: str = "explicit") -> None:
        """Record an externally-executed batch (e.g. an explicit list
        request that bypassed the collector) in the statistics."""
        with self._cond:
            self._record(size, reason)

    def _record(self, size: int, reason: str) -> None:
        self._histogram[size] = self._histogram.get(size, 0) + 1
        self._flushes[reason] = self._flushes.get(reason, 0) + 1
        self._batches += 1
        self._items += size

    def snapshot(self) -> Dict[str, Any]:
        """Batch-size histogram and flush reasons for ``GET /health``."""
        with self._cond:
            return {
                "enabled": self.enabled,
                "max_batch": self.max_batch,
                "window_ms": self.window_ms,
                "batches": self._batches,
                "queries": self._items,
                "histogram": {
                    str(size): count
                    for size, count in sorted(self._histogram.items())
                },
                "flushes": dict(self._flushes),
            }


class QueryEngine:
    """Bounded dispatcher for API verbs; a task runs on its caller's thread.

    Args:
        workers: Maximum tasks running at once; :meth:`resize` changes it
            in place.  ``1`` (the default) is the historical serial server.
        max_queue: Tasks allowed to *wait* beyond the running ones before
            :meth:`submit` rejects with :class:`EngineSaturatedError`.
        clock: Time source for queue-wait measurement (injectable).
        live_session: When given, only keys it accepts get a session
            lock; a task for any other key runs without one (the server's
            handler refuses it).  The server passes its session table's
            membership test, so the lock table never outgrows the live
            sessions.  Called under the engine's stats lock.

    Reads run under the shared :attr:`rwlock` read side, writes under its
    write side.  A task submitted with a ``session_key`` additionally
    holds that session's lock for its whole duration, serialising dialogue
    rounds per session while different sessions proceed in parallel.
    """

    def __init__(
        self,
        workers: int = 1,
        max_queue: int = 64,
        clock: Callable[[], float] = time.perf_counter,
        live_session: Optional[Callable[[Hashable], bool]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.workers = workers
        self.max_queue = max_queue
        self.rwlock = RWLock()
        self._clock = clock
        self._session_locks: Dict[Hashable, threading.Lock] = {}
        self._live_session = live_session
        self._stats_lock = threading.Lock()
        # Waited on (under the stats lock) for one of the ``workers``
        # running places; notified whenever one frees up or the width grows.
        self._place_free = threading.Condition(self._stats_lock)
        self._queued = 0
        self._in_flight = 0
        self._completed = 0
        self._rejected = 0
        self._shed = 0
        self._errors = 0
        self._reads = 0
        self._writes = 0
        self._waits_ms = Window(1024)
        self._closed = False
        #: Optional ``wait_ms -> None`` callback invoked as each task
        #: starts (outside the stats lock) — the admission controller's
        #: queue-delay EWMA feed.
        self.wait_observer: Optional[Callable[[float], None]] = None

    # ------------------------------------------------------------------
    # session locks
    # ------------------------------------------------------------------
    def session_lock(self, key: Hashable) -> Optional[threading.Lock]:
        """The (lazily created) lock serialising one session's verbs;
        None for a key ``live_session`` refuses."""
        with self._stats_lock:
            lock = self._session_locks.get(key)
            if lock is None and (
                self._live_session is None or self._live_session(key)
            ):
                lock = self._session_locks[key] = threading.Lock()
            return lock

    def drop_sessions(self, keys: Iterable[Hashable]) -> None:
        """Forget the locks of closed sessions.  A task already holding
        one keeps it; a later task for a closed key gets no lock, since
        ``live_session`` refuses it."""
        with self._stats_lock:
            for key in keys:
                self._session_locks.pop(key, None)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def resize(self, workers: int) -> None:
        """Let ``workers`` tasks run at once from now on.  The RW lock and
        the session locks carry over, so a task admitted before the change
        still excludes every task admitted after it."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        with self._place_free:
            self.workers = workers
            self._place_free.notify_all()

    def submit(
        self,
        fn: Callable[[], Any],
        *,
        mode: str = READ,
        session_key: Optional[Hashable] = None,
        deadline: Optional[Any] = None,
    ) -> Any:
        """Run ``fn`` on the calling thread under the engine's locks and
        return its result (or raise its exception).

        The caller first waits for one of the ``workers`` running places.
        ``deadline`` (a :class:`repro.core.resilience.Deadline`) lets the
        engine shed a request whose latency budget already expired while
        it waited — the task fails with
        :class:`~repro.errors.DeadlineExceededError` instead of running
        work whose caller has given up.

        Raises:
            EngineSaturatedError: ``workers`` tasks are running and
                ``max_queue`` more are waiting (the caller should shed
                load or retry later).
        """
        if mode not in (READ, WRITE):
            raise ValueError(f"mode must be 'read' or 'write', got {mode!r}")
        if self._closed:
            raise EngineSaturatedError("engine has been shut down")
        submitted = self._clock()
        with self._place_free:
            if self._queued + self._in_flight >= self.workers + self.max_queue:
                self._rejected += 1
                raise EngineSaturatedError(
                    f"engine saturated: {self.workers} worker(s) busy and "
                    f"queue of {self.max_queue} full"
                )
            self._queued += 1
            while self._in_flight >= self.workers:
                self._place_free.wait()
            wait_ms = (self._clock() - submitted) * 1000.0
            self._queued -= 1
            self._in_flight += 1
            self._waits_ms.observe(wait_ms)
            if mode == READ:
                self._reads += 1
            else:
                self._writes += 1
        observer = self.wait_observer
        if observer is not None:
            observer(wait_ms)
        session_lock = (
            self.session_lock(session_key) if session_key is not None else None
        )
        try:
            if deadline is not None and deadline.expired:
                with self._stats_lock:
                    self._shed += 1
                raise DeadlineExceededError(
                    f"request deadline of {deadline.budget_ms:.0f} ms expired "
                    f"after {wait_ms:.1f} ms in the engine queue"
                )
            if session_lock is not None:
                session_lock.acquire()
            try:
                guard = self.rwlock.read() if mode == READ else self.rwlock.write()
                with guard:
                    return fn()
            finally:
                if session_lock is not None:
                    session_lock.release()
        except BaseException:
            with self._stats_lock:
                self._errors += 1
            raise
        finally:
            with self._place_free:
                self._in_flight -= 1
                self._completed += 1
                self._place_free.notify()

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Live count of submitted-but-not-yet-running requests.

        Cheap enough to poll per admission decision — admission control
        uses it as a Little's-law wait estimate that, unlike the
        queue-wait EWMA, cannot go stale while arrivals are being shed.
        """
        with self._stats_lock:
            return self._queued

    def snapshot(self) -> Dict[str, Any]:
        """Width and queue statistics for ``GET /health``.  ``inline`` is
        always true: every task runs on the thread that submitted it."""
        with self._stats_lock:
            stats = {
                "workers": self.workers,
                "max_queue": self.max_queue,
                "inline": True,
                "queued": self._queued,
                "in_flight": self._in_flight,
                "completed": self._completed,
                "rejected": self._rejected,
                "shed": self._shed,
                "errors": self._errors,
                "reads": self._reads,
                "writes": self._writes,
                "sessions_tracked": len(self._session_locks),
            }
        stats["queue_wait_ms"] = {
            "p50": round(self._waits_ms.percentile(50), 3),
            "p95": round(self._waits_ms.percentile(95), 3),
            "max": round(self._waits_ms.percentile(100), 3),
        }
        stats["lock"] = self.rwlock.snapshot()
        return stats

    def shutdown(self) -> None:
        """Stop accepting work: a later :meth:`submit` is refused as
        saturated.  Tasks already admitted finish on their own threads."""
        self._closed = True

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.shutdown()
        return False
