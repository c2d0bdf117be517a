"""Unit interleavings for :class:`RWLock` and the bounded :class:`QueryEngine`."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.concurrency import (
    READ,
    WRITE,
    EngineSaturatedError,
    QueryEngine,
    RWLock,
)

from tests.concurrency.harness import eventually, spawn


def _read_once(lock: RWLock) -> None:
    lock.acquire_read()
    lock.release_read()


def _write_once(lock: RWLock) -> None:
    lock.acquire_write()
    lock.release_write()


def test_parallel_readers_share_the_lock():
    lock = RWLock()
    lock.acquire_read()
    try:
        other = spawn(lambda: _read_once(lock), name="reader-2")
        assert other.join_within(1.0), "second reader blocked behind the first"
    finally:
        lock.release_read()


def test_writer_excludes_readers_and_writers():
    lock = RWLock()
    lock.acquire_write()
    reader = spawn(lambda: _read_once(lock), name="reader")
    writer = spawn(lambda: _write_once(lock), name="writer-2")
    assert not reader.join_within(0.15), "reader entered alongside a writer"
    assert not writer.join_within(0.05), "two writers held the lock at once"
    lock.release_write()
    reader.join()
    writer.join()
    assert lock.snapshot() == {
        "active_readers": 0, "writer_active": 0, "waiting_writers": 0,
    }


def test_waiting_writer_blocks_new_readers():
    """Writer preference: a queued writer starves no matter how many reads."""
    lock = RWLock()
    lock.acquire_read()
    writer = spawn(lambda: _write_once(lock), name="writer")
    assert eventually(lambda: lock.snapshot()["waiting_writers"] == 1)
    late_reader = spawn(lambda: _read_once(lock), name="late-reader")
    assert not late_reader.join_within(0.15), "new reader jumped the queued writer"
    lock.release_read()
    writer.join()
    late_reader.join()


def test_engine_rejects_when_workers_and_queue_full():
    release = threading.Event()
    with QueryEngine(workers=2, max_queue=1) as engine:
        held = [
            spawn(lambda: engine.submit(lambda: release.wait(5)), f"held-{i}")
            for i in range(3)
        ]
        assert eventually(
            lambda: (engine.snapshot()["in_flight"], engine.queue_depth) == (2, 1)
        )
        with pytest.raises(EngineSaturatedError):
            engine.submit(lambda: None)
        assert engine.snapshot()["rejected"] == 1
        release.set()
        assert all(handle.join(timeout=5) for handle in held)
        snapshot = engine.snapshot()
        assert snapshot["completed"] == 3
        assert snapshot["errors"] == 0


def test_inline_engine_runs_on_calling_thread():
    with QueryEngine(workers=1) as engine:
        assert engine.snapshot()["inline"] is True
        ident = engine.submit(lambda: threading.get_ident())
        assert ident == threading.get_ident()
        assert engine.snapshot()["completed"] == 1


def test_engine_write_mode_is_exclusive():
    entered = threading.Event()
    hold = threading.Event()

    def writer() -> str:
        entered.set()
        hold.wait(5)
        return "write"

    with QueryEngine(workers=2, max_queue=4) as engine:
        write = spawn(lambda: engine.submit(writer, mode=WRITE), "writer")
        assert entered.wait(2)
        read = spawn(lambda: engine.submit(lambda: "read", mode=READ), "reader")
        assert not read.join_within(0.15), "read ran alongside an active write"
        hold.set()
        assert write.join(timeout=5) == "write"
        assert read.join(timeout=5) == "read"
        snapshot = engine.snapshot()
        assert snapshot["reads"] == 1
        assert snapshot["writes"] == 1


def test_engine_serialises_same_session_but_not_different_sessions():
    first_entered = threading.Event()
    hold = threading.Event()

    def blocked() -> str:
        first_entered.set()
        hold.wait(5)
        return "first"

    with QueryEngine(workers=3, max_queue=4) as engine:
        first = spawn(lambda: engine.submit(blocked, session_key=7), "first")
        assert first_entered.wait(2)
        same = spawn(lambda: engine.submit(lambda: "same", session_key=7), "same")
        other = spawn(lambda: engine.submit(lambda: "other", session_key=8), "other")
        assert other.join(timeout=5) == "other", "different session was blocked"
        assert not same.join_within(0.15), "same-session task ran alongside its sibling"
        hold.set()
        assert first.join(timeout=5) == "first"
        assert same.join(timeout=5) == "same"
        assert engine.snapshot()["sessions_tracked"] == 2


def test_resize_lets_a_waiting_task_run_and_keeps_the_locks():
    """Widening admits the task waiting for a place at once; the RW lock and
    the session locks are the same objects before and after."""
    hold = threading.Event()
    with QueryEngine(workers=1, max_queue=4) as engine:
        rwlock, session_lock = engine.rwlock, engine.session_lock(7)
        first = spawn(lambda: engine.submit(lambda: hold.wait(5)), "first")
        assert eventually(lambda: engine.snapshot()["in_flight"] == 1)
        second = spawn(lambda: engine.submit(lambda: "second"), "second")
        assert eventually(lambda: engine.queue_depth == 1)
        assert not second.join_within(0.15), "a second task ran at width 1"
        engine.resize(2)
        assert second.join(timeout=5) == "second"
        assert not first.done()
        hold.set()
        assert first.join(timeout=5) is True
        assert engine.rwlock is rwlock
        assert engine.session_lock(7) is session_lock
        assert engine.snapshot()["workers"] == 2
        with pytest.raises(ValueError):
            engine.resize(0)


def test_at_most_workers_tasks_run_at_once():
    """Eight callers, a width of three, a tiny switch interval: the engine
    never lets a fourth task in, and every count balances afterwards."""
    lock = threading.Lock()
    running, peak = [0], [0]

    def task() -> None:
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        time.sleep(0)
        with lock:
            running[0] -= 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with QueryEngine(workers=3, max_queue=8) as engine:
            callers = [
                spawn(lambda: [engine.submit(task) for _ in range(25)], f"caller-{i}")
                for i in range(8)
            ]
            for caller in callers:
                caller.join(timeout=30)
            snapshot = engine.snapshot()
    finally:
        sys.setswitchinterval(interval)
    assert peak[0] <= 3
    assert snapshot["completed"] == 200 and snapshot["rejected"] == 0
    assert (snapshot["in_flight"], snapshot["queued"]) == (0, 0)


def test_engine_counts_task_errors():
    def boom() -> None:
        raise ValueError("task exploded")

    with QueryEngine(workers=1) as engine:
        with pytest.raises(ValueError, match="task exploded"):
            engine.submit(boom)
        snapshot = engine.snapshot()
        assert snapshot["errors"] == 1
        assert snapshot["completed"] == 1


def test_engine_rejects_after_shutdown():
    engine = QueryEngine(workers=2)
    engine.shutdown()
    with pytest.raises(EngineSaturatedError):
        engine.submit(lambda: None)
