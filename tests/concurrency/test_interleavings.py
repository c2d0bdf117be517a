"""Forced interleavings: reads vs writes, per-session serialisation.

Each test drives two threads to a precise collision point with the
:mod:`tests.concurrency.harness` gates, asserts the blocked side is
*provably* blocked (the other side verifiably holds the lock), then
releases and checks the outcome equals the serial one — no torn reads,
no lost updates, identical result ids.
"""

from __future__ import annotations

import time

from repro.core.session import DialogueSession
from repro.data.objects import RawQuery

from tests.concurrency.conftest import make_server, split_vocab
from tests.concurrency.harness import StepScheduler, spawn

#: Generous enough that a scheduler hiccup cannot fake "blocked", short
#: enough to keep the suite quick.  A blocked thread *cannot* finish in
#: this window because the other thread verifiably holds the lock.
BLOCKED_WINDOW_S = 0.2


def test_search_blocks_until_ingest_releases_write_lock(coordinator):
    """A search arriving mid-ingest waits, then sees the serial answer."""
    read_pool, write_pool = split_vocab(coordinator.kb)
    text = " ".join(read_pool[:2])
    baseline = coordinator.handle_query(RawQuery.from_text(text))
    size_before = len(coordinator.kb)

    with StepScheduler() as sched:
        gate = sched.pause_before(
            coordinator.execution.framework, "add_object", "mid-ingest"
        )
        writer = spawn(
            lambda: coordinator.ingest_object(
                write_pool[:2], intensities=[0.35, 0.35]
            ),
            name="ingest",
        )
        gate.wait_arrived()  # parked inside the exclusive write section
        assert coordinator.rwlock.snapshot()["writer_active"] == 1

        reader = spawn(
            lambda: coordinator.handle_query(RawQuery.from_text(text)),
            name="search",
        )
        assert not reader.join_within(BLOCKED_WINDOW_S), (
            "search completed while the ingest held the write lock — torn read"
        )

        gate.release()
        new_id = writer.join()
        answer = reader.join()

    assert new_id == size_before
    assert len(coordinator.kb) == size_before + 1
    assert answer.ids == baseline.ids, "post-ingest search diverged from serial run"
    assert new_id not in answer.ids
    assert coordinator.rwlock.snapshot() == {
        "active_readers": 0, "writer_active": 0, "waiting_writers": 0,
    }


def test_refine_blocks_until_remove_completes(coordinator):
    """A refine arriving mid-remove waits and never surfaces the tombstone."""
    read_pool, _ = split_vocab(coordinator.kb)
    session = DialogueSession(coordinator)
    answer = session.ask(" ".join(read_pool[:2]))
    assert len(answer.items) >= 2
    session.select(0)
    removed_id = answer.items[1].object_id

    with StepScheduler() as sched:
        gate = sched.pause_before(
            coordinator.execution.framework, "remove_object", "mid-remove"
        )
        remover = spawn(lambda: coordinator.remove_object(removed_id), name="remove")
        gate.wait_arrived()
        assert coordinator.rwlock.snapshot()["writer_active"] == 1

        refiner = spawn(lambda: session.refine(read_pool[2]), name="refine")
        assert not refiner.join_within(BLOCKED_WINDOW_S), (
            "refine completed while the remove held the write lock"
        )

        gate.release()
        remover.join()
        refined = refiner.join()

    assert removed_id not in refined.ids, "tombstoned object surfaced in refine"
    assert session.round_count == 2
    assert coordinator.kb.get(removed_id).metadata.get("deleted") is True


def test_concurrent_refines_on_one_session_serialise(server):
    """Two racing refines on one session: one wins round 1, one fails clean.

    Without the per-session lock both refines would read round 0's
    selection and both append "round 1" — a lost update.  Serialised, the
    first produces round 1 and the second observes round 1's missing
    selection and errors exactly as it would in a serial run.
    """
    coordinator = server._coordinator
    read_pool, _ = split_vocab(coordinator.kb)
    assert server.handle(
        "POST", "/query", {"text": " ".join(read_pool[:2]), "session": 0}
    )["ok"]
    assert server.handle("POST", "/select", {"rank": 0, "session": 0})["ok"]

    with StepScheduler() as sched:
        gate = sched.pause_before(coordinator.generation, "generate", "mid-refine")
        first = server.handle_async(
            "POST", "/refine", {"text": read_pool[2], "session": 0}
        )
        gate.wait_arrived()  # first refine parked, holding the session lock
        second = server.handle_async(
            "POST", "/refine", {"text": read_pool[3], "session": 0}
        )
        time.sleep(BLOCKED_WINDOW_S)
        assert not second.done(), (
            "second refine ran while the first held the session lock"
        )
        gate.release()
        first_response = first.result(timeout=10)
        second_response = second.result(timeout=10)

    assert first_response["ok"]
    assert not second_response["ok"]
    assert "select a result" in second_response["error"]
    session = server._sessions[0].session
    assert session.round_count == 2
    assert [r.index for r in session.rounds_snapshot()] == [0, 1]


def test_concurrent_asks_append_distinct_rounds(server):
    """Racing asks on one session serialise into distinct, ordered rounds."""
    read_pool, _ = split_vocab(server._coordinator.kb)
    texts = [read_pool[i] for i in range(4)]
    futures = [
        server.handle_async("POST", "/query", {"text": text, "session": 0})
        for text in texts
    ]
    responses = [future.result(timeout=10) for future in futures]

    assert all(response["ok"] for response in responses), responses
    session = server._sessions[0].session
    rounds = session.rounds_snapshot()
    assert [r.index for r in rounds] == [0, 1, 2, 3], "lost or duplicated round"
    assert sorted(r.user_text for r in rounds) == sorted(texts)


def test_no_lost_updates_in_counters_and_events():
    """Parallel queries across sessions lose no metric/SLO/event updates."""
    queries = 12
    sessions = 4
    srv = make_server(workers=4, monitoring=True)
    try:
        read_pool, _ = split_vocab(srv._coordinator.kb)
        for _ in range(1, sessions):
            assert srv.handle("POST", "/session/new")["ok"]
        futures = [
            srv.handle_async(
                "POST",
                "/query",
                {"text": read_pool[i % len(read_pool)], "session": i % sessions},
            )
            for i in range(queries)
        ]
        responses = [future.result(timeout=30) for future in futures]
        assert all(response["ok"] for response in responses), responses

        metrics = srv.handle("GET", "/metrics")["metrics"]
        assert metrics["queries"] == queries
        assert metrics["latency_ms"]["count"] == queries

        slo = srv._coordinator.slo
        assert slo is not None
        assert slo.snapshot()["total_requests"] == queries
        assert slo.snapshot()["total_errors"] == 0

        retained, total_recorded, dropped = srv._coordinator.events.snapshot()
        assert total_recorded == len(retained) + dropped
        raw_queries = sum(1 for event in retained if event.kind == "raw-query")
        assert raw_queries == queries

        engine = srv.engine.snapshot()
        assert engine["errors"] == 0
        assert engine["rejected"] == 0
        assert engine["in_flight"] == 0
    finally:
        srv.close()
