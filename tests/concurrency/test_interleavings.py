"""Forced interleavings: reads vs writes, per-session serialisation.

Each test drives two threads to a precise collision point with the
:mod:`tests.concurrency.harness` gates, asserts the blocked side is
*provably* blocked (the other side verifiably holds the lock), then
releases and checks the outcome equals the serial one — no torn reads,
no lost updates, identical result ids.
"""

from __future__ import annotations

import threading

from repro.core.session import DialogueSession
from repro.data.objects import RawQuery
from repro.server import api
from repro.server.api import ApiServer

from tests.concurrency.conftest import make_server, small_config, split_vocab
from tests.concurrency.harness import StepScheduler, eventually, spawn

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
        first = spawn(lambda: server.handle(
            "POST", "/refine", {"text": read_pool[2], "session": 0}
        ), name="first-refine")
        gate.wait_arrived()  # first refine parked, holding the session lock
        second = spawn(lambda: server.handle(
            "POST", "/refine", {"text": read_pool[3], "session": 0}
        ), name="second-refine")
        assert not second.join_within(BLOCKED_WINDOW_S), (
            "second refine ran while the first held the session lock"
        )
        gate.release()
        first_response = first.join()
        second_response = second.join()

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
    askers = [
        spawn(lambda text=text: server.handle(
            "POST", "/query", {"text": text, "session": 0}
        ), name=f"ask-{i}")
        for i, text in enumerate(texts)
    ]
    responses = [asker.join() for asker in askers]

    assert all(response["ok"] for response in responses), responses
    session = server._sessions[0].session
    rounds = session.rounds_snapshot()
    assert [r.index for r in rounds] == [0, 1, 2, 3], "lost or duplicated round"
    assert sorted(r.user_text for r in rounds) == sorted(texts)


def test_a_verb_queued_behind_its_sessions_eviction_replies_unknown(
    server, monkeypatch
):
    """A verb for session X holds X's lock, queued behind the ``/session/new``
    that evicts X: it replies ``unknown session`` and no dialogue changes.

    Ids never come back, so the evicted id cannot name the new session, and
    X's lock leaves the engine's table with X.
    """
    monkeypatch.setattr(api, "MAX_SESSIONS", 3)
    read_pool, _ = split_vocab(server._coordinator.kb)
    opened = [server.handle("POST", "/session/new")["session"] for _ in range(3)]
    for session in (0, *opened):
        assert server.handle(
            "POST", "/query", {"text": read_pool[0], "session": session}
        )["ok"]
    victim = opened[0]  # the least recently used
    victim_lock = server.engine._session_locks[victim]

    with StepScheduler() as sched:
        gate = sched.pause_before(server._sessions, "open", "mid-session-new")
        opener = spawn(lambda: server.handle("POST", "/session/new"), name="opener")
        gate.wait_arrived()  # /session/new parked under the engine write lock
        verb = spawn(lambda: server.handle(
            "POST", "/query", {"text": read_pool[1], "session": victim}
        ), name="verb")
        assert eventually(victim_lock.locked), "the verb never took X's lock"
        assert not verb.join_within(BLOCKED_WINDOW_S), "the verb ran beside the write"
        gate.release()
        fresh = opener.join()["session"]
        reply = verb.join()

    assert reply == {"ok": False, "error": f"unknown session {victim}"}
    assert fresh not in opened and fresh != victim
    rounds = {
        session: server._sessions[session].session.round_count
        for session in (0, *opened[1:], fresh)
    }
    assert rounds == {0: 1, opened[1]: 1, opened[2]: 1, fresh: 0}
    assert victim not in server._sessions
    assert victim not in server.engine._session_locks
    assert server.handle("GET", "/transcript", {"session": victim})["ok"] is False
    assert victim not in server.engine._session_locks


def test_no_lost_updates_in_counters_and_events():
    """Parallel queries across sessions lose no metric/SLO/event updates."""
    queries = 12
    sessions = 4
    srv = make_server(workers=4, monitoring=True)
    try:
        read_pool, _ = split_vocab(srv._coordinator.kb)
        for _ in range(1, sessions):
            assert srv.handle("POST", "/session/new")["ok"]
        clients = [
            spawn(lambda i=i: srv.handle(
                "POST",
                "/query",
                {"text": read_pool[i % len(read_pool)], "session": i % sessions},
            ), name=f"client-{i}")
            for i in range(queries)
        ]
        responses = [client.join(timeout=30) for client in clients]
        assert all(response["ok"] for response in responses), responses

        metrics = srv.handle("GET", "/metrics")["metrics"]
        assert metrics["queries"] == queries
        assert metrics["latency_ms"]["count"] == queries

        slo = srv._coordinator.layer("slo")
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


def test_a_verb_queued_behind_a_width_change_keeps_its_sessions_lock():
    """``POST /configure {"workers": 2}`` changes only the engine's width.

    A query for session 0 queued behind the configure runs after it and
    holds session 0's lock; a second query for session 0 sent after the
    change must wait for that lock, not find a fresh one beside it.
    """
    server = ApiServer(small_config(workers=1))
    try:
        assert server.handle("POST", "/apply")["ok"]
        read_pool, _ = split_vocab(server._coordinator.kb)
        with StepScheduler() as sched:
            configuring = sched.pause_before(server._panel, "set_option", "mid-configure")
            # Before the round: the dialogue's own lock is not taken yet.
            answering = sched.pause_before(server, "_timed_verb", "mid-query")
            configure = spawn(lambda: server.handle(
                "POST", "/configure", {"option": "workers", "value": 2}
            ), name="configure")
            configuring.wait_arrived()  # the write holds the only place
            first = spawn(lambda: server.handle(
                "POST", "/query", {"text": read_pool[0], "session": 0}
            ), name="first")
            assert eventually(lambda: server.engine.queue_depth == 1)
            configuring.release()
            assert configure.join()["ok"]
            answering.wait_arrived()  # the first query holds session 0's lock
            second = spawn(lambda: server.handle(
                "POST", "/query", {"text": read_pool[1], "session": 0}
            ), name="second")
            assert not second.join_within(BLOCKED_WINDOW_S), (
                "a second verb for session 0 ran beside the first"
            )
            answering.release()
            first_reply, second_reply = first.join(), second.join()

        assert first_reply["ok"] and second_reply["ok"]
        assert server.engine.snapshot()["workers"] == 2
        rounds = server._sessions[0].session.rounds_snapshot()
        assert [r.user_text for r in rounds] == [read_pool[0], read_pool[1]]
    finally:
        server.close()


def test_every_request_runs_on_its_callers_thread():
    """Two clients on a two-wide server: set-up and reads run on the
    thread that sent them, and the server starts no thread of its own."""
    before = set(threading.enumerate())
    server = ApiServer(small_config(), workers=2)
    ran_on = {}
    dispatch = server._dispatch

    def recording(method, path, read):
        # Keyed on what the request names: the route and the text searched
        # (``/apply`` has no body, and each client applies at most once).
        ran_on[path, getattr(read, "text", None)] = threading.get_ident()
        return dispatch(method, path, read)

    server._dispatch = recording

    def client(name, apply_first):
        sent = []
        if apply_first:
            sent.append(("/apply", None))
            assert server.handle("POST", "/apply", {})["ok"]
        else:
            assert eventually(lambda: server._coordinator is not None)
        for text in ("fog", "clouds", "mountain"):
            sent.append(("/search", f"{text} {name}"))
            assert server.handle("POST", "/search", {"text": sent[-1][1]})["ok"]
        return threading.get_ident(), sent

    try:
        clients = [spawn(lambda: client("a", True), name="client-a"),
                   spawn(lambda: client("b", False), name="client-b")]
        outcomes = [c.join(timeout=30) for c in clients]
        assert [t.name for t in threading.enumerate() if t not in before] == []
        assert threading.active_count() <= len(before)
    finally:
        server.close()
    for ident, sent in outcomes:
        assert [ran_on[request] for request in sent] == [ident] * len(sent)
    assert len(ran_on) == 7
