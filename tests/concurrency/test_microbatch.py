"""Deterministic tests for :class:`MicroBatcher` and server micro-batching.

The unit tests force deterministic flush reasons by construction: a huge
window plus a thread count divisible by ``max_batch`` can only produce
full flushes; a single submitter with a tiny window can only produce a
window flush.  The server-level test asserts the invariants that hold
under *any* interleaving — every query answered, answers bit-identical
to serial execution, histogram totals consistent — rather than exact
per-batch sizes, which are timing-dependent.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.concurrency import MicroBatcher

from .conftest import make_server
from .harness import spawn

#: Large enough that a leader never times out before its batch fills in
#: the forced-full tests; tests complete in milliseconds regardless.
HUGE_WINDOW_MS = 10_000.0


def test_full_batches_deterministic():
    """16 threads / max_batch 4 / huge window → exactly 4 full batches."""
    seen_sizes = []
    lock = threading.Lock()

    def runner(items):
        with lock:
            seen_sizes.append(len(items))
        return [item * 2 for item in items]

    batcher = MicroBatcher(runner, max_batch=4, window_ms=HUGE_WINDOW_MS)
    assert batcher.enabled
    handles = [spawn(lambda i=i: batcher.submit(i), f"submit-{i}") for i in range(16)]
    results = [handle.join() for handle in handles]
    assert results == [i * 2 for i in range(16)]
    assert sorted(seen_sizes) == [4, 4, 4, 4]
    snap = batcher.snapshot()
    assert snap["batches"] == 4
    assert snap["queries"] == 16
    assert snap["histogram"] == {"4": 4}
    assert snap["flushes"]["full"] == 4
    assert snap["flushes"]["window"] == 0


def test_window_flush_single_submitter():
    """A lone submitter flushes a batch of one with reason "window"."""
    batcher = MicroBatcher(lambda items: [item + 1 for item in items],
                           max_batch=2, window_ms=1.0)
    assert batcher.submit(41) == 42
    snap = batcher.snapshot()
    assert snap["histogram"] == {"1": 1}
    assert snap["flushes"]["window"] == 1
    assert snap["flushes"]["full"] == 0


def test_inline_mode_is_serial():
    """``max_batch=1`` runs every item inline, one-element batches only."""
    calls = []

    def runner(items):
        calls.append(list(items))
        return [item + 1 for item in items]

    batcher = MicroBatcher(runner, max_batch=1, window_ms=HUGE_WINDOW_MS)
    assert not batcher.enabled
    assert [batcher.submit(i) for i in range(5)] == list(range(1, 6))
    assert calls == [[i] for i in range(5)]
    snap = batcher.snapshot()
    assert snap["flushes"]["inline"] == 5
    assert snap["histogram"] == {"1": 5}


def test_runner_error_reaches_every_waiter():
    def runner(items):
        raise ValueError("search backend exploded")

    batcher = MicroBatcher(runner, max_batch=2, window_ms=HUGE_WINDOW_MS)
    handles = [spawn(lambda i=i: batcher.submit(i), f"err-{i}") for i in range(2)]
    for handle in handles:
        with pytest.raises(ValueError, match="exploded"):
            handle.join()


def test_runner_length_mismatch_is_an_error():
    batcher = MicroBatcher(lambda items: [], max_batch=2, window_ms=HUGE_WINDOW_MS)
    handles = [spawn(lambda i=i: batcher.submit(i), f"len-{i}") for i in range(2)]
    for handle in handles:
        with pytest.raises(RuntimeError, match="returned 0 results"):
            handle.join()


def test_note_records_explicit_batches():
    batcher = MicroBatcher(lambda items: items, max_batch=4, window_ms=1.0)
    batcher.note(7)
    snap = batcher.snapshot()
    assert snap["queries"] == 7
    assert snap["flushes"]["explicit"] == 1
    assert snap["histogram"] == {"7": 1}


def test_validation():
    with pytest.raises(ValueError):
        MicroBatcher(lambda items: items, max_batch=0)
    with pytest.raises(ValueError):
        MicroBatcher(lambda items: items, window_ms=-1.0)


def test_server_search_coalescing_preserves_results(set_default):
    """Concurrent ``POST /search`` under micro-batching returns exactly the
    serial answers, and the health histogram accounts for every query."""
    set_default(MicroBatcher, window_ms=50.0)
    serial = make_server(workers=1)
    try:
        kb = serial._coordinator.kb
        concepts = sorted({c for obj in kb for c in obj.concepts})
        texts = [
            f"{concepts[i % len(concepts)]} {concepts[(i * 3 + 1) % len(concepts)]}"
            for i in range(16)
        ]
        expected = []
        for text in texts:
            response = serial.handle("POST", "/search", {"text": text, "k": 5})
            assert response.get("ok"), response
            expected.append(
                [item["object_id"] for item in response["result"]["items"]]
            )
    finally:
        serial.close()

    batched = make_server(workers=4, max_batch=4)
    try:
        health = batched.handle("GET", "/health")
        assert health["batching"]["enabled"] is True
        assert health["batching"]["max_batch"] == 4

        def fire(text):
            response = batched.handle("POST", "/search", {"text": text, "k": 5})
            assert response.get("ok"), response
            return [item["object_id"] for item in response["result"]["items"]]

        handles = [spawn(lambda t=t: fire(t), f"search-{i}")
                   for i, t in enumerate(texts)]
        got = [handle.join() for handle in handles]
        assert got == expected

        snap = batched.handle("GET", "/health")["batching"]
        assert snap["queries"] == len(texts)
        assert sum(
            int(size) * count for size, count in snap["histogram"].items()
        ) == len(texts)
        assert all(int(size) <= 4 for size in snap["histogram"])
        assert snap["batches"] >= (len(texts) + 3) // 4
    finally:
        batched.close()


def test_server_list_search_records_explicit_batch(set_default):
    """An explicit list body bypasses the collector but is still counted."""
    set_default(MicroBatcher, window_ms=1.0)
    server = make_server(workers=1, max_batch=4)
    try:
        kb = server._coordinator.kb
        concepts = sorted({c for obj in kb for c in obj.concepts})
        queries = [{"text": concepts[i], "k": 3} for i in range(3)]
        response = server.handle("POST", "/search", {"queries": queries})
        assert response.get("ok"), response
        assert len(response["results"]) == 3
        snap = server.handle("GET", "/health")["batching"]
        assert snap["flushes"]["explicit"] == 1
        assert snap["histogram"].get("3") == 1
    finally:
        server.close()
