"""Seeded multi-thread stress smoke: 8 clients, mixed verbs, under 10 s.

Not a forced interleaving — a scheduler-driven soak that shakes out
races the deterministic tests did not think to force.  The workload is
seeded (every run issues the identical operation sequence per thread);
only the thread schedule varies.  Asserts the system-wide accounting
still balances afterwards: zero errors, no lost rounds, consistent
event-log totals, a quiescent engine.  Beside it, the loadgen workload
served by several engine workers returns the serial run's read ids.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.server.loadgen import run_loadgen
from tests.concurrency.conftest import SIZE, make_server, split_vocab
from tests.concurrency.harness import spawn

SEED = 11
THREADS = 8
OPS_PER_THREAD = 12
TIME_BUDGET_S = 10.0
#: One ingest every fifth operation; no simulated LLM wait.
LOADGEN = dict(
    queries=40, write_every=5, size=SIZE, seed=SEED, llm_latency_ms=0.0, k=5
)


def test_eight_thread_stress_smoke():
    started = time.perf_counter()
    srv = make_server(workers=4)
    try:
        read_pool, write_pool = split_vocab(srv._coordinator.kb)
        initial_size = len(srv._coordinator.kb)
        for _ in range(1, THREADS):
            assert srv.handle("POST", "/session/new")["ok"]

        def client(thread_index: int) -> dict:
            rng = np.random.default_rng(SEED + thread_index)
            queries = 0
            ingests = 0
            for i in range(OPS_PER_THREAD):
                if i % 4 == 3:
                    pair = rng.choice(len(write_pool), size=2, replace=False)
                    response = srv.handle(
                        "POST",
                        "/ingest",
                        {
                            "concepts": [write_pool[int(j)] for j in pair],
                            "intensities": [0.35, 0.35],
                        },
                    )
                    assert response["ok"], response
                    ingests += 1
                else:
                    pair = rng.choice(len(read_pool), size=2, replace=False)
                    response = srv.handle(
                        "POST",
                        "/query",
                        {
                            "text": " ".join(read_pool[int(j)] for j in pair),
                            "session": thread_index,
                        },
                    )
                    assert response["ok"], response
                    queries += 1
                if i % 5 == 2:
                    page = srv.handle("GET", "/transcript", {"session": thread_index})
                    assert page["ok"], page
            return {"queries": queries, "ingests": ingests}

        handles = [spawn(lambda t=t: client(t), name=f"client-{t}") for t in range(THREADS)]
        tallies = [handle.join(timeout=TIME_BUDGET_S) for handle in handles]

        total_queries = sum(t["queries"] for t in tallies)
        total_ingests = sum(t["ingests"] for t in tallies)
        assert total_queries + total_ingests == THREADS * OPS_PER_THREAD

        # No lost rounds: each session holds exactly its thread's queries.
        for thread_index, tally in enumerate(tallies):
            session = srv._sessions[thread_index].session
            assert session.round_count == tally["queries"]
            assert [r.index for r in session.rounds_snapshot()] == list(
                range(tally["queries"])
            )

        assert len(srv._coordinator.kb) == initial_size + total_ingests

        retained, total_recorded, dropped = srv._coordinator.events.snapshot()
        assert total_recorded == len(retained) + dropped

        engine = srv.engine.snapshot()
        assert engine["errors"] == 0
        assert engine["rejected"] == 0
        assert engine["in_flight"] == 0
        assert engine["queued"] == 0

        health = srv.handle("GET", "/health")
        assert health["ok"]
        assert health["engine"]["workers"] == 4
    finally:
        srv.close()
    elapsed = time.perf_counter() - started
    assert elapsed < TIME_BUDGET_S, f"stress smoke took {elapsed:.1f}s"


@pytest.fixture(scope="module")
def serial_loadgen():
    return run_loadgen(workers=1, **LOADGEN)


@pytest.mark.parametrize("workers", [2, 4])
def test_concurrent_loadgen_reads_equal_the_serial_reads(serial_loadgen, workers):
    """Reads draw from one half of the vocabulary and ingests from the
    other, so a read's ids are a function of its query alone: ``workers``
    engine threads (and as many clients) return the serial run's ids
    exactly, with no error and no rejection, every ingest lands past the
    initial corpus, and no ingested id ever surfaces in a read."""
    concurrent = run_loadgen(workers=workers, **LOADGEN)
    for run in (serial_loadgen, concurrent):
        assert run["errors"] == 0, run["error_messages"]
        assert run["engine"]["rejected"] == 0
    assert concurrent["read_ids"] == serial_loadgen["read_ids"]
    ingested = set(serial_loadgen["ingested_ids"]) | set(concurrent["ingested_ids"])
    assert len(concurrent["ingested_ids"]) == LOADGEN["queries"] // LOADGEN["write_every"]
    assert min(ingested) >= serial_loadgen["initial_corpus_size"]
    surfaced = {
        object_id
        for ids in serial_loadgen["read_ids"] + concurrent["read_ids"]
        for object_id in ids
    }
    assert not surfaced & ingested
