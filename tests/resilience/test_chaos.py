"""The chaos harness: a 200-op mixed load under seeded faults.

Acceptance gate for the resilience layer: with faults injected at every
guarded boundary (encoders, index search, LLM generation, store ingest),
the system must raise **zero unhandled exceptions** — every query returns
either a full answer or one explicitly flagged as degraded, every failed
write is an explicit error response with the store rolled back, and the
``/health`` resilience counters must reconcile exactly with the
injector's own ledger.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.resilience import ResilienceManager, RetryPolicy

from tests.resilience.conftest import make_server

OPS = 200
PLAN_SEED = 13
WORDS = [
    "foggy", "serene", "dramatic", "desert", "mountain",
    "clouds", "night", "lake", "forest", "dusk",
]
FAULTS = {
    "llm.generate": {"error_rate": 0.25},
    "encoder.image": {"error_rate": 0.3},
    "index.search": {"error_rate": 0.1, "latency_rate": 0.1, "latency_ms": 0.5},
    "store.ingest": {"error_rate": 0.3},
}


@pytest.fixture(autouse=True)
def chaos_defaults(set_default):
    """A 0.1 ms retry backoff, and the breaker threshold out of reach:
    breaker *recovery* depends on wall-clock reset windows, which would make
    the schedule time-dependent (breaker dynamics have their own dedicated
    tests)."""
    set_default(RetryPolicy, backoff_ms=0.1)
    set_default(ResilienceManager, breaker_threshold=10_000)


def chaos_server(workers: int = 1):
    """A small system with faults at every guarded boundary."""
    return make_server(
        workers=workers,
        retry_attempts=2,
        fault_seed=5,
        faults={site: dict(spec) for site, spec in FAULTS.items()},
    )


def corpus_vocab(server) -> list:
    """The ingestable concept vocabulary of the served knowledge base."""
    kb = server._coordinator.kb
    return sorted({concept for obj in kb for concept in obj.concepts})


def build_plan(vocab, seed: int = PLAN_SEED, ops: int = OPS):
    """A deterministic mixed-op schedule, independent of any response."""
    rng = random.Random(seed)
    plan = []
    for _ in range(ops):
        roll = rng.random()
        text = " ".join(rng.choice(WORDS) for _ in range(2))
        if roll < 0.55:
            plan.append(("query", text, None))
        elif roll < 0.75:
            plan.append(("refine", text, rng.randrange(3)))
        elif roll < 0.90:
            plan.append(("ingest", [rng.choice(vocab), rng.choice(vocab)], None))
        else:
            plan.append(("remove", None, None))
    return plan


def run_chaos(server, plan):
    """Replay the plan; returns (records, stats).  Any unhandled exception
    propagates and fails the test — that *is* the acceptance criterion."""
    records = []
    stats = {
        "degraded": 0,
        "reasons": 0,
        "failed_writes": 0,
        "ingested": [],
        "removed": 0,
    }
    last_items = 0
    for op, arg, extra in plan:
        if op == "query":
            response = server.handle("POST", "/query", {"text": arg})
            assert response["ok"], response
            records.append(("query", response["answer"]))
            last_items = len(response["answer"]["items"])
        elif op == "refine":
            if last_items == 0:
                continue  # nothing to select; deterministic skip
            selected = server.handle(
                "POST", "/select", {"rank": min(extra, last_items - 1)}
            )
            assert selected["ok"], selected
            response = server.handle("POST", "/refine", {"text": arg})
            assert response["ok"], response
            records.append(("refine", response["answer"]))
            last_items = len(response["answer"]["items"])
        elif op == "ingest":
            response = server.handle("POST", "/ingest", {"concepts": arg})
            if response["ok"]:
                stats["ingested"].append(response["object_id"])
            else:
                stats["failed_writes"] += 1
                records.append(("ingest-error", response["error"]))
        elif op == "remove":
            if not stats["ingested"]:
                continue
            object_id = stats["ingested"].pop()
            response = server.handle("POST", "/remove", {"object_id": object_id})
            assert response["ok"], response
            stats["removed"] += 1
    for _, answer in [r for r in records if r[0] in ("query", "refine")]:
        degraded, reasons = answer["degraded"], answer["degraded_reasons"]
        # degraded iff explicitly flagged with at least one reason
        assert degraded == bool(reasons)
        stats["degraded"] += int(degraded)
        stats["reasons"] += len(reasons)
    return records, stats


class TestChaosSerial:
    def test_200_ops_no_unhandled_exceptions_and_ledger_reconciles(self):
        server = chaos_server(workers=1)
        try:
            records, stats = run_chaos(server, build_plan(corpus_vocab(server)))
            assert len(records) >= OPS // 2
            assert stats["degraded"] > 0  # the faults actually bit
            assert stats["failed_writes"] > 0
            health = server.handle("GET", "/health")["resilience"]
            injected = health["injected"]["errors"]
            # every injected error surfaced as exactly one recorded failure
            # (threshold is out of reach, so no attempt was short-circuited)
            assert health["totals"]["failures"] == sum(injected.values())
            assert health["totals"]["short_circuited"] == 0
            metrics = server._coordinator.metrics
            assert metrics.counter_value("resilience.injected_faults") == sum(
                injected.values()
            )
            # each degraded reason recorded exactly one fallback
            assert sum(health["fallbacks"].values()) == stats["reasons"]
            assert metrics.counter_value("coordinator.degraded") == stats["degraded"]
            # failed ingests rolled back; the store holds exactly the rest
            kb_size = len(server._coordinator.kb)
            from tests.resilience.conftest import SIZE

            assert kb_size == SIZE + len(stats["ingested"]) + stats["removed"]
            assert metrics.counter_value("coordinator.ingest_errors") == (
                stats["failed_writes"]
            )
            deleted = server._coordinator.execution.framework.deleted_ids
            assert len(deleted) == stats["removed"]
        finally:
            server.close()

    def test_chaos_is_deterministic(self):
        """Same seeds, fresh system: identical answers and identical ledger."""
        outcomes = []
        for _ in range(2):
            server = chaos_server(workers=1)
            try:
                records, _ = run_chaos(server, build_plan(corpus_vocab(server)))
                health = server.handle("GET", "/health")["resilience"]
                health.pop("breakers")  # breaker objects carry no schedule
                outcomes.append((records, health))
            finally:
                server.close()
        assert outcomes[0] == outcomes[1]


class TestChaosConcurrent:
    def test_invariants_hold_under_four_workers(self):
        """Under real thread interleaving only the invariants are stable:
        no unhandled exceptions, degraded iff flagged, counters reconcile."""
        server = chaos_server(workers=4)
        try:
            plan = [
                op for op in build_plan(corpus_vocab(server), seed=PLAN_SEED + 1)
                if op[0] in ("query", "ingest")
            ]

            def run_one(op):
                kind, arg, _ = op
                if kind == "query":
                    return ("query", server.handle("POST", "/query", {"text": arg}))
                return ("ingest", server.handle("POST", "/ingest", {"concepts": arg}))

            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(run_one, plan))
            degraded = reasons = ingested = 0
            for kind, response in results:
                if kind == "query":
                    assert response["ok"], response
                    answer = response["answer"]
                    assert answer["degraded"] == bool(answer["degraded_reasons"])
                    degraded += int(answer["degraded"])
                    reasons += len(answer["degraded_reasons"])
                else:
                    ingested += int(bool(response.get("ok")))
            health = server.handle("GET", "/health")["resilience"]
            injected = health["injected"]["errors"]
            assert health["totals"]["failures"] == sum(injected.values())
            assert sum(health["fallbacks"].values()) == reasons
            metrics = server._coordinator.metrics
            assert metrics.counter_value("coordinator.degraded") == degraded
            from tests.resilience.conftest import SIZE

            assert len(server._coordinator.kb) == SIZE + ingested
        finally:
            server.close()
