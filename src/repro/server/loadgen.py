"""Concurrent synthetic load generation against a live :class:`ApiServer`.

``python -m repro loadgen`` drives a deterministic mixed read/write
workload through the full API stack — dialogue queries under the shared
read lock, periodic ingests under the exclusive write lock — and reports
throughput, latency percentiles and the coordinator's ledgers.  To compare
a layer on and off, run it twice with ``--json`` and read the two reports;
timings from one run are a reading, not a gate (the repository's one
timing harness is ``benchmarks/mqa_bench``).

Determinism under concurrency is engineered, not hoped for: the read
queries draw their concepts from one half of the corpus vocabulary and
the ingested objects from the *other* half (at deliberately low
intensity), so no ingested object can enter a read's top-k regardless of
how reads and writes interleave.  That makes every read's result ids a
pure function of the query alone — ``tests/concurrency/test_stress.py``
asserts a concurrent run returns exactly the serial run's ids, and that no
ingested id ever surfaces.

The simulated LLM latency (``llm_latency_ms``) models the production
deployment's remote generation call (the MQA demo uses ChatGPT); the
sleep releases the GIL as the network wait would.  A throughput gain
measured against it is a gain over a sleep, and none is claimed.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.core import MQAConfig
from repro.data import DatasetSpec
from repro.observability.metrics import Histogram
from repro.server.api import ApiServer

#: Low intensity keeps ingested objects' vectors far from every read
#: query, preserving read determinism (see module docstring).
_INGEST_INTENSITY = 0.35
#: How many times a client retries a shed request (with ``shed_retry_ms``).
_SHED_RETRIES = 8


def build_workload(
    concepts: Sequence[str],
    queries: int,
    write_every: int,
    seed: int,
    sessions: int,
    near_duplicate_every: int = 0,
) -> List[Dict[str, Any]]:
    """The deterministic operation list for one run.

    Every ``write_every``-th operation is an ingest drawing concepts from
    the back half of the vocabulary; all others are dialogue reads over
    the front half, round-robined across ``sessions`` session ids.

    ``near_duplicate_every`` (0 disables) rewrites every Nth read as the
    previous read's text with its word order reversed — a distinct exact
    cache key whose token-averaged embedding is identical, so the same
    objects are retrieved (read determinism holds) while a semantic
    cache recognises the near-duplicate.  This models the interactive
    reality the semantic cache targets: users rephrasing essentially the
    same question.
    """
    if len(concepts) < 4:
        raise ValueError(
            f"need at least 4 distinct corpus concepts, got {len(concepts)}"
        )
    rng = np.random.default_rng(seed)
    half = len(concepts) // 2
    read_pool = list(concepts[:half])
    write_pool = list(concepts[half:])
    ops: List[Dict[str, Any]] = []
    reads = 0
    last_text: "str | None" = None
    for i in range(queries):
        if write_every and i % write_every == write_every - 1:
            pair = rng.choice(len(write_pool), size=min(2, len(write_pool)), replace=False)
            chosen = [write_pool[int(j)] for j in pair]
            ops.append(
                {
                    "op": "ingest",
                    "body": {
                        "concepts": chosen,
                        "intensities": [_INGEST_INTENSITY] * len(chosen),
                        "metadata": {"source": "loadgen"},
                    },
                }
            )
        else:
            reads += 1
            if (
                near_duplicate_every
                and last_text is not None
                and reads % near_duplicate_every == 0
            ):
                text = " ".join(reversed(last_text.split()))
            else:
                pair = rng.choice(
                    len(read_pool), size=min(2, len(read_pool)), replace=False
                )
                text = " ".join(read_pool[int(j)] for j in pair)
            last_text = text
            ops.append(
                {
                    "op": "query",
                    "body": {"text": text, "session": i % sessions},
                }
            )
    return ops


def run_loadgen(
    queries: int = 200,
    write_every: int = 10,
    domain: str = "scenes",
    size: int = 300,
    seed: int = 7,
    llm_latency_ms: float = 25.0,
    k: int = 5,
    sessions: int = 4,
    batch: int = 1,
    cache: bool = False,
    client_workers: "int | None" = None,
    near_duplicate_every: int = 0,
    shed_retry_ms: float = 0.0,
    **config_overrides: Any,
) -> Dict[str, Any]:
    """Build a system, fire the workload, and report the results.

    ``config_overrides`` are :class:`MQAConfig` fields by name
    (``workers=4``, ``shards=2``, ``index="starling"``, ``tiered=True``,
    ``planner=True``, ``cost_accounting=True`` ...) and win over the four
    aliases this function keeps for them: ``k`` (``result_count``),
    ``batch`` (``max_batch``), ``cache`` (``cache_queries`` — off here by
    default for uniform read cost; ``semantic_cache`` implies it) and
    ``llm_latency_ms`` (``llm_params``).  A ``deadline_ms`` enables the
    resilience layer unless ``resilience`` says otherwise.

    The client side uses ``workers`` threads calling the blocking
    :meth:`ApiServer.handle`, matching the engine's worker count so the
    bounded queue never rejects — rejections under deliberate over-drive
    are exercised by the concurrency tests instead.  ``client_workers``
    sizes the *client* thread pool independently of the engine's
    ``workers`` — oversubscribing clients is how queueing pressure is
    created for the planner and admission control.

    ``batch > 1`` switches read operations from the dialogue ``/query``
    verb to raw ``POST /search`` requests and enables server-side
    micro-batching with that cap: concurrent searches coalesce into one
    batched retrieval.  Results stay bit-identical to serial execution —
    only throughput changes.

    ``shards`` / ``replicas`` serve the same workload through the shard
    router.  Result ids never change — ``tests/sharding`` asserts that.

    With ``cost_accounting`` the report carries the server's ``GET /stats``
    snapshot under ``"stats"`` (the data behind ``python -m repro stats``),
    with ``tiered`` the aggregated tiered-store ledger under ``"tiered"``.

    ``near_duplicate_every`` rewrites every Nth read as a word-order
    permutation of the previous one (see :func:`build_workload`).
    ``shed_retry_ms`` (0 disables) makes clients behave like real ones
    facing a 503: a shed response is retried after that backoff, up to
    eight times, and the op's reported latency spans every
    attempt — shedding costs the client real time instead of instantly
    freeing it to burn through the finite operation list.

    The report always carries a ``goodput`` section — reads that
    completed within their deadline *without* degradation — plus shed /
    deadline-exceeded / saturated counts and the server cache's
    hit-rate snapshot, so planner-on and planner-off runs compare on
    useful work rather than raw throughput.
    """
    settings = {
        "dataset": DatasetSpec(domain=domain, size=size, seed=seed),
        "llm_params": {"latency_ms": llm_latency_ms},
        "weight_learning": {"steps": 20, "batch_size": 16},
        "result_count": k,
        "max_batch": batch,
        "cache_queries": cache,
        **config_overrides,
    }
    if settings.get("semantic_cache"):
        settings["cache_queries"] = True
    settings.setdefault("resilience", settings.get("deadline_ms") is not None)
    config = MQAConfig(**settings)
    # What the run reads back, whichever spelling set it.
    k, workers, deadline_ms = config.result_count, config.workers, config.deadline_ms
    use_search = config.max_batch > 1
    server = ApiServer(config)
    try:
        applied = server.handle("POST", "/apply")
        if not applied.get("ok"):
            raise RuntimeError(f"apply failed: {applied.get('error')}")
        kb = server._coordinator.kb
        assert kb is not None
        initial_size = len(kb)
        concepts = sorted({c for obj in kb for c in obj.concepts})
        for _ in range(1, sessions):
            server.handle("POST", "/session/new")
        ops = build_workload(
            concepts, queries, write_every, seed, sessions,
            near_duplicate_every=near_duplicate_every,
        )

        results: List[Dict[str, Any]] = [{} for _ in ops]

        def fire(index: int) -> None:
            op = ops[index]
            started = time.perf_counter()
            attempts = 0
            while True:
                if op["op"] == "ingest":
                    response = server.handle("POST", "/ingest", dict(op["body"]))
                elif use_search:
                    response = server.handle(
                        "POST", "/search", {"text": op["body"]["text"], "k": k}
                    )
                else:
                    response = server.handle("POST", "/query", dict(op["body"]))
                if (
                    shed_retry_ms > 0
                    and attempts < _SHED_RETRIES
                    and not response.get("ok")
                    and response.get("shed")
                ):
                    attempts += 1
                    time.sleep(shed_retry_ms / 1000.0)
                    continue
                break
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            entry: Dict[str, Any] = {
                "op": op["op"],
                "ok": bool(response.get("ok")),
                "latency_ms": elapsed_ms,
                "retries": attempts,
            }
            if not entry["ok"]:
                entry["error"] = response.get("error")
                entry["shed"] = bool(response.get("shed"))
                entry["saturated"] = bool(response.get("saturated"))
                entry["deadline_exceeded"] = bool(
                    response.get("deadline_exceeded")
                )
            elif op["op"] != "query":
                entry["object_id"] = response["object_id"]
            elif use_search:
                entry["ids"] = [
                    item["object_id"] for item in response["result"]["items"]
                ]
                entry["degraded"] = bool(
                    response["result"].get("degraded_reasons")
                )
            else:
                entry["ids"] = [
                    item["object_id"] for item in response["answer"]["items"]
                ]
                entry["degraded"] = bool(response["answer"]["degraded"])
            results[index] = entry

        client_pool = client_workers if client_workers is not None else workers
        started = time.perf_counter()
        if client_pool == 1:
            for i in range(len(ops)):
                fire(i)
        else:
            with ThreadPoolExecutor(
                max_workers=client_pool, thread_name_prefix="loadgen"
            ) as pool:
                list(pool.map(fire, range(len(ops))))
        elapsed_s = time.perf_counter() - started

        latencies = [r["latency_ms"] for r in results]
        # Same percentile machinery the metrics plane uses; the reservoir
        # is sized to the sample so the quantiles stay exact.
        histogram = Histogram(
            "loadgen.latency_ms", reservoir_size=max(len(latencies), 1)
        )
        for value in latencies:
            histogram.observe(value)
        summary = histogram.summary()
        read_ids = [r["ids"] for r in results if r["op"] == "query" and r["ok"]]
        ingested = [r["object_id"] for r in results if r["op"] == "ingest" and r["ok"]]
        coordinator = server._coordinator
        # Goodput: reads that produced full-quality results inside their
        # deadline.  Shed, saturated, deadline-exceeded, and degraded
        # reads all completed *something* — but not useful work.
        read_entries = [r for r in results if r["op"] == "query"]
        good = sum(
            1
            for r in read_entries
            if r["ok"]
            and not r.get("degraded")
            and (deadline_ms is None or r["latency_ms"] <= deadline_ms)
        )
        return {
            "workers": workers,
            "operations": len(ops),
            "reads": sum(1 for r in results if r["op"] == "query"),
            "writes": sum(1 for r in results if r["op"] == "ingest"),
            "errors": sum(1 for r in results if not r["ok"]),
            "error_messages": [r["error"] for r in results if not r.get("ok")][:5],
            "elapsed_s": round(elapsed_s, 3),
            "throughput_qps": round(len(ops) / elapsed_s, 2) if elapsed_s else 0.0,
            "latency_ms": {
                "p50": round(summary["p50"], 2),
                "p95": round(summary["p95"], 2),
                "p99": round(summary["p99"], 2),
                "max": round(summary["max"], 2),
            },
            "deadline_ms": deadline_ms,
            "goodput": {
                "good": good,
                "ratio": (
                    round(good / len(read_entries), 4) if read_entries else 0.0
                ),
                "qps": round(good / elapsed_s, 2) if elapsed_s else 0.0,
                "degraded": sum(
                    1 for r in read_entries if r.get("degraded")
                ),
                "shed": sum(1 for r in results if r.get("shed")),
                "client_retries": sum(r.get("retries", 0) for r in results),
                "deadline_exceeded": sum(
                    1 for r in results if r.get("deadline_exceeded")
                ),
                "saturated": sum(1 for r in results if r.get("saturated")),
            },
            "initial_corpus_size": initial_size,
            "read_ids": read_ids,
            "ingested_ids": ingested,
            **{
                name: coordinator.ledger(name)
                for name in (
                    "cache", "planner", "admission", "engine", "batching",
                    "sharding", "stats", "tiered",
                )
            },
        }
    finally:
        server.close()
