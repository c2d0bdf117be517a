"""PR 6 — horizontal sharding: what it guarantees and what it costs.

Pinned here:

* **``shards=1`` stays free.**  The router's pass-through adds the
  ready / ``k`` / option checks and a replica selection per call; the
  estimated overhead versus the bare framework must be under 1% (estimated
  like PR 5's disabled claim — the direct difference is far below machine
  noise), and the responses are *bit-identical*.
* **Ids never change.**  Every run's read result ids are asserted
  identical across the unsharded engine, 1 shard, and 4 shards.

Reported, not asserted (it is wall time): the p50 of one framework-level
read at each shard count.  In process, under the GIL, shards are CPU-bound
and searched one after another, each re-encoding the query — a sharded read
costs *more* than the unsharded one, and the table says how much.  There
is no read-throughput claim: the one this file used to make was measured
against ``time.sleep``.

Results go to stdout, ``benchmarks/results/``, and ``BENCH_PR6.json`` at
the repository root.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.core.sharding import ShardRouter
from repro.data import DatasetSpec, generate_knowledge_base
from repro.data.objects import RawQuery
from repro.encoders import build_encoder_set
from repro.evaluation import ExperimentTable
from repro.index import build_index
from repro.retrieval import build_framework
from repro.server.loadgen import run_loadgen

from benchmarks.conftest import report

BENCH_JSON = Path(__file__).parent.parent / "BENCH_PR6.json"

K = 5
BUDGET = 64
ROUNDS = 6
#: Pass-through work one routed query adds on top of the inner framework:
#: the preamble timed below (a whole ``retrieve_batch`` entry that stops after
#: its checks, plus the replica selection), once per query.
PASSTHROUGH_SITES_PER_QUERY = 1

QUERY_TEXTS = (
    "foggy clouds over mountains",
    "a quiet shoreline at dusk",
    "stars above a desert",
    "rain on a forest trail",
    "snow covering rooftops",
)

LOADGEN_KWARGS = dict(
    workers=1,
    queries=100,
    write_every=10,
    domain="scenes",
    size=300,
    seed=7,
    llm_latency_ms=0.0,
    k=K,
)

#: The read-cost table: rows, text queries, repeats (alternating over the
#: shard counts so drift hits every column alike) and the read measured.
COST_ROWS = 2000
COST_QUERIES = 150
COST_REPEATS = 3
COST_K = 10
SHARD_COUNTS = (None, 2, 4)  # None = the bare framework, no router


def _block_seconds(framework, queries) -> float:
    start = time.perf_counter()
    for query in queries:
        framework.retrieve(query, k=K, budget=BUDGET)
    return (time.perf_counter() - start) / len(queries)


def _paired_query_seconds(plain, routed, queries, rounds: int = ROUNDS):
    """Best-of-blocks mean retrieve time, interleaved to cancel noise."""
    for framework in (plain, routed):
        _block_seconds(framework, queries)  # warm-up
    best_plain, best_routed = float("inf"), float("inf")
    for _ in range(rounds):
        best_plain = min(best_plain, _block_seconds(plain, queries))
        best_routed = min(best_routed, _block_seconds(routed, queries))
    return best_plain, best_routed


def _passthrough_site_seconds(router, calls: int = 200_000) -> float:
    """Cost of the pass-through preamble: the ready / ``k`` / option checks
    (an empty batch runs them and nothing else) + the replica selection."""
    group = router.groups[0]
    start = time.perf_counter()
    for _ in range(calls):
        router.retrieve_batch((), k=K)
        group.select()
    return (time.perf_counter() - start) / calls


def shard_read_p50_ms(index: str, rows: int = COST_ROWS) -> "dict[str, list[float]]":
    """p50 ms of ``retrieve_batch([q], 10, budget=64)`` on MUST per shard
    count, one value per repeat: scenes seed 7, text queries, no sleep."""
    kb = generate_knowledge_base(DatasetSpec(domain="scenes", size=rows, seed=7))
    encoder_set = build_encoder_set("clip-joint", kb, seed=3)
    queries = [
        RawQuery.from_text(str(obj.get("text"))) for obj in list(kb)[:COST_QUERIES]
    ]
    engines = {}
    for shards in SHARD_COUNTS:
        if shards is None:
            engine = build_framework("must", {})
        else:
            engine = ShardRouter(framework_name="must", shards=shards)
        engine.setup(kb, encoder_set, lambda: build_index(index, {}))
        engines["unsharded" if shards is None else f"{shards} shards"] = engine
    p50s = {label: [] for label in engines}
    for repeat in range(COST_REPEATS + 1):
        for label, engine in engines.items():
            samples = []
            for query in queries:
                start = time.perf_counter()
                engine.retrieve_batch([query], COST_K, budget=BUDGET)
                samples.append((time.perf_counter() - start) * 1000.0)
            if repeat:  # the first pass is the warm-up
                p50s[label].append(round(statistics.median(samples), 3))
    return p50s


def test_benchmark_pr6_sharding(scenes_world):
    kb, encoder_set, weights = scenes_world
    queries = [RawQuery.from_text(text) for text in QUERY_TEXTS]

    # -- claim 1: shards=1 pass-through ---------------------------------
    plain = build_framework("must", {})
    plain.setup(kb, encoder_set, lambda: build_index("flat", {}), weights=weights)
    routed = ShardRouter(framework_name="must", shards=1)
    routed.setup(kb, encoder_set, lambda: build_index("flat", {}), weights=weights)

    for query in queries:  # bit-identity before any timing
        expected = plain.retrieve(query, k=K, budget=BUDGET)
        actual = routed.retrieve(query, k=K, budget=BUDGET)
        assert actual.ids == expected.ids
        assert [i.score for i in actual.items] == [
            i.score for i in expected.items
        ]

    mean_plain, mean_routed = _paired_query_seconds(plain, routed, queries)
    site_cost = _passthrough_site_seconds(routed)
    estimated_overhead_pct = (
        PASSTHROUGH_SITES_PER_QUERY * site_cost / mean_plain * 100.0
    )
    measured_overhead_pct = (mean_routed - mean_plain) / mean_plain * 100.0

    # -- claim 2: identical ids at any shard count ----------------------
    unsharded = run_loadgen(**LOADGEN_KWARGS)
    one_shard = run_loadgen(shards=1, **LOADGEN_KWARGS)
    four_shards = run_loadgen(shards=4, **LOADGEN_KWARGS)
    for run in (unsharded, one_shard, four_shards):
        assert run["errors"] == 0, run["error_messages"]
    assert unsharded["read_ids"] == one_shard["read_ids"]
    assert unsharded["read_ids"] == four_shards["read_ids"]
    assert four_shards["sharding"]["shards"] == 4

    # -- reported: what a sharded read costs ----------------------------
    read_cost = {index: shard_read_p50_ms(index) for index in ("hnsw", "flat")}

    table = ExperimentTable(
        "PR6: horizontal sharding (scenes n=500 pass-through, n=300 loadgen, "
        f"n={COST_ROWS} read cost)",
        ["metric", "value"],
    )
    table.add_row(["mean query ms (bare framework)", round(mean_plain * 1000, 3)])
    table.add_row(["mean query ms (shards=1 router)", round(mean_routed * 1000, 3)])
    table.add_row(["pass-through site ns", round(site_cost * 1e9, 1)])
    table.add_row(["est. shards=1 overhead %", round(estimated_overhead_pct, 4)])
    table.add_row(["measured shards=1 overhead %", round(measured_overhead_pct, 2)])
    table.add_row(["4-shard moves", four_shards["sharding"]["moves"]])
    table.add_row(["read ids identical", True])
    for index, columns in read_cost.items():
        for label, p50s in columns.items():
            table.add_row(
                [f"{index} read p50 ms, {label}", f"{min(p50s)}-{max(p50s)}"]
            )
    report(table)

    BENCH_JSON.write_text(
        json.dumps(
            {
                "mean_query_ms_bare": round(mean_plain * 1000, 4),
                "mean_query_ms_shards1": round(mean_routed * 1000, 4),
                "passthrough_site_ns": round(site_cost * 1e9, 2),
                "passthrough_sites_per_query": PASSTHROUGH_SITES_PER_QUERY,
                "estimated_shards1_overhead_pct": round(estimated_overhead_pct, 4),
                "measured_shards1_overhead_pct": round(measured_overhead_pct, 3),
                "read_ids_identical": True,
                "four_shard_ledger": {
                    "moves": four_shards["sharding"]["moves"],
                    "rebalances": four_shards["sharding"]["rebalances"],
                    "degraded_searches": four_shards["sharding"][
                        "degraded_searches"
                    ],
                },
                "read_p50_ms": {
                    "rows": COST_ROWS,
                    "queries": COST_QUERIES,
                    "k": COST_K,
                    "budget": BUDGET,
                    **read_cost,
                },
            },
            indent=2,
        )
        + "\n"
    )

    assert estimated_overhead_pct < 1.0, (
        f"shards=1 pass-through adds {estimated_overhead_pct:.3f}% per query"
    )
