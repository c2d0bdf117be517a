"""PR 7 — the cost plane: disabled overhead and result-id neutrality.

Claims pinned here:

* **Disabled cost accounting stays free.**  The cost plane has no sites
  of its own — it reads the spans — so with ``cost_accounting`` (and
  tracing) off, every instrumentation site is a ``trace_span`` reduced to
  a single context-variable read returning a shared no-op; the estimated
  per-query overhead versus the instrumented sites' count must be under
  1% (estimated like PR 5/PR 6 disabled claims — the direct difference
  is far below machine noise).
* **Profiles never change results.**  The same workload run with cost
  accounting off and on returns *bit-identical* read result ids, both
  unsharded and through a 3-shard router.
* **Everything observed lands in the stats plane.**  The cost-on run's
  ``GET /stats`` snapshot has observed exactly the workload's
  successful reads, carries per-shard rows in the sharded run, and
  retains slowest-query exemplars.

Results go to stdout, ``benchmarks/results/``, and ``BENCH_PR7.json`` at
the repository root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.data.objects import RawQuery
from repro.evaluation import ExperimentTable
from repro.index import build_index
from repro.observability import trace_span
from repro.retrieval import build_framework
from repro.server.loadgen import run_loadgen

from benchmarks.conftest import report

BENCH_JSON = Path(__file__).parent.parent / "BENCH_PR7.json"

K = 5
BUDGET = 64
ROUNDS = 6
#: Instrumentation sites one query crosses with accounting off: the
#: executor's profile gate and ``retrieval`` span, the framework's
#: encode/search/fuse spans, the router's scatter and merge spans, and the
#: payload/stats attachment checks — rounded up for headroom.
DISABLED_SITES_PER_QUERY = 8

QUERY_TEXTS = (
    "foggy clouds over mountains",
    "a quiet shoreline at dusk",
    "stars above a desert",
    "rain on a forest trail",
    "snow covering rooftops",
)

LOADGEN_KWARGS = dict(
    workers=1,
    queries=80,
    write_every=10,
    domain="scenes",
    size=300,
    seed=7,
    llm_latency_ms=0.0,
    k=K,
)


def _disabled_site_seconds(calls: int = 200_000) -> float:
    """Cost of one disabled instrumentation site: a :func:`trace_span`
    call with no trace active (context-variable read + no-op return)."""
    start = time.perf_counter()
    for _ in range(calls):
        trace_span("encode")
    return (time.perf_counter() - start) / calls


def _mean_query_seconds(framework, queries, rounds: int = ROUNDS) -> float:
    """Best-of-blocks mean retrieve time with accounting off."""

    def block() -> float:
        start = time.perf_counter()
        for query in queries:
            framework.retrieve(query, k=K, budget=BUDGET)
        return (time.perf_counter() - start) / len(queries)

    block()  # warm-up
    return min(block() for _ in range(rounds))


def test_benchmark_pr7_costplane(scenes_world):
    kb, encoder_set, weights = scenes_world
    queries = [RawQuery.from_text(text) for text in QUERY_TEXTS]

    # -- claim 1: disabled overhead -------------------------------------
    framework = build_framework("must", {})
    framework.setup(kb, encoder_set, lambda: build_index("flat", {}), weights=weights)
    mean_query = _mean_query_seconds(framework, queries)
    site_cost = _disabled_site_seconds()
    estimated_overhead_pct = (
        DISABLED_SITES_PER_QUERY * site_cost / mean_query * 100.0
    )

    # -- claims 2 + 3: id neutrality and full stats coverage ------------
    runs = {
        "off": run_loadgen(**LOADGEN_KWARGS),
        "on": run_loadgen(cost_accounting=True, **LOADGEN_KWARGS),
        "sharded_off": run_loadgen(shards=3, **LOADGEN_KWARGS),
        "sharded_on": run_loadgen(shards=3, cost_accounting=True, **LOADGEN_KWARGS),
    }
    for name, run in runs.items():
        assert run["errors"] == 0, (name, run["error_messages"])
    assert runs["off"]["read_ids"] == runs["on"]["read_ids"]
    assert runs["sharded_off"]["read_ids"] == runs["sharded_on"]["read_ids"]
    assert runs["off"]["stats"] is None

    stats = runs["on"]["stats"]
    sharded_stats = runs["sharded_on"]["stats"]
    assert stats["queries"] == runs["on"]["reads"]
    assert sharded_stats["queries"] == runs["sharded_on"]["reads"]
    shard_rows = {
        g["shard"] for g in sharded_stats["groups"] if g["shard"] != "-"
    }
    assert shard_rows == {"0", "1", "2"}
    assert stats["exemplars"]

    table = ExperimentTable(
        "PR7: cost plane (scenes n=500 micro, n=300 loadgen)",
        ["metric", "value"],
    )
    table.add_row(["mean query ms (accounting off)", round(mean_query * 1000, 3)])
    table.add_row(["disabled site ns", round(site_cost * 1e9, 1)])
    table.add_row(["est. disabled overhead %", round(estimated_overhead_pct, 4)])
    table.add_row(["read ids identical (unsharded)", True])
    table.add_row(["read ids identical (3 shards)", True])
    table.add_row(["queries observed", stats["queries"]])
    table.add_row(["sharded queries observed", sharded_stats["queries"]])
    table.add_row(["sharded per-shard rows", len(shard_rows)])
    table.add_row(["exemplars retained", len(stats["exemplars"])])
    report(table)

    BENCH_JSON.write_text(
        json.dumps(
            {
                "mean_query_ms_disabled": round(mean_query * 1000, 4),
                "disabled_site_ns": round(site_cost * 1e9, 2),
                "disabled_sites_per_query": DISABLED_SITES_PER_QUERY,
                "estimated_disabled_overhead_pct": round(
                    estimated_overhead_pct, 4
                ),
                "read_ids_identical": True,
                "sharded_read_ids_identical": True,
                "queries_observed": stats["queries"],
                "sharded_queries_observed": sharded_stats["queries"],
                "sharded_shard_rows": sorted(shard_rows),
                "exemplars_retained": len(stats["exemplars"]),
                "p50_latency_ms": {
                    "accounting_off": runs["off"]["latency_ms"]["p50"],
                    "accounting_on": runs["on"]["latency_ms"]["p50"],
                },
            },
            indent=2,
        )
        + "\n"
    )

    assert estimated_overhead_pct < 1.0, (
        f"disabled cost accounting adds {estimated_overhead_pct:.3f}% per query"
    )
