"""PR 4 — batched multi-query execution: serial parity, reported speed-up.

Asserted here:

* **Identical results.**  For every benched path and batch size, the ids
  returned by the batched ``POST /search`` list body match a serial
  one-request-at-a-time run exactly — batching is a pure throughput
  optimisation, never a quality trade.

Reported, not asserted (it is wall time, and one run on a shared machine
cannot gate it): the serial / batched milliseconds and the speed-up at
batch 1, 4 and 16 on MUST over the flat index, MUST over HNSW and JE over
HNSW.  Micro-batching's gain is real CPU work — each request pays encode,
kernel dispatch, lock, SLO accounting and payload building on its own —
and belongs on the ``mqa_bench`` harness, which has no batching row yet.

The comparison is measured at the served-request layer: "serial" issues
one single-query ``POST /search`` per query (what a client without
batching does), while "batched" issues the same queries as ``POST
/search`` list bodies of the given batch size, which the engine resolves
through one ``retrieve_batch`` per request.

Results go to stdout, ``benchmarks/results/``, and ``BENCH_PR4.json`` at
the repository root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.core import MQAConfig
from repro.data import DatasetSpec
from repro.evaluation import ExperimentTable
from repro.server.api import ApiServer

from benchmarks.conftest import HNSW_PARAMS, report

BENCH_JSON = Path(__file__).parent.parent / "BENCH_PR4.json"

DOMAIN = "scenes"
SIZE = 500
SEED = 7
QUERIES = 16
BATCH_SIZES = (1, 4, 16)
K = 5
TRIALS = 3

# (label, framework, index)
PATHS = (
    ("must-flat", "must", "flat"),
    ("must-hnsw", "must", "hnsw"),
    ("je-hnsw", "je", "hnsw"),
)


def _build_server(framework: str, index: str) -> ApiServer:
    config = MQAConfig(
        dataset=DatasetSpec(domain=DOMAIN, size=SIZE, seed=SEED),
        framework=framework,
        index=index,
        index_params=dict(HNSW_PARAMS) if index == "hnsw" else {},
        weight_learning={"steps": 30, "batch_size": 16},
        cache_queries=False,
    )
    server = ApiServer(config)
    applied = server.handle("POST", "/apply")
    assert applied.get("ok"), applied
    return server


def _payloads(server: ApiServer) -> "tuple[list, list]":
    """Deterministic query specs drawn from the corpus.

    Returns ``(text_specs, mixed_specs)``: 16 text-only queries (the
    timing workload — the interactive query type the paper's demo
    serves), and the same queries with every query at a non-multiple-of-3
    position additionally carrying a reference image — the "more like
    this one" interaction, used to pin serial parity on the image path.
    """
    kb = server._coordinator.kb
    text_specs = []
    mixed_specs = []
    for position, obj in enumerate(list(kb)[:QUERIES]):
        text = " ".join(obj.concepts[:2]) if obj.concepts else str(obj.get("text"))[:40]
        text_specs.append({"text": text, "k": K})
        mixed = {"text": text, "k": K}
        if position % 3:
            mixed["reference_object_id"] = obj.object_id
        mixed_specs.append(mixed)
    return text_specs, mixed_specs


def _result_ids(payload: dict) -> list:
    return [item["object_id"] for item in payload["items"]]


def _run_serial(server: ApiServer, specs: list) -> list:
    return [
        _result_ids(server.handle("POST", "/search", dict(spec))["result"])
        for spec in specs
    ]


def _run_batched(server: ApiServer, specs: list, batch: int) -> list:
    ids: list = []
    for start in range(0, len(specs), batch):
        chunk = [dict(spec) for spec in specs[start : start + batch]]
        answer = server.handle("POST", "/search", {"queries": chunk})
        ids.extend(_result_ids(result) for result in answer["results"])
    return ids


def _time_ms(fn, reps: int) -> float:
    fn()  # warm caches and lazy setup outside the timed region
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - start) / reps * 1e3


@pytest.fixture(scope="module")
def batching_runs():
    rows = []
    for label, framework, index in PATHS:
        server = _build_server(framework, index)
        try:
            text_specs, mixed_specs = _payloads(server)
            # Every batch size must reproduce the serial ids exactly, on
            # both the text-only and the reference-image workloads.
            for specs in (text_specs, mixed_specs):
                serial_ids = _run_serial(server, specs)
                for batch in BATCH_SIZES:
                    assert _run_batched(server, specs, batch) == serial_ids, (
                        f"{label}: batch={batch} ids diverged from serial"
                    )
            # Timing: TRIALS interleaved rounds, each side's fastest round
            # kept, so one background hiccup does not set either number
            # (the best *ratio* of a round would favour a slow serial one).
            reps = 30 if index == "flat" else 10
            serial_ms = float("inf")
            batched_ms = {batch: float("inf") for batch in BATCH_SIZES}
            for _ in range(TRIALS):
                serial_ms = min(
                    serial_ms, _time_ms(lambda: _run_serial(server, text_specs), reps)
                )
                for batch in BATCH_SIZES:
                    batched_ms[batch] = min(
                        batched_ms[batch],
                        _time_ms(
                            lambda b=batch: _run_batched(server, text_specs, b),
                            reps,
                        ),
                    )
            per_batch = {
                batch: {
                    "serial_ms": round(serial_ms, 3),
                    "batched_ms": round(batched_ms[batch], 3),
                    "speedup": round(serial_ms / batched_ms[batch], 2),
                }
                for batch in BATCH_SIZES
            }
            rows.append(
                {
                    "label": label,
                    "framework": framework,
                    "index": index,
                    "batches": per_batch,
                }
            )
        finally:
            server.close()
    return rows


def test_benchmark_pr4_batching(batching_runs):
    table = ExperimentTable(
        f"PR4: batched execution ({QUERIES} queries, {DOMAIN}/{SIZE}, k={K})",
        ["path", "batch", "serial ms", "batched ms", "speedup"],
    )
    for row in batching_runs:
        for batch in BATCH_SIZES:
            cell = row["batches"][batch]
            table.add_row(
                [
                    row["label"],
                    batch,
                    cell["serial_ms"],
                    cell["batched_ms"],
                    f"{cell['speedup']:.2f}x",
                ]
            )
    report(table)
    top = max(BATCH_SIZES)

    BENCH_JSON.write_text(
        json.dumps(
            {
                "benchmark": "pr4_batching",
                "domain": DOMAIN,
                "corpus_size": SIZE,
                "queries": QUERIES,
                "k": K,
                "batch_sizes": list(BATCH_SIZES),
                "batched_ids_identical_to_serial": True,
                "paths": {
                    row["label"]: {
                        "framework": row["framework"],
                        "index": row["index"],
                        "batches": {
                            str(batch): row["batches"][batch]
                            for batch in BATCH_SIZES
                        },
                    }
                    for row in batching_runs
                },
            },
            indent=2,
        )
    )
    speedups = ", ".join(
        f"{row['label']}={row['batches'][top]['speedup']:.2f}x"
        for row in batching_runs
    )
    print(f"\nbatch={top} speedups: {speedups}; results written to {BENCH_JSON}")
