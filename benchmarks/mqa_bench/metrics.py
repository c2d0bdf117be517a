"""Metric names, units, directions, bounds and what each is expected to move.

``BENCHMARK.json`` at the repository root may hold only the keys its
contract names, so the expectations (which end-to-end metric a per-layer
metric should move, on which workload, and where it should not) live here
and in the tables of ``README.md``: :func:`benchmark_json` renders the
contract's part, :func:`readme_rows` the tables' rows, and ``--check`` fails
when either file on disk differs.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

from .workloads import WORKLOADS

COMMAND = ["python3", "benchmarks/mqa_bench/run.py"]
PATHS = ["benchmarks/mqa_bench"]
RUN_SECONDS = 10

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float  # share of the parent's median by which it may get worse
    meaning: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric it should move
    on: str  # the workload(s) where it should
    not_on: str  # where it should not
    exact: bool = False  # repeats exactly for a seed on single-client workloads


# setup_s is wall time as measured and carries the widest bound: an HNSW
# set-up takes ~10 s, so a run can afford only one.  qps and read_p50_ms are
# not here: README, "Demoted: qps and read_p50_ms".
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "wall time of MQASystem.from_config / POST /apply (KB generation + corpus "
             "encode + weight learning + index build); median over the run's set-ups"),
    EndToEnd("recall_at_10", "ratio", "higher", 0.005,
             "mean overlap@10 with a flat-index twin over the same KB and config, for "
             "reads whose input does not depend on earlier results"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "ru_maxrss of the workload's own process after --seconds of load"),
)

_FLAT = "dialogue_flat"
_HNSW = "dialogue_hnsw"
_SERVE = "serve_mixed"
_TIER = "batch_search_tiered"

PER_LAYER: Tuple[PerLayer, ...] = (
    # set-up
    PerLayer("data.generate_s", "s", "lower", "setup_s", _FLAT, "-"),
    PerLayer("encoders.encode_corpus_s", "s", "lower", "setup_s", _FLAT, "-"),
    PerLayer("weights.learn_s", "s", "lower", "setup_s", _FLAT, "-"),
    PerLayer("index.build_s", "s", "lower", "setup_s", f"{_HNSW}, {_SERVE}", _FLAT),
    PerLayer("index.build_inserts_per_s", "rows/s", "higher", "setup_s",
             f"{_HNSW}, {_SERVE}", _FLAT),
    PerLayer("distance.build_calls", "count", "lower", "setup_s via index.build_s",
             _HNSW, _FLAT, exact=True),
    PerLayer("distance.build_rows", "count", "lower", "setup_s via index.build_s",
             _HNSW, _FLAT, exact=True),
    PerLayer("index.tiered.build_s", "s", "lower", "setup_s", _TIER, "others (0)"),
    PerLayer("index.tiered.resident_bytes", "bytes", "lower", "peak_rss_mb", _TIER,
             "others (0)", exact=True),
    # the read path, per read operation
    PerLayer("server.api.self_ms", "ms/op", "lower", "client.read_p50_ms, client.qps", _SERVE,
             "dialogue_* (layer absent)"),
    PerLayer("core.concurrency.queue_wait_ms", "ms/op", "lower", "client.read_p50_ms, client.qps",
             _SERVE, "dialogue_* (layer absent)"),
    PerLayer("core.session.self_ms", "ms/op", "lower", "client.read_p50_ms",
             f"{_FLAT}, {_SERVE}", _TIER),
    PerLayer("core.coordinator.self_ms", "ms/op", "lower", "client.read_p50_ms",
             f"{_FLAT}, {_SERVE}", "-"),
    PerLayer("core.execution.self_ms", "ms/op", "lower", "client.read_p50_ms",
             f"{_FLAT}, {_SERVE}", "-"),
    PerLayer("core.cache.hit_rate", "ratio", "higher", "client.read_p50_ms", _SERVE,
             "dialogue_* (0 by construction)"),
    PerLayer("encoders.encode_query_ms", "ms/op", "lower", "client.read_p50_ms", _FLAT, "-"),
    PerLayer("retrieval.self_ms", "ms/op", "lower", "client.read_p50_ms", _FLAT, "-"),
    PerLayer("index.search_self_ms", "ms/op", "lower", "client.read_p50_ms, client.qps",
             f"{_HNSW}, {_TIER}", _FLAT),
    PerLayer("index.hops_per_query", "count", "lower", "client.read_p50_ms, client.qps, recall_at_10",
             f"{_HNSW}, {_TIER}", f"{_FLAT} (0)", exact=True),
    PerLayer("index.distance_evals_per_query", "count", "lower",
             "client.read_p50_ms, client.qps, recall_at_10", f"{_HNSW}, {_TIER}", _FLAT, exact=True),
    PerLayer("distance.kernel_ms", "ms/op", "lower", "client.read_p50_ms, client.qps",
             f"{_HNSW}, {_TIER}", _FLAT),
    PerLayer("distance.calls_per_query", "count", "lower", "client.read_p50_ms, client.qps",
             f"{_HNSW} (many small calls), {_TIER} (few wide calls)",
             f"{_FLAT} (one call)", exact=True),
    PerLayer("distance.rows_per_call", "count", "higher", "client.read_p50_ms, client.qps",
             f"{_HNSW}, {_TIER}", _FLAT, exact=True),
    PerLayer("core.generation.self_ms", "ms/op", "lower", "client.read_p50_ms", _FLAT,
             f"{_TIER} (no generation)"),
    PerLayer("llm.generate_ms", "ms/op", "lower", "client.read_p50_ms", _FLAT,
             f"{_TIER} (no generation)"),
    PerLayer("index.tiered.rerank_ms", "ms/op", "lower", "client.qps, client.read_p50_ms", _TIER,
             "others (0)"),
    PerLayer("index.tiered.block_reads_per_query", "count", "lower",
             "client.qps, client.read_p50_ms; rerank depth trades against recall_at_10", _TIER,
             "others (0)", exact=True),
    PerLayer("index.tiered.mmap_hit_rate", "ratio", "higher", "client.qps, client.read_p50_ms", _TIER,
             "others (0)", exact=True),
    PerLayer("index.block_reads_per_query", "count", "lower", "client.qps, client.read_p50_ms", _TIER,
             "others (0)", exact=True),
    PerLayer("index.block_cache_hit_rate", "ratio", "higher", "client.qps, client.read_p50_ms", _TIER,
             "others (0)", exact=True),
    # the write path, per /ingest
    PerLayer("core.coordinator.ingest_self_ms", "ms/write", "lower",
             "client.write_p50_ms, client.qps", _SERVE, "others (no writes)"),
    PerLayer("data.create_object_ms", "ms/write", "lower", "client.write_p50_ms, client.qps",
             _SERVE, "others (no writes)"),
    PerLayer("encoders.encode_object_ms", "ms/write", "lower", "client.write_p50_ms, client.qps",
             _SERVE, "others (no writes)"),
    PerLayer("index.add_ms", "ms/write", "lower", "client.write_p50_ms, client.qps", _SERVE,
             "others (no writes)"),
    PerLayer("core.concurrency.write_lock_wait_ms", "ms/write", "lower",
             "client.write_p50_ms, client.qps", _SERVE, "others (no writes)"),
    # what the client saw in the untraced pass of the traced run, ungated;
    # qps, read_p50 and write_p50 are medians over five equal segments of it
    PerLayer("client.qps", "ops/s", "higher",
             "requests (a 16-query batch counts 16) / wall time; demoted from end to end",
             "all", "-"),
    PerLayer("client.read_p50_ms", "ms", "lower",
             "median latency of ask/refine, /query, /refine or one /search batch; demoted "
             "from end to end", "all", "-"),
    PerLayer("client.write_p50_ms", "ms", "lower", "client.qps", _SERVE,
             "others (0: no writes)"),
    PerLayer("client.write_p95_ms", "ms", "lower", "tail of client.write_p50_ms", _SERVE,
             "others (0: no writes)"),
    PerLayer("client.read_after_write_p50_ms", "ms", "lower",
             "client.qps, client.read_p95_ms: a write-path saving that defers work to the next "
             "read shows here", _SERVE, "others (0: no writes)"),
    PerLayer("client.read_p95_ms", "ms", "lower", "tail of client.read_p50_ms", "all", "-"),
    PerLayer("client.read_p99_ms", "ms", "lower", "tail of client.read_p50_ms",
             "all with >= 1000 reads", f"{_TIER} (0: 200 batches leave too few beyond p99)"),
    # quality, and how far the trace may be trusted
    PerLayer("evaluation.concept_recall_at_10", "ratio", "higher",
             "quality against the latent-concept oracle; moves only if encoders, weights "
             "or fusion change", _HNSW, "-", exact=True),
    PerLayer("trace.coverage", "ratio", "higher",
             "share of traced read time that is a named layer's self time", "all", "-"),
    PerLayer("trace.overhead_ratio", "ratio", "lower",
             "traced read p50 / untraced read p50 of the same run", "all", "-"),
    PerLayer("bench.calib_ms", "ms", "lower",
             "a fixed NumPy loop (200 x GEMV + argsort), median of 15 before set-up: tells a "
             "slow machine from a slow program; no number is ever rescaled by it",
             "all", "-"),
)

def benchmark_json() -> Dict[str, Any]:
    """The document ``BENCHMARK.json`` must equal."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def readme_rows() -> List[str]:
    """The table row ``README.md`` must carry for every metric."""
    rows = [
        f"| `{m.name}` | {m.unit} | {m.better} | {m.bound} of the parent's median | "
        f"{m.meaning} |"
        for m in END_TO_END
    ]
    rows += [
        f"| `{m.name}`{' (*exact*)' if m.exact else ''} | {m.unit} | {m.better} | "
        f"{m.moves} | {m.on} | {m.not_on} |"
        for m in PER_LAYER
    ]
    return rows


def file_problems(root: Path) -> List[str]:
    """Differences between ``root/BENCHMARK.json`` and :func:`benchmark_json`,
    and rows of :func:`readme_rows` that ``README.md`` beside this file lacks."""
    path = root / "BENCHMARK.json"
    if not path.exists():
        return [f"{path} is missing"]
    on_disk = json.loads(path.read_text())
    expected = benchmark_json()
    problems: List[str] = []
    if on_disk != expected:
        keys = [k for k in expected if on_disk.get(k) != expected[k]]
        problems.append(f"BENCHMARK.json differs from metrics.py in {keys}")
    readme = Path(__file__).with_name("README.md").read_text()
    problems += [f"README.md lacks the row: {row}" for row in readme_rows() if row not in readme]
    return problems


def expected_units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit for one kind of run."""
    return {m.name: m.unit for m in (PER_LAYER if trace else END_TO_END)}
