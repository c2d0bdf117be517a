"""One workload, one run: set-up, warm-up, measurement, correctness checks.

:func:`end_to_end` is the untraced run behind every gated number;
:func:`per_layer` is the traced run.  Both return a :class:`Result` whose
``metrics`` carry exactly the names ``metrics.py`` lists for that kind of
run.
"""

from __future__ import annotations

import gc
import resource
import statistics
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data import DatasetSpec, Modality, RawQuery, generate_knowledge_base
from repro.evaluation import recall_at_k

from . import spans
from .metrics import expected_units
from .workloads import (
    BUDGET, CORPUS_SEED, DOMAIN, K, Client, Driver, InProcess, Inputs, Sample,
    Workload, config_for, drivers_for, probe_reads, set_up,
)


@dataclass(frozen=True)
class Scale:
    """How big a run is.  ``FULL`` is the benchmark; ``CHECK`` is the same
    code over 200 objects and a few dozen operations, for ``--check``."""

    size: int
    shrink: int  # divisor of warm-up / fixed pass counts and set-up repeats
    recall_reads: int  # most samples replayed against the flat twin
    probe_reads: int  # serve_mixed reads issued before the first write

    def units(self, count: int) -> int:
        return max(count // self.shrink, 4)


SEGMENTS = 5  # equal parts of the untraced pass; the median part is reported

FULL = Scale(size=2000, shrink=1, recall_reads=4000, probe_reads=200)
CHECK = Scale(size=200, shrink=10, recall_reads=60, probe_reads=20)


@dataclass
class Result:
    workload: str
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Dict[str, Any]]
    problems: List[str] = field(default_factory=list)
    notes: Dict[str, Any] = field(default_factory=dict)

    def last_line(self) -> Dict[str, Any]:
        """The object the builder's contract wants as the last stdout line."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if len(values) else 0.0


def _finish(workload: Workload, trace: bool, values: Dict[str, float], clients: List[Client],
            problems: List[str], notes: Dict[str, Any]) -> Result:
    units = expected_units(trace)
    missing = sorted(set(units) - set(values))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    failed = sum(c.failed for c in clients)
    if failed:
        problems.append(f"{failed} failed operations")
    for client in clients:
        problems.extend(client.problems)
    return Result(
        workload=workload.name,
        correct=not problems,
        attempted=max(sum(c.requests for c in clients), 1),
        failed=failed,
        metrics={n: {"value": float(values.get(n, 0.0)), "unit": units[n]} for n in units},
        problems=problems[:20],
        notes=notes,
    )


def run_clients(drivers: List[Driver], clients: List[Client], units: Optional[int] = None,
                deadline: Optional[float] = None) -> None:
    """Play every driver through its client — inline for one client, one
    thread each otherwise."""
    if len(drivers) == 1:
        drivers[0].run(clients[0], units, deadline)
        return
    errors: List[BaseException] = []

    def play(driver: Driver, client: Client) -> None:
        try:
            driver.run(client, units, deadline)
        except BaseException as exc:  # re-raised on the main thread below
            errors.append(exc)

    threads = [
        threading.Thread(target=play, args=pair, name=f"mqa-bench-client-{i}")
        for i, pair in enumerate(zip(drivers, clients))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _latencies(clients: List[Client], kind: str) -> List[float]:
    return [value for client in clients for value in client.latencies(kind)]


def _reads(clients: List[Client]) -> List[float]:
    return _latencies(clients, "read")


def calib_ms() -> float:
    """A fixed NumPy loop, 200 x ((256x64)·(64) + argsort), that touches none
    of the program's code: tells a slow machine from a slow program.  A note
    beside the numbers, never used to rescale one."""
    rng = np.random.default_rng(0)
    rows, query = rng.standard_normal((256, 64)), rng.standard_normal(64)

    def loop() -> float:
        start = perf_counter()
        for _ in range(200):
            np.argsort(rows @ query)
        return _ms(perf_counter() - start)

    return statistics.median(loop() for _ in range(15))


def _segment_medians(clients: List[Client], start: float) -> Dict[str, float]:
    """The pass that began at ``start``, its requests in the order they ended,
    cut into :data:`SEGMENTS` parts of equal count: the median part's
    requests per second and median read and write latency."""
    log = sorted((entry for client in clients for entry in client.log), key=lambda e: e[1])
    rows: Dict[str, List[float]] = {"qps": [], "read": [], "write": []}
    for i in range(SEGMENTS):
        part = log[len(log) * i // SEGMENTS: len(log) * (i + 1) // SEGMENTS]
        if not part:
            continue
        rows["qps"].append(sum(weight for _, _, weight, _ in part) / (part[-1][1] - start))
        start = part[-1][1]
        for kind in ("read", "write"):
            values = [elapsed for logged, _, _, elapsed in part if logged == kind]
            if values:
                rows[kind].append(_ms(_percentile(values, 50)))
    return {name: statistics.median(values) if values else 0.0 for name, values in rows.items()}


def flat_twin(workload: Workload, scale: Scale) -> InProcess:
    """The exact reference: same KB, encoders and learned weights, flat index."""
    return InProcess(config_for(workload, scale.size, index="flat", tiered=False))


def _query(sample: Sample, kb: Any) -> RawQuery:
    if sample.reference is None:
        return RawQuery.from_text(sample.text)
    return RawQuery.from_text_and_image(
        sample.text, kb.get(sample.reference).get(Modality.IMAGE)
    )


def recall_against_twin(samples: List[Sample], twin: InProcess) -> float:
    """Mean overlap@10 of the returned ids with the twin's exact top 10."""
    execution = twin.system.coordinator.execution
    return statistics.fmean(
        recall_at_k(
            sample.ids,
            execution.execute(_query(sample, twin.system.kb), k=K, budget=BUDGET).ids,
            K,
        )
        for sample in samples
    )


# ----------------------------------------------------------------------
# the untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def end_to_end(workload: Workload, seed: int, seconds: float, scale: Scale = FULL) -> Result:
    problems: List[str] = []
    calib = calib_ms()
    setups: List[float] = []
    target = None
    for _ in range(max(workload.setup_repeats // scale.shrink, 1)):
        if target is not None:
            target.close()
            target = None
            gc.collect()
        start = perf_counter()
        target = set_up(workload, scale.size)
        setups.append(perf_counter() - start)
    try:
        probe = Client()
        if workload.surface == "serve":
            probe_reads(target, Inputs(seed, 0, 1, scale.size, stream=1000),
                        scale.probe_reads, probe)
        drivers = drivers_for(workload, target, seed, scale.size)
        warm = [Client() for _ in drivers]
        run_clients(drivers, warm, units=scale.units(workload.warmup))

        timed = [Client() for _ in drivers]
        run_clients(drivers, timed, deadline=perf_counter() + seconds)
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = probe.samples if workload.surface == "serve" else [
            sample for client in timed for sample in client.samples
        ]
        samples = samples[: scale.recall_reads]
        if samples:
            values["recall_at_10"] = recall_against_twin(samples, flat_twin(workload, scale))
            if values["recall_at_10"] < workload.recall_floor:
                problems.append(
                    f"recall_at_10 {values['recall_at_10']:.4f} below the floor "
                    f"{workload.recall_floor}"
                )
        else:
            problems.append("no read left a sample to score recall on")
        notes = {
            "setups_s": setups,
            "read_samples": len(_reads(timed)),
            "recall_samples": len(samples),
            "calib_ms": calib,
        }
        return _finish(workload, False, values, timed + warm + [probe], problems, notes)
    finally:
        target.close()


# ----------------------------------------------------------------------
# the traced run: per-layer metrics
# ----------------------------------------------------------------------
def _inclusive(records: List[Dict[str, Any]], ops: Any, layer: str,
               suffixes: Tuple[str, ...]) -> float:
    return sum(r["end"] - r["start"] for r in spans.outermost(records, ops, layer, suffixes))


def _setup_metrics(records: List[Dict[str, Any]], size: int) -> Dict[str, float]:
    ops = spans.operations(records, "setup")
    folded = [r for r in records if "folded" in r]
    build_s = _inclusive(records, ops, "index", ("build",))
    return {
        "data.generate_s": _inclusive(records, ops, "data", ("run",)),
        "encoders.encode_corpus_s": _inclusive(records, ops, "encoders", ("encode_corpus",)),
        "weights.learn_s": _inclusive(records, ops, "weights", ("fit",)),
        "index.build_s": build_s,
        "index.build_inserts_per_s": size / build_s if build_s > 0 else 0.0,
        "distance.build_calls": sum(r["calls"] for r in folded),
        "distance.build_rows": sum(r["rows"] for r in folded),
        "index.tiered.build_s": _inclusive(records, ops, "index.tiered", ("build",)),
    }


def _delta(after: Optional[Dict[str, Any]], before: Optional[Dict[str, Any]],
           key: str) -> float:
    if not after:
        return 0.0
    return float(after[key]) - float((before or {}).get(key, 0))


def _query_metrics(workload: Workload, records: List[Dict[str, Any]],
                   before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    reads = spans.operations(records, "read")
    writes = spans.operations(records, "write")
    n_reads = max(len(reads), 1)
    n_writes = max(len(writes), 1)
    queries = n_reads * workload.queries_per_read
    layers = spans.layer_rows(records, reads)

    def self_ms(layer: str) -> float:
        return _ms(layers.get(layer, {"self": 0.0})["self"]) / n_reads

    def waited(names: Tuple[str, ...], ops: Dict[int, Any]) -> float:
        return sum(r["end"] - r["start"] for r in records
                   if r.get("name") in names and r["op"] in ops)

    searches = spans.outermost(records, reads, "index", ("search", "search_batch"))
    counts = {
        key: sum(r["attrs"][key] for r in searches if r["attrs"])
        for key in ("hops", "distance_evaluations", "block_reads", "cache_hits")
    }
    kernel = [r for r in records if r.get("layer") == "distance" and r["op"] in reads]
    kernel_rows = sum(r["attrs"]["rows"] for r in kernel if r["attrs"])
    cache_hits = _delta(after["cache"], before["cache"], "hits")
    cache_lookups = cache_hits + _delta(after["cache"], before["cache"], "misses")
    tier_after = (after["tiered"] or {}).get("totals")
    tier_before = (before["tiered"] or {}).get("totals")
    mmap_reads = _delta(tier_after, tier_before, "mmap_block_reads")
    mmap_hits = _delta(tier_after, tier_before, "mmap_cache_hits")
    blocks = counts["block_reads"] + counts["cache_hits"]

    def per_write(layer: str, suffixes: Tuple[str, ...]) -> float:
        return _ms(_inclusive(records, writes, layer, suffixes)) / n_writes

    ingest = [r for r in records if r.get("name") == "Coordinator.ingest_object"
              and r["op"] in writes]
    return {
        "server.api.self_ms": self_ms("server.api"),
        "core.concurrency.queue_wait_ms": _ms(waited(("QueryEngine.wait",), reads)) / n_reads,
        "core.session.self_ms": self_ms("core.session"),
        "core.coordinator.self_ms": self_ms("core.coordinator"),
        "core.execution.self_ms": self_ms("core.execution"),
        "core.cache.hit_rate": cache_hits / cache_lookups if cache_lookups else 0.0,
        "encoders.encode_query_ms": self_ms("encoders"),
        "retrieval.self_ms": self_ms("retrieval"),
        "index.search_self_ms": self_ms("index"),
        "index.hops_per_query": counts["hops"] / queries,
        "index.distance_evals_per_query": counts["distance_evaluations"] / queries,
        "distance.kernel_ms": self_ms("distance"),
        "distance.calls_per_query": len(kernel) / queries,
        "distance.rows_per_call": kernel_rows / len(kernel) if kernel else 0.0,
        "core.generation.self_ms": self_ms("core.generation"),
        "llm.generate_ms": self_ms("llm"),
        "index.tiered.rerank_ms": _ms(
            _inclusive(records, reads, "index.tiered", ("rerank",))) / n_reads,
        "index.tiered.block_reads_per_query": mmap_reads / queries,
        "index.tiered.mmap_hit_rate": (
            mmap_hits / (mmap_reads + mmap_hits) if mmap_reads + mmap_hits else 0.0),
        "index.tiered.resident_bytes": float((tier_after or {}).get("resident_bytes", 0)),
        "index.block_reads_per_query": counts["block_reads"] / queries,
        "index.block_cache_hit_rate": counts["cache_hits"] / blocks if blocks else 0.0,
        "core.coordinator.ingest_self_ms": _ms(sum(r["self"] for r in ingest)) / n_writes,
        "data.create_object_ms": per_write("data", ("create_object",)),
        "encoders.encode_object_ms": per_write("encoders", ("encode_object",)),
        "index.add_ms": per_write("index", ("add",)),
        # Behind ApiServer the engine's own write lock (inside
        # QueryEngine.wait) drains the readers before the coordinator's is asked.
        "core.concurrency.write_lock_wait_ms": _ms(
            waited(("QueryEngine.wait", "RWLock.acquire_write"), writes)) / n_writes,
        "trace.coverage": spans.coverage(records, reads),
    }


def concept_recall(samples: List[Sample], kb: Any) -> float:
    """Mean recall@10 of text-only reads against the latent-concept oracle."""
    scores = [
        recall_at_k(sample.ids, kb.ground_truth_for_concepts(sample.words, K), K)
        for sample in samples if sample.words
    ]
    return statistics.fmean(scores) if scores else 0.0


def per_layer(workload: Workload, seed: int, scale: Scale = FULL,
              trace_out: Optional[Path] = None) -> Result:
    """Fixed operation counts throughout, so counters repeat for a seed:
    traced set-up, warm-up, an untraced pass (what the client saw, and the
    base of ``trace.overhead_ratio``), then the traced pass."""
    problems: List[str] = []
    values: Dict[str, float] = {"bench.calib_ms": calib_ms()}
    recorder = spans.Recorder()
    recorder.fold_leaves = True
    with spans.installed(recorder), recorder.operation("setup"):
        target = set_up(workload, scale.size)
    recorder.fold_leaves = False
    try:
        setup_records = recorder.records()
        recorder.clear()
        values.update(_setup_metrics(setup_records, scale.size))

        drivers = drivers_for(workload, target, seed, scale.size)
        warmup, untraced, traced = (
            scale.units(n) for n in (workload.warmup, workload.untraced, workload.traced)
        )
        warm = [Client() for _ in drivers]
        run_clients(drivers, warm, units=warmup)

        plain = [Client() for _ in drivers]
        start = perf_counter()
        run_clients(drivers, plain, units=untraced)
        medians = _segment_medians(plain, start)
        reads, writes = _reads(plain), _latencies(plain, "write")
        after_write = [v for c in plain for v in c.read_after_write]
        values.update({
            "client.qps": medians["qps"],
            "client.read_p50_ms": medians["read"],
            "client.read_p95_ms": _ms(_percentile(reads, 95)),
            # A percentile is reported only with ten samples beyond it.
            "client.read_p99_ms": _ms(_percentile(reads, 99)) if len(reads) >= 1000 else 0.0,
            "client.write_p50_ms": medians["write"],
            "client.write_p95_ms": _ms(_percentile(writes, 95)) if len(writes) >= 200 else 0.0,
            "client.read_after_write_p50_ms": _ms(_percentile(after_write, 50)),
        })

        before = target.ledgers()
        watched = [Client(recorder=recorder) for _ in drivers]
        with spans.installed(recorder):
            run_clients(drivers, watched, units=traced)
        after = target.ledgers()
        records = recorder.records()
        values.update(_query_metrics(workload, records, before, after))
        base = _percentile(reads, 50)
        values["trace.overhead_ratio"] = (
            _percentile(_reads(watched), 50) / base if base > 0 else 0.0
        )
        kb = (target.system.kb if isinstance(target, InProcess)
              else generate_knowledge_base(DatasetSpec(DOMAIN, size=scale.size, seed=CORPUS_SEED)))
        values["evaluation.concept_recall_at_10"] = concept_recall(
            [s for client in watched for s in client.samples], kb
        )
        if trace_out is not None:
            spans.write_jsonl(setup_records + records,
                              Path(trace_out) / f"spans-{workload.name}.jsonl")
        notes = {
            "traced_reads": len(_reads(watched)),
            "untraced_reads": len(reads),
            "spans": len(records),
            "setup_spans": len(setup_records),
        }
        return _finish(workload, True, values, watched + plain + warm, problems, notes)
    finally:
        target.close()
