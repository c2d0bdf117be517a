"""Spans recorded from outside the program, and the numbers derived from them.

The benchmark may not edit ``src/``, so every layer is measured by wrapping
the public callables listed in :data:`TARGETS` for the length of a traced
phase (:func:`installed` puts the wrappers on the classes and takes them off
again).  A wrapper does nothing unless its thread is inside
:meth:`Recorder.operation`, which the harness opens around each client
request; the spans of one request therefore share that operation's id, and
the two ``serve_mixed`` client threads cannot cross because the parent
stack is thread-local.

A layer's *self time* is its span's duration minus the part its child
spans cover.  Children of one span never overlap (a request runs on one
thread at a time, the engine hand-off included), so the covered part is the
sum of the child durations and is accumulated as the children close.

``python -m benchmarks.mqa_bench.spans summarize DIR`` prints, for every
``spans-<workload>.jsonl`` in ``DIR``, per-layer self time, call count and
``trace.coverage`` without rerunning anything.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

# (module, class, methods, layer).  Abstract bases are patched together with
# every loaded subclass that overrides the method.
TARGETS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.server.api", "ApiServer", ("handle",), "server.api"),
    ("repro.core.session", "DialogueSession", ("ask", "refine", "select"), "core.session"),
    (
        "repro.core.coordinator",
        "Coordinator",
        ("handle_query", "retrieve_batch", "ingest_object", "remove_object"),
        "core.coordinator",
    ),
    ("repro.core.concurrency", "RWLock", ("acquire_write",), "core.concurrency"),
    ("repro.core.execution", "QueryExecution", ("execute", "execute_batch"), "core.execution"),
    (
        "repro.retrieval.base",
        "RetrievalFramework",
        ("retrieve", "retrieve_batch", "add_object"),
        "retrieval",
    ),
    (
        "repro.encoders.base",
        "EncoderSet",
        ("encode_query_full", "encode_query_batch", "encode_object", "encode_corpus"),
        "encoders",
    ),
    ("repro.index.base", "VectorIndex", ("build", "add", "search", "search_batch"), "index"),
    (
        "repro.distance.kernel",
        "DistanceKernel",
        ("batch", "batch_many", "batch_paired", "matrix", "single"),
        "distance",
    ),
    ("repro.index.tiered", "TieredStore", ("build", "rerank"), "index.tiered"),
    ("repro.core.generation", "AnswerGeneration", ("generate",), "core.generation"),
    ("repro.llm.base", "LanguageModel", ("generate",), "llm"),
    ("repro.data.knowledge_base", "KnowledgeBase", ("create_object",), "data"),
    ("repro.core.preprocessing", "DataPreprocessing", ("run",), "data"),
    ("repro.core.representation", "VectorRepresentation", ("run",), "core.representation"),
    ("repro.weights.contrastive", "VectorWeightLearner", ("fit",), "weights"),
    ("repro.core.indexing", "IndexConstruction", ("run",), "core.indexing"),
)

# ``QueryEngine.submit`` is wrapped too, in its own way: it carries the
# caller's span onto the worker thread and splits the hand-off into
# ``QueryEngine.wait`` (core.concurrency) and ``QueryEngine.task``
# (server.api: the routed handler body runs inside it).
ENGINE = ("repro.core.concurrency", "QueryEngine")

CLIENT_LAYER = "client"
_FAILED = object()


def _kernel_rows(result: Any) -> Dict[str, int]:
    # Every kernel entry point returns one distance per evaluated pair.
    return {"rows": int(getattr(result, "size", 1))}


def _search_counts(result: Any) -> Dict[str, int]:
    outcomes = result if isinstance(result, list) else [result]
    return {
        "queries": len(outcomes),
        "hops": sum(o.stats.hops for o in outcomes),
        "distance_evaluations": sum(o.stats.distance_evaluations for o in outcomes),
        "block_reads": sum(o.stats.block_reads for o in outcomes),
        "cache_hits": sum(o.stats.cache_hits for o in outcomes),
    }


_ATTRS: Dict[Tuple[str, str], Callable[[Any], Dict[str, int]]] = {
    ("index", "search"): _search_counts,
    ("index", "search_batch"): _search_counts,
    **{
        ("distance", method): _kernel_rows
        for method in ("batch", "batch_many", "batch_paired", "matrix", "single")
    },
}


class Recorder:
    """In-memory span store; one per traced run.

    A span is kept as the tuple ``(id, parent, op, name, layer, start, end,
    self_seconds, attrs)`` and turned into a dict by :meth:`records`.  With
    ``fold_leaves`` set (set-up: ~400k kernel calls) spans of the
    ``distance`` layer are not kept one by one but summed per name into
    :attr:`folded` as ``[calls, rows, seconds]``.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.folded: Dict[str, List[float]] = {}
        self.fold_leaves = False
        self.epoch = perf_counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)

    @contextmanager
    def operation(self, kind: str) -> Iterator[None]:
        """Open the root span ``client.<kind>`` of one client request."""
        frame = [next(self._ids), next(self._ops), 0.0]
        self._local.stack = [frame]
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._local.stack = []
            self.spans.append(
                (frame[0], 0, frame[1], f"client.{kind}", CLIENT_LAYER,
                 start, end, end - start - frame[2], None)
            )

    def records(self) -> List[Dict[str, Any]]:
        """Every kept span as a dict, times in seconds since the recorder
        was made, followed by one ``{"folded": name, ...}`` row per folded
        leaf name."""
        rows: List[Dict[str, Any]] = [
            {
                "id": span[0], "parent": span[1], "op": span[2], "name": span[3],
                "layer": span[4], "start": span[5] - self.epoch,
                "end": span[6] - self.epoch, "self": span[7], "attrs": span[8],
            }
            for span in self.spans
        ]
        for name, (calls, rows_, seconds) in sorted(self.folded.items()):
            rows.append(
                {"folded": name, "layer": "distance", "calls": int(calls),
                 "rows": int(rows_), "seconds": seconds}
            )
        return rows

    def clear(self) -> None:
        """Forget everything recorded so far (ids keep counting)."""
        self.spans = []
        self.folded = {}


def _wrap(recorder: Recorder, fn: Callable, name: str, layer: str, method: str) -> Callable:
    local = recorder._local
    ids = recorder._ids
    attrs_of = _ATTRS.get((layer, method))
    leaf = layer == "distance"

    def wrapped(*args: Any, **kwargs: Any) -> Any:
        stack = getattr(local, "stack", None)
        if not stack:
            return fn(*args, **kwargs)
        parent = stack[-1]
        frame = [next(ids), parent[1], 0.0]
        stack.append(frame)
        result = _FAILED
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            stack.pop()
            parent[2] += end - start
            attrs = (
                attrs_of(result)
                if attrs_of is not None and result is not _FAILED
                else None
            )
            if leaf and recorder.fold_leaves:
                total = recorder.folded.setdefault(name, [0, 0, 0.0])
                total[0] += 1
                total[1] += attrs["rows"] if attrs else 0
                total[2] += end - start
            else:
                recorder.spans.append(
                    (frame[0], parent[0], parent[1], name, layer,
                     start, end, end - start - frame[2], attrs)
                )

    wrapped.__name__ = getattr(fn, "__name__", method)
    wrapped.__doc__ = fn.__doc__
    wrapped.__wrapped__ = fn  # keeps inspect.signature() seeing the original
    return wrapped


def _wrap_submit(recorder: Recorder, submit: Callable) -> Callable:
    local = recorder._local
    ids = recorder._ids

    def wrapped(self: Any, fn: Callable[[], Any], **kwargs: Any) -> Any:
        stack = getattr(local, "stack", None)
        if not stack:
            return submit(self, fn, **kwargs)
        parent = stack[-1]
        submitted = perf_counter()

        def task() -> Any:
            started = perf_counter()
            frame = [next(ids), parent[1], 0.0]
            local.stack = [frame]
            try:
                return fn()
            finally:
                ended = perf_counter()
                local.stack = []
                # The submitting thread is blocked on the future (or is
                # this thread, inline), so its frame is ours to update.
                parent[2] += ended - submitted
                recorder.spans.append(
                    (next(ids), parent[0], parent[1], "QueryEngine.wait",
                     "core.concurrency", submitted, started, started - submitted, None)
                )
                recorder.spans.append(
                    (frame[0], parent[0], parent[1], "QueryEngine.task",
                     "server.api", started, ended, ended - started - frame[2], None)
                )

        # The engine's own lock and semaphore waits fall inside
        # QueryEngine.wait; hide the stack so they are not recorded twice.
        local.stack = []
        try:
            return submit(self, task, **kwargs)
        finally:
            local.stack = stack

    wrapped.__wrapped__ = submit
    return wrapped


def _with_subclasses(cls: type) -> Iterable[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _with_subclasses(sub)


@contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every target for the length of the block, then restore them."""
    saved: List[Tuple[type, str, Any]] = []
    try:
        for module, cls, methods, layer in TARGETS:
            base = getattr(importlib.import_module(module), cls)
            for owner in _with_subclasses(base):
                for method in methods:
                    original = vars(owner).get(method)
                    if original is None or getattr(original, "__isabstractmethod__", False):
                        continue
                    saved.append((owner, method, original))
                    setattr(
                        owner, method,
                        _wrap(recorder, original, f"{owner.__name__}.{method}", layer, method),
                    )
        engine = getattr(importlib.import_module(ENGINE[0]), ENGINE[1])
        saved.append((engine, "submit", vars(engine)["submit"]))
        engine.submit = _wrap_submit(recorder, vars(engine)["submit"])
        yield recorder
    finally:
        for owner, method, original in reversed(saved):
            setattr(owner, method, original)


# ----------------------------------------------------------------------
# numbers from spans
# ----------------------------------------------------------------------
def operations(records: List[Dict[str, Any]], kind: str) -> Dict[int, Dict[str, Any]]:
    """Root spans of the ``client.<kind>`` operations, keyed by op id."""
    name = f"client.{kind}"
    return {r["op"]: r for r in records if r.get("name") == name}


def layer_rows(records: List[Dict[str, Any]], ops: Iterable[int]) -> Dict[str, Dict[str, float]]:
    """Per layer, over the spans of ``ops``: summed self time (seconds) and
    span count."""
    wanted = set(ops)
    table: Dict[str, Dict[str, float]] = {}
    for r in records:
        if "folded" in r:
            continue
        if r["op"] not in wanted:
            continue
        row = table.setdefault(r["layer"], {"self": 0.0, "calls": 0})
        row["self"] += r["self"]
        row["calls"] += 1
    return table


def coverage(records: List[Dict[str, Any]], ops: Dict[int, Dict[str, Any]]) -> float:
    """Share of the operations' wall time that is some named layer's self
    time, i.e. everything but the root spans' own self time."""
    wall = sum(root["end"] - root["start"] for root in ops.values())
    unattributed = sum(root["self"] for root in ops.values())
    return 1.0 - unattributed / wall if wall > 0 else 0.0


def outermost(records: List[Dict[str, Any]], ops: Iterable[int], layer: str,
              suffixes: Tuple[str, ...]) -> List[Dict[str, Any]]:
    """Spans of ``layer`` whose method name is in ``suffixes`` and whose
    parent is not a span of the same layer (a default ``search_batch`` that
    loops over ``search`` is counted once)."""
    wanted = set(ops)
    by_id = {r["id"]: r for r in records if "folded" not in r}
    found = []
    for r in by_id.values():
        if r["op"] not in wanted or r["layer"] != layer:
            continue
        if r["name"].rsplit(".", 1)[-1] not in suffixes:
            continue
        parent = by_id.get(r["parent"])
        if parent is not None and parent["layer"] == layer:
            continue
        found.append(r)
    return found


def write_jsonl(records: List[Dict[str, Any]], path: Path) -> None:
    """One JSON object per line; the parent directory is created."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for record in records:
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def read_jsonl(path: Path) -> List[Dict[str, Any]]:
    """The records :func:`write_jsonl` wrote."""
    with path.open() as handle:
        return [json.loads(line) for line in handle if line.strip()]


def summarize(directory: Path) -> str:
    """Per workload and operation kind: layer self time per operation, span
    count and trace.coverage, from the JSONL files in ``directory``."""
    lines: List[str] = []
    files = sorted(directory.glob("spans-*.jsonl"))
    if not files:
        raise FileNotFoundError(f"no spans-*.jsonl under {directory}")
    for path in files:
        records = read_jsonl(path)
        workload = path.stem[len("spans-"):]
        kinds = sorted(
            {r["name"][len("client."):] for r in records
             if r.get("layer") == CLIENT_LAYER}
        )
        for kind in kinds:
            ops = operations(records, kind)
            wall = sum(root["end"] - root["start"] for root in ops.values())
            lines.append(
                f"{workload}  client.{kind}: {len(ops)} operations, "
                f"{wall / len(ops) * 1000.0:.4f} ms/op, "
                f"trace.coverage {coverage(records, ops):.4f}"
            )
            lines.append(f"  {'layer':<22}{'self ms/op':>12}{'share':>9}{'spans/op':>10}")
            table = layer_rows(records, ops)
            for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self"]):
                lines.append(
                    f"  {layer:<22}{row['self'] / len(ops) * 1000.0:>12.4f}"
                    f"{row['self'] / wall:>9.3f}{row['calls'] / len(ops):>10.2f}"
                )
        folded = [r for r in records if "folded" in r]
        if folded:
            lines.append(f"{workload}  set-up kernel calls (folded, not kept one by one):")
            for r in folded:
                lines.append(
                    f"  {r['folded']:<40}{r['calls']:>9} calls{r['rows']:>11} rows"
                    f"{r['seconds']:>9.3f} s"
                )
        lines.append("")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2 or args[0] != "summarize":
        print("usage: python -m benchmarks.mqa_bench.spans summarize DIR", file=sys.stderr)
        return 2
    print(summarize(Path(args[1])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
