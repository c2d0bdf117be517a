"""The flight recorder: a bounded, rotating JSONL sink for query traces.

PR 1's tracer keeps the last N span trees *in process*; they die with the
server and cannot be diffed across runs.  The :class:`FlightRecorder`
persists every finished query — span tree plus enough request context
(text, image payload, weights, history, exclusions) that
``python -m repro replay <trace-file>`` can deterministically re-execute
it against a freshly built system and diff result ids and span structure
against the recording.

File format (one JSON object per line):

* line 1 — a ``{"kind": "header", "version": 1, "config": {...}}`` record
  carrying the full :class:`~repro.core.config.MQAConfig` so replay can
  rebuild the exact system (same dataset seed → byte-identical corpus).
* every other line — a ``{"kind": "query", "trace_id": n, ...}`` record
  with ``request``, ``result_ids``, ``answer``, and ``span_tree`` keys.

The sink is size-capped: when the active file exceeds ``max_bytes`` it is
rotated to ``<path>.1`` (older generations shift to ``.2``, ``.3``, ...)
and generations beyond ``max_files`` are deleted, so a long-running server
holds a bounded window of recent flights.  Every fresh file re-writes the
header, keeping each generation independently replayable.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.data.modality import Modality

RECORDING_VERSION = 1


def _json_default(value: Any) -> Any:
    """Encode numpy payloads (image grids, scalars) as plain JSON."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"cannot serialise {type(value).__name__} into a recording")


class FlightRecorder:
    """Append query records to a rotating JSONL file.

    Args:
        path: Active recording file (parent directories are created).
        config: JSON-ready system configuration written into each header.
        max_bytes: Rotation threshold for the active file.
        max_files: Rotated generations kept (``<path>.1`` .. ``<path>.N``);
            the active file is on top of these.
        metrics: Optional :class:`~repro.observability.MetricsRegistry`;
            recorder I/O failures increment its ``recorder.errors`` counter.

    Writes serialise on an internal lock, so one recorder can be shared by
    every request thread of a server.

    Recording is an observability side-channel: an I/O failure while
    persisting a flight (disk full, rotated file vanished, closed handle)
    is *counted* — ``errors`` attribute plus the ``recorder.errors``
    metric — but never fails the query that was being recorded.
    """

    def __init__(
        self,
        path: "str | Path",
        config: Optional[Dict[str, Any]] = None,
        max_bytes: int = 4_000_000,
        max_files: int = 3,
        metrics=None,
    ) -> None:
        if max_bytes < 1024:
            raise ValueError(f"max_bytes must be >= 1024, got {max_bytes}")
        if max_files < 1:
            raise ValueError(f"max_files must be >= 1, got {max_files}")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.max_files = max_files
        self.config = dict(config or {})
        self.metrics = metrics
        self.records_written = 0
        self.rotations = 0
        self.errors = 0
        self._trace_id = 0
        self._lock = threading.Lock()
        self._handle: Optional[Any] = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._size = self.path.stat().st_size if self.path.exists() else 0
        if self._size == 0:
            self._write_header()

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _write_header(self) -> None:
        header = {
            "kind": "header",
            "version": RECORDING_VERSION,
            "config": self.config,
        }
        self._append_line(json.dumps(header, default=_json_default))

    def _append_line(self, line: str) -> None:
        # The handle stays open across records (re-opening per append
        # dominates the cost of a record); flush keeps the file tailable.
        data = line + "\n"
        if self._handle is None:
            self._handle = self.path.open("a", encoding="utf-8")
        self._handle.write(data)
        self._handle.flush()
        self._size += len(data.encode("utf-8"))

    def _rotate(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        for generation in range(self.max_files, 0, -1):
            rotated = self.path.with_name(f"{self.path.name}.{generation}")
            if generation == self.max_files:
                rotated.unlink(missing_ok=True)
                continue
            if rotated.exists():
                rotated.rename(self.path.with_name(f"{self.path.name}.{generation + 1}"))
        self.path.rename(self.path.with_name(f"{self.path.name}.1"))
        self._size = 0
        self.rotations += 1
        self._write_header()

    def record(
        self,
        request: Dict[str, Any],
        result_ids: List[int],
        span_tree: Optional[Dict[str, Any]],
        answer: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Persist one finished query; returns its trace id.

        Args:
            request: Everything needed to re-issue the query (text, image
                payload, k, weights, history, exclusions, round index).
            result_ids: Retrieved object ids, best first.
            span_tree: The finished trace as a JSON-ready dict.
            answer: Optional answer summary (text, grounded flag).
        """
        with self._lock:
            trace_id = self._trace_id
            self._trace_id += 1
            entry = {
                "kind": "query",
                "trace_id": trace_id,
                "request": request,
                "result_ids": [int(i) for i in result_ids],
                "answer": answer or {},
                "span_tree": span_tree,
            }
            try:
                self._append_line(json.dumps(entry, default=_json_default))
                self.records_written += 1
                if self._size > self.max_bytes:
                    self._rotate()
            except OSError:
                # A lost recording must not fail the recorded query; the
                # counter makes the loss visible instead of silent.
                self._count_error()
        return trace_id

    def observe_round(self, context) -> None:
        """The ``recorder`` observer (``recorder_path``): persist one finished
        dialogue round — a raw batch has no answer and is not recorded."""
        answer, query = context.answer, context.submitted
        if answer is None:
            return
        request: Dict[str, Any] = {
            "text": context.user_text,
            "k": context.k,
            "round_index": context.round_index,
            "preferred_ids": [int(i) for i in context.preferred_ids],
            "exclude_ids": [int(i) for i in context.exclude_ids],
            "history": [
                {"user": turn.user_text, "system": turn.system_text}
                for turn in context.history
            ],
            "metadata": dict(query.metadata),
        }
        if context.had_image:
            request["image"] = query.get(Modality.IMAGE)
        if context.weights is not None:
            request["weights"] = {
                (m.value if isinstance(m, Modality) else str(m)): float(w)
                for m, w in context.weights.items()
            }
        if context.filter_fn is not None:
            # Predicates are arbitrary callables; replay skips such entries.
            request["filtered"] = True
        self.record(
            request,
            result_ids=list(answer.ids),
            span_tree=context.trace.to_dict(),
            answer={"text": answer.text, "grounded": answer.grounded, "llm": answer.llm},
        )

    def _count_error(self) -> None:
        self.errors += 1
        if self.metrics is not None:
            self.metrics.inc("recorder.errors")

    def close(self) -> None:
        """Release the underlying file handle (safe to call twice).

        A failing close (e.g. buffered data hitting a full disk) is
        counted like any other recorder I/O error, not raised.
        """
        with self._lock:
            if self._handle is not None:
                handle, self._handle = self._handle, None
                try:
                    handle.close()
                except OSError:
                    self._count_error()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            # During interpreter teardown even the counters may be gone;
            # close() already accounts for ordinary I/O failures.
            pass

    def snapshot(self) -> Dict[str, Any]:
        """Recorder state for ``/health`` and the status panel."""
        return {
            "path": str(self.path),
            "records_written": self.records_written,
            "rotations": self.rotations,
            "errors": self.errors,
            "active_bytes": self._size,
            "max_bytes": self.max_bytes,
            "max_files": self.max_files,
        }


def read_recording(
    path: "str | Path",
) -> Tuple[Optional[Dict[str, Any]], List[Dict[str, Any]]]:
    """Load one recording file → ``(header, query_entries)``.

    Blank lines are skipped; the header may be absent (None) when reading
    a truncated or hand-built file.
    """
    header: Optional[Dict[str, Any]] = None
    entries: List[Dict[str, Any]] = []
    text = Path(path).read_text(encoding="utf-8")
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}:{line_number}: not valid JSONL ({exc.msg})"
            ) from None
        if not isinstance(record, dict):
            raise ValueError(f"{path}:{line_number}: not a JSON object")
        kind = record.get("kind")
        if kind == "header":
            if header is None:
                header = record
        elif kind == "query":
            entries.append(record)
    return header, entries
