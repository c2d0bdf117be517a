"""Deterministic re-execution of flight-recorder entries.

A recording carries the full system configuration plus every request's
context, and the whole stack is seeded (datasets, encoders, learned
weights, graph construction), so rebuilding the system from the recorded
config and re-issuing a recorded query must reproduce the *same retrieved
ids* and the *same span-tree shape*.  :func:`replay_recording` does
exactly that and reports the diff — a regression harness for the serving
path: record a flight in production, replay it against a new build, and
any behavioural drift surfaces as a dirty report.

Span trees are compared by *structure* (the depth-first sequence of span
paths), not by timings or attributes: durations always differ across
runs, and attributes like ``cache=hit`` legitimately differ between a
warm recording and a cold replay.

Imports of :mod:`repro.core` happen inside functions — the coordinator
itself imports :mod:`repro.observability`, and keeping this module leaf
avoids the cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.errors import MQAError
from repro.observability.recorder import read_recording
from repro.observability.tracing import Span


class ReplayError(MQAError):
    """A recording that cannot be replayed."""


def span_paths(tree: Optional[Mapping[str, Any]]) -> List[str]:
    """Depth-first semicolon-joined paths of a span-tree dict.

    Two trees have equal path lists iff they have identical shape and
    names, which is the replay contract.  A tree that is not one raises
    ValueError (:meth:`Span.from_dict`).
    """
    return [] if tree is None else [path for path, _ in Span.from_dict(tree).paths()]


@dataclass
class ReplayReport:
    """The diff between one recorded query and its re-execution.

    Attributes:
        trace_id: The recording's trace id.
        recorded_ids / replayed_ids: Retrieved object ids, best first.
        recorded_paths / replayed_paths: Depth-first span paths.
        skipped: Reason the entry could not be re-executed (e.g. a
            non-serialisable result filter was in force), else None.
    """

    trace_id: int
    recorded_ids: List[int] = field(default_factory=list)
    replayed_ids: List[int] = field(default_factory=list)
    recorded_paths: List[str] = field(default_factory=list)
    replayed_paths: List[str] = field(default_factory=list)
    skipped: Optional[str] = None

    @property
    def ids_match(self) -> bool:
        """True when replay retrieved the recorded ids in order."""
        return self.recorded_ids == self.replayed_ids

    @property
    def spans_match(self) -> bool:
        """True when the replayed span tree has the recorded shape."""
        return self.recorded_paths == self.replayed_paths

    @property
    def clean(self) -> bool:
        """True when nothing drifted (skipped entries are not clean)."""
        return self.skipped is None and self.ids_match and self.spans_match

    def render(self) -> str:
        """Multi-line human-readable diff."""
        if self.skipped is not None:
            return f"trace {self.trace_id}: SKIPPED ({self.skipped})"
        lines = [f"trace {self.trace_id}: {'clean' if self.clean else 'DRIFT'}"]
        if self.ids_match:
            lines.append(f"  result ids: identical ({self.recorded_ids})")
        else:
            lines.append(f"  result ids: recorded {self.recorded_ids}")
            lines.append(f"              replayed {self.replayed_ids}")
        if self.spans_match:
            lines.append(f"  span tree:  identical ({len(self.recorded_paths)} spans)")
        else:
            missing = [p for p in self.recorded_paths if p not in self.replayed_paths]
            extra = [p for p in self.replayed_paths if p not in self.recorded_paths]
            lines.append("  span tree:  shape drift")
            if missing:
                lines.append(f"              missing: {missing}")
            if extra:
                lines.append(f"              extra:   {extra}")
        return "\n".join(lines)


#: Config fields that shape the scatter topology.  A replay served by a
#: system with a different topology produces span-tree "drift" that is
#: really a deployment mismatch, so it is rejected up front with a
#: field-by-field diff instead of reported as a regression.
TOPOLOGY_FIELDS = ("shards", "replicas", "partitioner")


def _recorded_config(header: "Mapping[str, Any] | None") -> Dict[str, Any]:
    """The header's ``config`` ({} when absent); ReplayError if not an object."""
    config = (header or {}).get("config") or {}
    if not isinstance(config, Mapping):
        raise ReplayError(f"recording header's config is not an object: {config!r:.60}")
    return dict(config)


def validate_topology(header: "Mapping[str, Any] | None", coordinator) -> None:
    """Reject replaying onto a coordinator with a mismatched topology.

    Only meaningful when the caller supplies its own coordinator (a live
    server, a test fixture); a coordinator rebuilt from the header
    matches by construction.  Headerless recordings cannot be checked
    and pass through.
    """
    config_data = _recorded_config(header)
    if not config_data:
        return
    mismatches = []
    for name in TOPOLOGY_FIELDS:
        recorded = config_data.get(name)
        live = getattr(coordinator.config, name, None)
        if recorded != live:
            mismatches.append(
                f"{name}: recorded {recorded!r} != live {live!r}"
            )
    if mismatches:
        raise ReplayError(
            "sharding topology mismatch between the recording and the "
            "live system — rebuild with the recorded topology or replay "
            "without an explicit coordinator:\n  " + "\n  ".join(mismatches)
        )


def build_replay_coordinator(header: Mapping[str, Any]):
    """Rebuild the recorded system: same config, tracing on, recorder off.

    The recorder is disabled (a replay must not append to the flight it is
    replaying) and monitoring is disabled (scoring would skew nothing but
    costs time); everything that affects retrieval is kept verbatim.
    """
    from repro.core.config import MQAConfig
    from repro.core.coordinator import Coordinator

    config_data = _recorded_config(header)
    if not config_data:
        raise ReplayError("recording header carries no configuration")
    config_data.update(tracing=True, recorder_path=None, monitoring=False)
    try:
        config = MQAConfig.from_dict(config_data)
    except MQAError as exc:
        raise ReplayError(f"recording header's config is refused: {exc}") from exc
    return Coordinator(config).setup()


def _rebuild_query(request: Mapping[str, Any]):
    from repro.data.modality import Modality
    from repro.data.objects import RawQuery

    content: Dict[Any, Any] = {Modality.TEXT: str(request.get("text", ""))}
    image = request.get("image")
    if image is not None:
        content[Modality.IMAGE] = np.asarray(image, dtype=np.float64)
    return RawQuery(content=content, metadata=dict(request.get("metadata") or {}))


def replay_entry(coordinator, entry: Mapping[str, Any]) -> ReplayReport:
    """Re-execute one recorded query and diff it against the recording."""
    from repro.llm.prompts import DialogueTurn

    request = dict(entry.get("request") or {})
    report = ReplayReport(
        trace_id=int(entry.get("trace_id", -1)),
        recorded_ids=[int(i) for i in entry.get("result_ids", [])],
        recorded_paths=span_paths(entry.get("span_tree")),
    )
    if request.get("filtered"):
        report.skipped = "recorded with a non-serialisable result filter"
        return report
    history = [
        DialogueTurn(
            user_text=str(turn.get("user", "")),
            system_text=str(turn.get("system", "")),
        )
        for turn in request.get("history", ())
    ]
    answer = coordinator.handle_query(
        _rebuild_query(request),
        history=history,
        preferred_ids=[int(i) for i in request.get("preferred_ids", ())],
        round_index=int(request.get("round_index", 0)),
        k=request.get("k"),
        weights=request.get("weights"),
        exclude_ids=[int(i) for i in request.get("exclude_ids", ())],
    )
    report.replayed_ids = list(answer.ids)
    last = coordinator.tracer.last_trace
    report.replayed_paths = span_paths(last.to_dict() if last is not None else None)
    return report


def replay_recording(
    path: "str | Path",
    trace_id: Optional[int] = None,
    coordinator=None,
) -> List[ReplayReport]:
    """Replay a recording file (or one entry of it) and return the diffs.

    Args:
        path: The JSONL recording.
        trace_id: Replay only this entry when given.
        coordinator: Re-use an already built system (tests, the live
            server); rebuilt from the recording's header otherwise.  An
            explicit coordinator must match the recording's sharding
            topology (:func:`validate_topology` diffs and rejects
            mismatches before any entry runs).
    """
    header, entries = read_recording(path)
    if trace_id is not None:
        entries = [e for e in entries if int(e.get("trace_id", -1)) == trace_id]
        if not entries:
            raise ReplayError(f"recording has no entry with trace id {trace_id}")
    if not entries:
        raise ReplayError(f"recording {path} holds no query entries")
    for entry in entries:  # a corrupt span tree is refused before the rebuild
        span_paths(entry.get("span_tree"))
    if coordinator is None:
        if header is None:
            raise ReplayError(
                f"recording {path} has no header; pass an explicit coordinator"
            )
        coordinator = build_replay_coordinator(header)
    else:
        validate_topology(header, coordinator)
    return [replay_entry(coordinator, entry) for entry in entries]
