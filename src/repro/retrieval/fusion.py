"""Rank-fusion strategies for Multi-streamed Retrieval.

MR runs one vector search per modality and must merge the per-stream
rankings into one list — precisely the step MUST's merging-free search
avoids.  Three classic strategies are provided; RRF is the default because
it is score-scale-free (per-modality distances are not comparable across
encoders with different output spaces).
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.errors import RetrievalError
from repro.index.base import SearchStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.retrieval.base import RetrievalResponse


class FusionStrategy(str, enum.Enum):
    """How per-modality rankings are merged."""

    RRF = "rrf"
    COMBSUM = "combsum"
    ROUND_ROBIN = "round_robin"

    @classmethod
    def parse(cls, value: "str | FusionStrategy") -> "FusionStrategy":
        """Coerce a string such as ``"rrf"`` into a strategy."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value.lower())
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise RetrievalError(
                f"unknown fusion strategy {value!r}; expected one of: {valid}"
            ) from None


def _rrf(
    rankings: Sequence[List[int]],
    k: int,
    constant: float,
    stream_weights: Sequence[float],
) -> List[Tuple[int, float]]:
    scores: Dict[int, float] = {}
    for ranking, weight in zip(rankings, stream_weights):
        for rank, object_id in enumerate(ranking):
            scores[object_id] = scores.get(object_id, 0.0) + weight / (
                constant + rank + 1
            )
    # Items supported only by zero-weight streams carry no evidence.
    ordered = sorted(
        ((i, s) for i, s in scores.items() if s > 0.0),
        key=lambda pair: (-pair[1], pair[0]),
    )
    # RRF scores grow with quality; negate so "smaller is better" holds.
    return [(object_id, -score) for object_id, score in ordered[:k]]


def _combsum(
    rankings: Sequence[List[int]],
    distances: Sequence[List[float]],
    k: int,
    stream_weights: Sequence[float],
) -> List[Tuple[int, float]]:
    scores: Dict[int, float] = {}
    support: Dict[int, float] = {}  # strongest stream weight backing the item
    for ranking, stream_distances, weight in zip(rankings, distances, stream_weights):
        if not ranking:
            continue
        low = min(stream_distances)
        high = max(stream_distances)
        span = (high - low) or 1.0
        for object_id, distance in zip(ranking, stream_distances):
            normalised = (distance - low) / span
            scores[object_id] = scores.get(object_id, 0.0) + weight * (1.0 - normalised)
            support[object_id] = max(support.get(object_id, 0.0), weight)
    # Items backed only by zero-weight streams carry no evidence.
    ordered = sorted(
        ((i, s) for i, s in scores.items() if support[i] > 0.0),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return [(object_id, -score) for object_id, score in ordered[:k]]


def _round_robin(rankings: Sequence[List[int]], k: int) -> List[Tuple[int, float]]:
    merged: List[Tuple[int, float]] = []
    seen = set()
    position = 0
    while len(merged) < k:
        progressed = False
        for ranking in rankings:
            if position < len(ranking):
                progressed = True
                object_id = ranking[position]
                if object_id not in seen:
                    seen.add(object_id)
                    merged.append((object_id, float(len(merged))))
                    if len(merged) == k:
                        break
        if not progressed:
            break
        position += 1
    return merged


def fuse_rankings(
    rankings: Sequence[List[int]],
    distances: Sequence[List[float]],
    k: int,
    strategy: FusionStrategy = FusionStrategy.RRF,
    rrf_constant: float = 60.0,
    stream_weights: "Sequence[float] | None" = None,
) -> List[Tuple[int, float]]:
    """Merge per-modality rankings into one top-``k`` list.

    Args:
        rankings: Object-id lists, one per modality stream, best first.
        distances: Matching distance lists (used by COMBSUM only).
        k: Result count.
        strategy: Fusion rule.
        rrf_constant: The RRF smoothing constant (60 in the original paper).
        stream_weights: Per-stream importances (RRF/COMBSUM only); default
            equal.  This is how MR honours modality weights — at the rank
            level, after each stream already searched blind.

    Returns:
        ``(object_id, fused_score)`` pairs, best first; smaller is better.
    """
    if not rankings:
        raise RetrievalError("fusion needs at least one ranking")
    if len(rankings) != len(distances):
        raise RetrievalError(
            f"{len(rankings)} rankings but {len(distances)} distance lists"
        )
    if stream_weights is None:
        stream_weights = [1.0] * len(rankings)
    elif len(stream_weights) != len(rankings):
        raise RetrievalError(
            f"{len(rankings)} rankings but {len(stream_weights)} stream weights"
        )
    elif not all(math.isfinite(w) for w in stream_weights):
        raise RetrievalError(f"stream weights must be finite, got {list(stream_weights)}")
    elif any(w < 0 for w in stream_weights):
        raise RetrievalError("stream weights must be non-negative")
    strategy = FusionStrategy.parse(strategy)
    if strategy is FusionStrategy.RRF:
        return _rrf(rankings, k, rrf_constant, stream_weights)
    if strategy is FusionStrategy.COMBSUM:
        return _combsum(rankings, distances, k, stream_weights)
    return _round_robin(rankings, k)


def fuse_responses(
    responses: "Sequence[RetrievalResponse]",
    k: int,
    strategy: FusionStrategy = FusionStrategy.RRF,
    rrf_constant: float = 60.0,
    stream_weights: "Sequence[float] | None" = None,
) -> "RetrievalResponse":
    """Merge whole :class:`~repro.retrieval.base.RetrievalResponse`s.

    The agentic answerer's cross-hop merge: each hop's response is one
    stream, fused exactly like MR fuses per-modality streams.  Objects
    surfacing in several hops (likely members of the composed-concept
    neighbourhood) accumulate reciprocal-rank mass and float up.

    The merged response carries the first response's framework name, the
    summed work counters of every hop, and the union of degraded reasons;
    per-modality breakdowns and cost ledgers stay on the originals.
    """
    from repro.retrieval.base import RetrievalResponse, RetrievedItem

    if not responses:
        raise RetrievalError("fusion needs at least one response")
    fused = fuse_rankings(
        [response.ids for response in responses],
        [[item.score for item in response.items] for response in responses],
        k,
        strategy=strategy,
        rrf_constant=rrf_constant,
        stream_weights=stream_weights,
    )
    stats = SearchStats()
    for response in responses:
        stats.merge(response.stats)
    degraded: List[str] = []
    for response in responses:
        for reason in response.degraded_reasons:
            if reason not in degraded:
                degraded.append(reason)
    return RetrievalResponse(
        framework=responses[0].framework,
        items=[
            RetrievedItem(object_id=object_id, score=score, rank=rank)
            for rank, (object_id, score) in enumerate(fused)
        ],
        stats=stats,
        degraded_reasons=degraded,
    )
