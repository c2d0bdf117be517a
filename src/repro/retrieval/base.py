"""Shared retrieval-framework interface and response types."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.data.knowledge_base import KnowledgeBase
from repro.data.modality import Modality
from repro.data.objects import RawQuery
from repro.encoders.base import EncodedCorpus, EncoderSet
from repro.errors import RetrievalError
from repro.index.base import SearchResult, SearchStats, VectorIndex
from repro.index.tiered import TieredStore, tiered_snapshot
from repro.observability import trace_span
from repro.utils import object_id_of

IndexBuilder = Callable[[], VectorIndex]
"""Zero-argument factory producing a fresh, unbuilt index instance."""

ObjectFilter = Callable[[int], bool]
"""Predicate over object ids used for filtered retrieval."""


@dataclass
class RetrievedItem:
    """One retrieved object.

    Attributes:
        object_id: Id in the knowledge base.
        score: Framework-specific distance/fused score; smaller is better.
        rank: Zero-based final rank.
    """

    object_id: int
    score: float
    rank: int


@dataclass
class RetrievalResponse:
    """Result of one retrieval call.

    Attributes:
        framework: Name of the producing framework.
        items: Retrieved objects, best first.
        stats: Accumulated search-work counters (all sub-searches merged).
        per_modality_ids: For MR, the raw per-stream rankings before fusion
            (empty for single-search frameworks) — surfaced so the UI can
            explain where merged results came from.
        per_modality_distances: The matching per-stream distances, aligned
            with ``per_modality_ids``.  Distances within one stream are
            globally comparable (same encoder, same metric), which is what
            lets :meth:`MultiStreamedRetrieval.merge` rebuild a global stream
            ranking from per-shard fragments and re-run fusion exactly.
        degraded_reasons: Non-empty when the response is partial — e.g.
            the shard router lost shards to open breakers and merged what
            remained.  Partial responses are never cached.
        cost: The per-query
            :class:`~repro.observability.costs.QueryCostProfile` when
            cost accounting is enabled, else None.  Never cached or
            copied — each call gets its own ledger.
    """

    framework: str
    items: List[RetrievedItem]
    stats: SearchStats = field(default_factory=SearchStats)
    per_modality_ids: Dict[Modality, List[int]] = field(default_factory=dict)
    per_modality_distances: Dict[Modality, List[float]] = field(
        default_factory=dict
    )
    degraded_reasons: List[str] = field(default_factory=list)
    cost: Optional[object] = None

    @property
    def ids(self) -> List[int]:
        """Retrieved object ids, best first."""
        return [item.object_id for item in self.items]

    def __len__(self) -> int:
        return len(self.items)


def merge_shard_topk(
    shard_results: Sequence[Sequence[Tuple[int, float]]],
    k: int,
    drop: "frozenset | set | None" = None,
) -> List[Tuple[int, float]]:
    """Exact top-``k`` merge of per-shard ``(object_id, score)`` lists.

    Smaller scores win; ties break on the object id so the merge is a
    deterministic function of its inputs.  Duplicate ids (an object live
    on two shards mid-move) keep their best-scoring occurrence.  ``drop``
    removes ids regardless of shard state — the router passes its deleted
    set so a removed object can never resurface from a stale copy.
    """
    best: Dict[int, float] = {}
    for results in shard_results:
        for object_id, score in results:
            if drop is not None and object_id in drop:
                continue
            current = best.get(object_id)
            if current is None or score < current:
                best[object_id] = score
    ranked = sorted(best.items(), key=lambda pair: (pair[1], pair[0]))
    return ranked[:k]


class RetrievalFramework(abc.ABC):
    """Lifecycle: ``setup`` once over a knowledge base, then ``retrieve``
    / ``retrieve_batch``.

    Subclasses store whatever index structures they need during setup; the
    base class only tracks common bookkeeping.
    """

    #: Registry identifier ("mr", "je", "must").
    name: str = "framework"

    #: The ``retrieve_batch`` options this framework honours.  Every
    #: framework *takes* every option (one signature); one it does not
    #: declare here is refused by :meth:`_check_options` when it is not
    #: None.  Query execution and the coordinator's degradation read it
    #: before calling; a shard router answers with the set of the framework
    #: it wraps plus ``fanout``.
    capabilities: frozenset = frozenset({"weights", "filter_fn"})

    def __init__(self) -> None:
        self.kb: Optional[KnowledgeBase] = None
        self.encoder_set: Optional[EncoderSet] = None
        self.setup_seconds: float = 0.0
        self._deleted: set = set()

    @property
    def is_ready(self) -> bool:
        """True once :meth:`setup` has completed."""
        return self.kb is not None

    def _require_ready(self) -> None:
        if not self.is_ready:
            raise RetrievalError(
                f"framework {self.name!r} has not been set up; call setup() first"
            )

    @abc.abstractmethod
    def setup(
        self,
        kb: KnowledgeBase,
        encoder_set: EncoderSet,
        index_builder: IndexBuilder,
        weights: "Dict[Modality, float] | None" = None,
        corpus: "EncodedCorpus | None" = None,
    ) -> None:
        """Build the framework's index structures over the encoded ``kb``.

        Args:
            kb: The knowledge base to serve.
            encoder_set: Modality -> encoder assignment.
            index_builder: Factory for each index instance the framework
                needs (MR calls it once per modality).
            weights: Modality weights; only MUST uses them, the others
                accept and ignore them so callers can pass uniformly.
            corpus: ``encoder_set.encode_corpus(list(kb))`` when the caller
                already holds it (row ``i`` = the ``i``-th object of
                ``kb``).  The set-up pipeline encodes once in the
                representation stage and hands the same
                :class:`~repro.encoders.base.EncodedCorpus` to every
                framework — and, gathered once per shard, to both replicas
                of a shard — so MUST, MR, JE and their shards index the same
                floats, and MUST and MR index them where they lie: MUST its
                :attr:`~repro.encoders.base.EncodedCorpus.matrix`, MR its
                per-modality views.  Omitted, the framework encodes ``kb``
                itself; every implementation reads it through
                :meth:`_corpus`.  The corpus is never written (an index that
                keeps it as its rows copies them on its first ``add``).
        """

    @staticmethod
    def _corpus(
        kb: KnowledgeBase,
        encoder_set: EncoderSet,
        corpus: "EncodedCorpus | None",
    ) -> EncodedCorpus:
        """The encoded corpus :meth:`setup` builds over: the one handed
        in, else ``kb`` encoded here."""
        if corpus is None:
            return encoder_set.encode_corpus(list(kb))
        return corpus

    def retrieve(
        self, query: RawQuery, k: int, budget: int = 64, **kwargs
    ) -> RetrievalResponse:
        """Return the top-``k`` objects for ``query``: a batch of one."""
        return self.retrieve_batch([query], k, budget=budget, **kwargs)[0]

    @abc.abstractmethod
    def retrieve_batch(
        self,
        queries: Sequence[RawQuery],
        k: int,
        budget: int = 64,
        *,
        weights: "Dict[Modality, float] | None" = None,
        filter_fn: "ObjectFilter | None" = None,
    ) -> List[RetrievalResponse]:
        """Top-``k`` for every query; results in input order.

        The one retrieval body of a framework: encode and index dispatches
        are shared across the batch, and element ``i`` does not depend on
        the rest of it (same ids, same scores as a batch of that query
        alone).  Every framework repeats this parameter list; the two
        options are keyword-only, apply to the whole batch, and this is
        their reference:

        * ``weights`` — modality importances for this call only ("modality
          weights at the query point").  MUST searches its one index under
          the re-weighted kernel, so the answer is the index's answer under
          those weights; MR can only scale each stream's contribution at
          fusion time, after every stream has searched blind; JE has one
          fused vector per object and does not honour it.
        * ``filter_fn`` — a predicate over object ids; only ids it admits
          are returned (metadata-filtered search).  A graph traversal still
          flows *through* non-matching vertices.

        An option the framework does not list in :attr:`capabilities` is
        refused (:meth:`_check_options`) rather than ignored.
        """

    def _check_options(self, weights, filter_fn, error: type = RetrievalError) -> None:
        """Refuse an option that is set but not in :attr:`capabilities`.

        The one refusal: a framework or the shard router raises it as
        :class:`RetrievalError`, query execution as ``SearchError`` *before*
        any retrieval work — so a genuine ``TypeError`` raised inside
        retrieval propagates instead of being misread as a missing
        capability.
        """
        if weights is not None and "weights" not in self.capabilities:
            raise error(
                f"framework {self.name!r} does not support per-query modality weights"
            )
        if filter_fn is not None and "filter_fn" not in self.capabilities:
            raise error(f"framework {self.name!r} does not support filtered retrieval")

    def merge(
        self,
        partials: Sequence[RetrievalResponse],
        k: int,
        *,
        drop: frozenset = frozenset(),
        weights: "Dict[Modality, float] | None" = None,
    ) -> RetrievalResponse:
        """One query's top-``k`` from partial answers over disjoint (or,
        mid-move, overlapping) parts of the corpus — one per shard.

        The one place a framework says how its partial answers combine; it
        reads no index, so a never-set-up instance can be asked.  Here:
        scores are distances, comparable across parts, so the merge is the
        exact ``(score, object_id)`` top-``k`` of :func:`merge_shard_topk`
        — what JE and MUST need.  ``drop`` ids never surface; ``weights``
        is the weighting the partials were retrieved under (a framework
        whose scores are not mergeable re-derives them from it — MR).  The
        work counters are summed, and the result is named after the first
        part that is not an ``empty-shard`` placeholder.
        """
        ranked = merge_shard_topk(
            [
                [(item.object_id, item.score) for item in partial.items]
                for partial in partials
            ],
            k,
            drop=drop,
        )
        name, stats = self._summary(partials)
        items = [
            RetrievedItem(object_id=object_id, score=score, rank=rank)
            for rank, (object_id, score) in enumerate(ranked)
        ]
        return RetrievalResponse(framework=name, items=items, stats=stats)

    @staticmethod
    def _summary(partials: Sequence[RetrievalResponse]) -> Tuple[str, SearchStats]:
        """What a merged response inherits from its parts: the name of the
        framework that answered (skipping ``empty-shard`` placeholders) and
        the summed work counters."""
        stats = SearchStats()
        for partial in partials:
            stats.merge(partial.stats)
        named = [p.framework for p in partials if p.framework != "empty-shard"]
        return (named[0] if named else partials[0].framework), stats

    def _search(
        self, index: VectorIndex, queries, k: int, budget: int,
        filter_fn: "ObjectFilter | None", kernel=None, **span_attributes,
    ) -> List[SearchResult]:
        """The ``index-search`` block of every framework: one
        ``search_batch`` under one span, tombstones folded into the filter,
        the work counters on the span."""
        with trace_span(
            "index-search", **span_attributes, k=k, budget=budget, queries=len(queries)
        ) as span:
            outcomes = index.search_batch(
                queries, k=k, budget=budget, kernel=kernel,
                admit=self._compose_filter(filter_fn),
            )
            span.set(
                hops=sum(o.stats.hops for o in outcomes),
                distance_evaluations=sum(
                    o.stats.distance_evaluations for o in outcomes
                ),
            )
        return outcomes

    def _respond(self, outcome: SearchResult) -> RetrievalResponse:
        """One index result as this framework's response, ranked as found."""
        items = [
            RetrievedItem(object_id=object_id, score=distance, rank=rank)
            for rank, (object_id, distance) in enumerate(
                zip(outcome.ids, outcome.distances)
            )
        ]
        return RetrievalResponse(framework=self.name, items=items, stats=outcome.stats)

    def add_object(self, obj) -> int:
        """Index one newly ingested object; returns its index id.

        The object's id must equal the framework's current corpus size
        (dense ids).  Frameworks whose indexes cannot grow propagate the
        underlying :class:`repro.errors.IndexError_`.
        """
        raise RetrievalError(
            f"framework {self.name!r} does not support incremental ingestion"
        )

    # ------------------------------------------------------------------
    # deletion (tombstones)
    # ------------------------------------------------------------------
    def remove_object(self, object_id: int) -> None:
        """Tombstone ``object_id``: it stays in the index structure (graph
        edges may still route *through* it) but never appears in results.

        Ids stay dense, so re-ingestion after deletion keeps working.
        """
        self._require_ready()
        object_id = object_id_of(object_id, RetrievalError)
        self._deleted.add(object_id)

    @property
    def deleted_ids(self) -> frozenset:
        """The tombstoned object ids."""
        return frozenset(self._deleted)

    def restore_object(self, object_id: int) -> None:
        """Remove ``object_id``'s tombstone (the inverse of
        :meth:`remove_object`).

        Tombstoning never mutates index structures, so restoring is always
        safe; the coordinator uses it to roll back a failed removal.  A
        never-tombstoned id is a no-op.
        """
        self._require_ready()
        self._deleted.discard(object_id)

    def _compose_filter(self, filter_fn: "ObjectFilter | None") -> "ObjectFilter | None":
        """Fold tombstones into a result filter."""
        if not self._deleted:
            return filter_fn
        deleted = self._deleted
        if filter_fn is None:
            return lambda object_id: object_id not in deleted
        return lambda object_id: object_id not in deleted and filter_fn(object_id)

    def tiered_stores(self) -> Iterator[Tuple[str, TieredStore]]:
        """``(label, store)`` for every tiered store this framework serves
        from: ``joint`` for a single index, the modality per MR stream, and
        ``shard{g}/replica{r}/`` in front behind a shard router."""
        return iter(())

    def ledgers(self) -> Dict[str, Callable[[], "dict | None"]]:
        """The named ledgers this framework adds to the coordinator's table
        (``tiered`` reads None while no store is tiered)."""
        return {"tiered": lambda: tiered_snapshot(self)}

    def describe(self) -> str:
        """One-line summary for the status panel."""
        state = "ready" if self.is_ready else "not set up"
        return f"retrieval framework {self.name!r}: {state}"
