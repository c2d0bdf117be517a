"""Shared retrieval-framework interface and response types."""

from __future__ import annotations

import abc
import inspect
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.data.knowledge_base import KnowledgeBase
from repro.data.modality import Modality
from repro.data.objects import RawQuery
from repro.encoders.base import EncoderSet
from repro.errors import RetrievalError
from repro.index.base import SearchResult, SearchStats, VectorIndex
from repro.observability import trace_span

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
            lets the shard router rebuild a global stream ranking from
            per-shard fragments and re-run fusion exactly.
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


class RetrievalFramework(abc.ABC):
    """Lifecycle: ``setup`` once over a knowledge base, then ``retrieve``
    / ``retrieve_batch``.

    Subclasses store whatever index structures they need during setup; the
    base class only tracks common bookkeeping.
    """

    #: Registry identifier ("mr", "je", "must").
    name: str = "framework"

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
        corpus: "Dict[Modality, np.ndarray] | None" = None,
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
                representation stage and hands the same matrices to every
                framework — and, sliced by row, to every shard replica — so
                MUST, MR, JE and their shards index the same floats.
                Omitted, the framework encodes ``kb`` itself; every
                implementation reads it through :meth:`_corpus`.  The
                matrices are never written (an index that keeps one as its
                rows copies it on its first ``add``).
        """

    @staticmethod
    def _corpus(
        kb: KnowledgeBase,
        encoder_set: EncoderSet,
        corpus: "Dict[Modality, np.ndarray] | None",
    ) -> Dict[Modality, np.ndarray]:
        """The corpus matrices :meth:`setup` builds over: the ones handed
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
        self, queries: Sequence[RawQuery], k: int, budget: int = 64
    ) -> List[RetrievalResponse]:
        """Top-``k`` for every query; results in input order.

        The one retrieval body of a framework: encode and index dispatches
        are shared across the batch, and element ``i`` does not depend on
        the rest of it (same ids, same scores as a batch of that query
        alone).  Concrete frameworks add optional keywords (``filter_fn``,
        ``weights``, ...), which apply to the whole batch; callers read
        which from :attr:`capabilities`.
        """

    @cached_property
    def capabilities(self) -> frozenset:
        """The optional keywords this framework's ``retrieve_batch`` takes
        (``retrieve`` forwards ``**kwargs`` and would say "everything").

        The one capability reader: query execution refuses ``weights`` /
        ``filter_fn`` a framework does not declare, and the coordinator's
        degradation asks before re-weighting — both *before* calling, so a
        genuine ``TypeError`` raised inside retrieval propagates instead of
        being misread as a missing capability.  A ``**kwargs`` body is
        taken to accept both.  Read once per instance.
        """
        parameters = inspect.signature(self.retrieve_batch).parameters
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
            return frozenset({"weights", "filter_fn"})
        return frozenset(parameters)

    def _search(
        self, index: VectorIndex, queries, k: int, budget: int,
        filter_fn: "ObjectFilter | None", kernel=None, use_pruning: bool = False,
        **span_attributes,
    ) -> List[SearchResult]:
        """The ``index-search`` block of every framework: one
        ``search_batch`` under one span, tombstones folded into the filter,
        the work counters on the span."""
        with trace_span(
            "index-search", **span_attributes, k=k, budget=budget, queries=len(queries)
        ) as span:
            outcomes = index.search_batch(
                queries, k=k, budget=budget, kernel=kernel,
                admit=self._compose_filter(filter_fn), use_pruning=use_pruning,
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
        if not isinstance(object_id, int) or object_id < 0:
            raise RetrievalError(f"invalid object id: {object_id!r}")
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

    def describe(self) -> str:
        """One-line summary for the status panel."""
        state = "ready" if self.is_ready else "not set up"
        return f"retrieval framework {self.name!r}: {state}"
