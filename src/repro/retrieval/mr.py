"""Multi-streamed Retrieval (MR): per-modality searches merged afterwards.

The framework Milvus-style systems use for multi-modal data: each modality
gets its own single-vector index; a query searches every stream it has
content for, and the per-stream rankings are fused.  Its weakness — shown
in the paper's Figure 5 — is that fusion happens on *ranks*, after each
stream has already discarded cross-modal context: an object that is
mediocre in every single modality but best overall never surfaces.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data.knowledge_base import KnowledgeBase
from repro.data.modality import Modality
from repro.data.objects import RawQuery
from repro.distance import SingleVectorKernel
from repro.encoders.base import EncoderSet
from repro.errors import RetrievalError
from repro.index.base import SearchStats, VectorIndex
from repro.observability import trace_span
from repro.retrieval.base import (
    IndexBuilder,
    ObjectFilter,
    RetrievalFramework,
    RetrievalResponse,
    RetrievedItem,
    merge_shard_topk,
)
from repro.retrieval.fusion import FusionStrategy, fuse_rankings

Stream = Tuple[Sequence[int], Sequence[float]]
"""One modality stream of one query: ``(ids, distances)``, best first."""


class MultiStreamedRetrieval(RetrievalFramework):
    """One index per modality plus rank fusion.

    Args:
        fusion: Merge strategy for per-stream rankings.
        expansion: Each stream retrieves ``expansion * k`` candidates so the
            fused list has enough overlap material.
    """

    name = "mr"

    def __init__(
        self,
        fusion: FusionStrategy = FusionStrategy.RRF,
        expansion: int = 3,
    ) -> None:
        super().__init__()
        if expansion < 1:
            raise RetrievalError(f"expansion must be >= 1, got {expansion}")
        self.fusion = FusionStrategy.parse(fusion)
        self.expansion = expansion
        self._indexes: Dict[Modality, VectorIndex] = {}

    def setup(
        self,
        kb: KnowledgeBase,
        encoder_set: EncoderSet,
        index_builder: IndexBuilder,
        weights: "Dict[Modality, float] | None" = None,
        corpus: "Dict[Modality, np.ndarray] | None" = None,
    ) -> None:
        start = time.perf_counter()
        corpus = self._corpus(kb, encoder_set, corpus)
        self._indexes = {}
        for modality, matrix in corpus.items():
            kernel = SingleVectorKernel(matrix.shape[1])
            index = index_builder()
            index.build(matrix, kernel)
            self._indexes[modality] = index
        self.kb = kb
        self.encoder_set = encoder_set
        self.setup_seconds = time.perf_counter() - start

    def add_object(self, obj) -> int:
        """Encode and insert one new object into every modality stream."""
        self._require_ready()
        assert self.encoder_set is not None
        sizes = {index.size for index in self._indexes.values()}
        if sizes != {obj.object_id}:
            raise RetrievalError(
                f"object id {obj.object_id} breaks dense ids "
                f"(streams hold {sorted(sizes)} vectors)"
            )
        vectors = self.encoder_set.encode_object(obj)
        new_id = -1
        for modality, vector in vectors.items():
            new_id = self._indexes[modality].add(vector)
        return new_id

    def retrieve_batch(
        self,
        queries: Sequence[RawQuery],
        k: int,
        budget: int = 64,
        *,
        weights: "Dict[Modality, float] | None" = None,
        filter_fn: "ObjectFilter | None" = None,
    ) -> List[RetrievalResponse]:
        """One ``search_batch`` per modality stream over the queries that
        carry that modality, then per-query rank fusion.

        ``weights`` scale each stream's contribution at fusion time
        (weighted RRF/CombSUM) — the best MR can do with modality
        importances, since each stream has already searched blind by the
        time weights can act."""
        self._require_ready()
        assert self.encoder_set is not None
        if k <= 0:
            raise RetrievalError(f"k must be positive, got {k}")
        queries = list(queries)
        if not queries:
            return []
        with trace_span("encode", queries=len(queries)):
            query_vectors_list = self.encoder_set.encode_query_batch(queries)
        parsed_weights = self._parse_weights(weights)
        fetch = self.expansion * k

        # Group query rows per modality stream (queries may be partial).
        stream_members: Dict[Modality, List[int]] = {}
        for position, query_vectors in enumerate(query_vectors_list):
            for modality in query_vectors:
                if modality not in self._indexes:
                    raise RetrievalError(
                        f"MR has no index for query modality {modality.value!r}"
                    )
                stream_members.setdefault(modality, []).append(position)

        outcomes: Dict[Modality, Dict[int, object]] = {}
        for modality, members in stream_members.items():
            index = self._indexes[modality]
            matrix = np.stack(
                [query_vectors_list[position][modality] for position in members]
            )
            results = self._search(
                index, matrix, fetch, max(budget, fetch), filter_fn,
                modality=modality.value,
            )
            outcomes[modality] = dict(zip(members, results))

        responses: List[RetrievalResponse] = []
        for position, query_vectors in enumerate(query_vectors_list):
            streams: Dict[Modality, Stream] = {}
            stats = SearchStats()
            for modality in query_vectors:
                outcome = outcomes[modality][position]
                streams[modality] = (outcome.ids, outcome.distances)
                stats.merge(outcome.stats)
            with trace_span(
                "fusion", strategy=self.fusion.value, streams=len(streams)
            ):
                responses.append(
                    self._fuse(streams, k, parsed_weights, self.name, stats)
                )
        return responses

    @staticmethod
    def _parse_weights(weights) -> "Dict[Modality, float] | None":
        if weights is None:
            return None
        return {Modality.parse(m): float(w) for m, w in weights.items()}

    def _fuse(
        self,
        streams: "Dict[Modality, Stream]",
        k: int,
        parsed_weights: "Dict[Modality, float] | None",
        framework: str,
        stats: SearchStats,
    ) -> RetrievalResponse:
        """The fusion tail of :meth:`retrieve_batch` and :meth:`merge`: one
        query's per-stream ``(ids, distances)``, best first, become its
        fused top-``k`` under this framework's strategy — a stream the
        weights do not name counts 1.0 — with the streams kept on the
        response."""
        stream_weights = None
        if parsed_weights is not None:
            stream_weights = [parsed_weights.get(modality, 1.0) for modality in streams]
        fused = fuse_rankings(
            [ids for ids, _ in streams.values()],
            [distances for _, distances in streams.values()],
            k,
            strategy=self.fusion,
            stream_weights=stream_weights,
        )
        items = [
            RetrievedItem(object_id=object_id, score=score, rank=rank)
            for rank, (object_id, score) in enumerate(fused)
        ]
        return RetrievalResponse(
            framework=framework,
            items=items,
            stats=stats,
            per_modality_ids={m: list(ids) for m, (ids, _) in streams.items()},
            per_modality_distances={
                m: [float(d) for d in distances]
                for m, (_, distances) in streams.items()
            },
        )

    def merge(
        self,
        partials: Sequence[RetrievalResponse],
        k: int,
        *,
        drop: frozenset = frozenset(),
        weights: "Dict[Modality, float] | None" = None,
    ) -> RetrievalResponse:
        """Stream-level re-fusion: the partials' fused scores are ignored.

        A fused score is a function of part-*local* ranks (RRF) or of the
        normalisation span of one fetched list (CombSUM), so fused lists
        from different parts are not mergeable — merging them anyway is
        exactly the rank-fusion information loss the paper's Figure 5
        critiques.  Distances within one modality stream *are* globally
        comparable, so each stream's global top-``expansion * k`` is rebuilt
        from the parts' ``(id, distance)`` fragments
        (:func:`merge_shard_topk`: best distance for a mid-move duplicate,
        ``drop`` ids removed, ``(distance, id)`` tie-break) and fused by the
        same tail ``retrieve_batch`` ends in.  When every part returned its
        full stream top-``fetch`` the rebuilt streams equal the unsplit
        streams and so do the fused ids.
        """
        modalities = dict.fromkeys(
            m for partial in partials for m in partial.per_modality_ids
        )
        if not modalities:  # nothing but empty-shard placeholders
            return super().merge(partials, k, drop=drop)
        streams: Dict[Modality, Stream] = {}
        for modality in modalities:
            ranked = merge_shard_topk(
                [
                    zip(
                        partial.per_modality_ids.get(modality, ()),
                        partial.per_modality_distances.get(modality, ()),
                    )
                    for partial in partials
                ],
                self.expansion * k,
                drop=drop,
            )
            streams[modality] = (
                [object_id for object_id, _ in ranked],
                [distance for _, distance in ranked],
            )
        name, stats = self._summary(partials)
        return self._fuse(streams, k, self._parse_weights(weights), name, stats)

    def tiered_stores(self):
        for modality, index in self._indexes.items():
            if index.tiered is not None:
                yield modality.value, index.tiered

    def describe(self) -> str:
        base = super().describe()
        if self._indexes:
            streams = ", ".join(
                f"{m.value}:{idx.name}" for m, idx in self._indexes.items()
            )
            base += f", streams [{streams}], fusion {self.fusion.value}"
        return base
