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
from typing import Dict, List, Sequence

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
    RetrievalFramework,
    RetrievalResponse,
    RetrievedItem,
)
from repro.retrieval.fusion import FusionStrategy, fuse_rankings


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
        filter_fn=None,
        weights: "Dict[Modality, float] | None" = None,
    ) -> List[RetrievalResponse]:
        """One ``search_batch`` per modality stream over the queries that
        carry that modality, then per-query rank fusion.

        Per-call ``weights`` scale each stream's contribution at fusion
        time (weighted RRF/CombSUM) — the best MR can do with modality
        importances, since each stream has already searched blind by the
        time weights can act.  ``filter_fn`` restricts results to object
        ids satisfying the predicate."""
        self._require_ready()
        assert self.encoder_set is not None
        if k <= 0:
            raise RetrievalError(f"k must be positive, got {k}")
        queries = list(queries)
        if not queries:
            return []
        with trace_span("encode", queries=len(queries)):
            query_vectors_list = self.encoder_set.encode_query_batch(queries)
        parsed_weights = None
        if weights is not None:
            parsed_weights = {Modality.parse(m): float(w) for m, w in weights.items()}
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
            rankings: List[List[int]] = []
            distances: List[List[float]] = []
            per_modality: Dict[Modality, List[int]] = {}
            per_modality_distances: Dict[Modality, List[float]] = {}
            stats = SearchStats()
            for modality in query_vectors:
                outcome = outcomes[modality][position]
                rankings.append(outcome.ids)
                distances.append(outcome.distances)
                per_modality[modality] = list(outcome.ids)
                per_modality_distances[modality] = [
                    float(d) for d in outcome.distances
                ]
                stats.merge(outcome.stats)
            stream_weights = None
            if parsed_weights is not None:
                stream_weights = [
                    parsed_weights.get(modality, 1.0) for modality in per_modality
                ]
            with trace_span(
                "fusion", strategy=self.fusion.value, streams=len(rankings)
            ):
                fused = fuse_rankings(
                    rankings,
                    distances,
                    k,
                    strategy=self.fusion,
                    stream_weights=stream_weights,
                )
            items = [
                RetrievedItem(object_id=object_id, score=score, rank=rank)
                for rank, (object_id, score) in enumerate(fused)
            ]
            responses.append(
                RetrievalResponse(
                    framework=self.name,
                    items=items,
                    stats=stats,
                    per_modality_ids=per_modality,
                    per_modality_distances=per_modality_distances,
                )
            )
        return responses

    def describe(self) -> str:
        base = super().describe()
        if self._indexes:
            streams = ", ".join(
                f"{m.value}:{idx.name}" for m, idx in self._indexes.items()
            )
            base += f", streams [{streams}], fusion {self.fusion.value}"
        return base
