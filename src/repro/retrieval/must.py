"""MUST: merging-free multi-vector retrieval over a unified graph.

Objects keep one vector *per modality*; the unified navigation graph is
built over their weighted concatenation, with the modality weights coming
from the contrastive weight learner (or user input).  A query is encoded
per modality, concatenated under the same schema, and resolved in a single
graph traversal — no per-stream searches, no rank fusion.  Incremental
scanning (E5) is ``WeightedMultiVectorKernel.single(bound=)``; the
traversal scores each round in one vectorised call instead.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from repro.data.knowledge_base import KnowledgeBase
from repro.data.modality import Modality
from repro.distance import MultiVectorSchema, WeightedMultiVectorKernel
from repro.encoders.base import EncodedCorpus, EncoderSet
from repro.errors import RetrievalError
from repro.index.base import VectorIndex
from repro.observability import trace_span
from repro.retrieval.base import IndexBuilder, RetrievalFramework


class MustRetrieval(RetrievalFramework):
    """The paper's framework: weighted multi-vector, merging-free search."""

    name = "must"

    def __init__(self) -> None:
        super().__init__()
        self._index: Optional[VectorIndex] = None
        self._schema: Optional[MultiVectorSchema] = None
        self._kernel: Optional[WeightedMultiVectorKernel] = None

    @property
    def schema(self) -> MultiVectorSchema:
        """The concatenation schema (available after setup)."""
        if self._schema is None:
            raise RetrievalError("MUST has not been set up")
        return self._schema

    @property
    def weights(self) -> Dict[Modality, float]:
        """The modality weights in force (available after setup)."""
        if self._kernel is None:
            raise RetrievalError("MUST has not been set up")
        return self._kernel.weights_by_modality()

    def setup(
        self,
        kb: KnowledgeBase,
        encoder_set: EncoderSet,
        index_builder: IndexBuilder,
        weights: "Dict[Modality, float] | None" = None,
        corpus: "EncodedCorpus | None" = None,
    ) -> None:
        """The unified index is built over the encoded corpus's matrix
        itself: its columns are already in schema order."""
        start = time.perf_counter()
        corpus = self._corpus(kb, encoder_set, corpus)
        schema = MultiVectorSchema(encoder_set.dims())
        if tuple(corpus) != schema.modalities:
            raise RetrievalError(
                f"corpus modalities {[m.value for m in corpus]} are not in schema "
                f"order {[m.value for m in schema.modalities]}"
            )
        kernel = WeightedMultiVectorKernel(schema, weights)
        index = index_builder()
        index.build(corpus.matrix, kernel)
        self._index = index
        self._schema = schema
        self._kernel = kernel
        self.kb = kb
        self.encoder_set = encoder_set
        self.setup_seconds = time.perf_counter() - start

    def add_object(self, obj) -> int:
        """Encode and insert one new object into the unified graph."""
        self._require_ready()
        assert self.encoder_set is not None
        assert self._index is not None and self._schema is not None
        if obj.object_id != self._index.size:
            raise RetrievalError(
                f"object id {obj.object_id} breaks dense ids "
                f"(index holds {self._index.size} vectors)"
            )
        vectors = self.encoder_set.encode_object(obj)
        return self._index.add(self._schema.concat(vectors))

    def _search_encoded(self, queries, k, budget, weights=None, filter_fn=None):
        """The whole batch is concatenated under one schema and resolved by
        a single lockstep graph traversal.

        ``weights``: the index is weight-agnostic structure, so the
        re-weighted kernel is handed to ``search_batch`` and the answer is
        the index's answer under those weights.
        """
        assert self._index is not None and self._schema is not None
        assert self._kernel is not None
        concatenated = np.stack([self._schema.concat(query) for query in queries])
        override = None
        if weights is not None:
            with trace_span("weight-inference", modalities=len(weights)):
                override = self._kernel.with_weights(weights)
        outcomes = self._search(
            self._index, concatenated, k, budget, filter_fn, kernel=override
        )
        return [self._respond(outcome) for outcome in outcomes]

    def tiered_stores(self):
        if self._index is not None and self._index.tiered is not None:
            yield "joint", self._index.tiered

    def describe(self) -> str:
        base = super().describe()
        if self._kernel is not None and self._index is not None:
            weight_text = ", ".join(
                f"{m.value}={w:.2f}" for m, w in self.weights.items()
            )
            base += (
                f", unified index {self._index.name!r} "
                f"(dim {self._schema.total_dim if self._schema else 0}), "
                f"weights [{weight_text}]"
            )
        return base
