"""Joint Embedding retrieval (JE): one vector per object, one search.

The ARTEMIS-style framework: a jointly-trained encoder (our simulated CLIP)
collapses all modalities of an object into a single shared-space vector, so
ordinary single-vector ANN machinery applies unchanged.  Its weakness is
the collapse itself — averaging modality vectors discards which modality
carried which detail, so queries whose modalities carry complementary
constraints (the paper's round-two refinements) lose precision.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from repro.data.knowledge_base import KnowledgeBase
from repro.data.modality import Modality
from repro.distance import SingleVectorKernel
from repro.encoders.base import EncodedCorpus, EncoderSet
from repro.errors import RetrievalError
from repro.index.base import VectorIndex
from repro.retrieval.base import IndexBuilder, RetrievalFramework
from repro.utils import l2_normalize


class JointEmbeddingRetrieval(RetrievalFramework):
    """Single index over fused joint-space vectors.

    Requires a *joint* encoder set (every modality served by one shared
    space encoder) — enforced at setup, mirroring the real-world constraint
    that JE needs a jointly trained model.
    """

    name = "je"
    capabilities = frozenset({"filter_fn"})

    def __init__(self) -> None:
        super().__init__()
        self._index: Optional[VectorIndex] = None

    @staticmethod
    def _fuse(vectors: Dict[Modality, np.ndarray]) -> np.ndarray:
        """Normalised mean over modalities — of one object's vectors, or row
        by row of a corpus's matrices."""
        stacked = np.stack(list(vectors.values()))
        return l2_normalize(stacked.mean(axis=0))

    def setup(
        self,
        kb: KnowledgeBase,
        encoder_set: EncoderSet,
        index_builder: IndexBuilder,
        weights: "Dict[Modality, float] | None" = None,
        corpus: "EncodedCorpus | None" = None,
    ) -> None:
        if not encoder_set.is_joint and len(encoder_set.modalities) > 1:
            raise RetrievalError(
                "joint-embedding retrieval requires a joint encoder set "
                f"(got {encoder_set.name!r} with per-modality spaces)"
            )
        start = time.perf_counter()
        matrix = self._fuse(self._corpus(kb, encoder_set, corpus))
        kernel = SingleVectorKernel(matrix.shape[1])
        index = index_builder()
        index.build(matrix, kernel)
        self._index = index
        self.kb = kb
        self.encoder_set = encoder_set
        self.setup_seconds = time.perf_counter() - start

    def add_object(self, obj) -> int:
        """Fuse and insert one new object into the joint index."""
        self._require_ready()
        assert self.encoder_set is not None and self._index is not None
        if obj.object_id != self._index.size:
            raise RetrievalError(
                f"object id {obj.object_id} breaks dense ids "
                f"(index holds {self._index.size} vectors)"
            )
        return self._index.add(self._fuse(self.encoder_set.encode_object(obj)))

    def _search_encoded(self, queries, k, budget, weights=None, filter_fn=None):
        """The modalities each query carries are fused into the joint space,
        stacked, and resolved with one ``search_batch``.  ``weights`` is
        refused: the modalities were averaged away when the object was
        indexed."""
        assert self._index is not None
        joint_queries = np.stack([self._fuse(query.carried) for query in queries])
        outcomes = self._search(self._index, joint_queries, k, budget, filter_fn)
        return [self._respond(outcome) for outcome in outcomes]

    def tiered_stores(self):
        if self._index is not None and self._index.tiered is not None:
            yield "joint", self._index.tiered

    def describe(self) -> str:
        base = super().describe()
        if self._index is not None:
            base += f", joint index {self._index.name!r} over {self._index.size} vectors"
        return base
