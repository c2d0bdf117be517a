"""The three multi-modal retrieval frameworks the paper compares.

* :class:`MultiStreamedRetrieval` (MR) — one single-vector index per
  modality; per-modality searches are merged afterwards (Milvus-style).
* :class:`JointEmbeddingRetrieval` (JE) — all modalities collapse into one
  joint CLIP-space vector; a single single-vector search.
* :class:`MustRetrieval` (MUST) — one unified navigation graph over
  concatenated per-modality vectors with learned weights; a single
  *merging-free* multi-vector search with incremental pruning.

All three share the same ``setup -> retrieve`` lifecycle so the MQA system
can swap them from the configuration panel.
"""

from repro.retrieval.base import (
    ObjectFilter,
    RetrievalFramework,
    RetrievalResponse,
    RetrievedItem,
)
from repro.retrieval.fusion import FusionStrategy, fuse_rankings, fuse_responses
from repro.retrieval.je import JointEmbeddingRetrieval
from repro.retrieval.mr import MultiStreamedRetrieval
from repro.retrieval.must import MustRetrieval
from repro.retrieval.registry import (
    available_frameworks,
    build_framework,
    register_framework,
)

__all__ = [
    "FusionStrategy",
    "JointEmbeddingRetrieval",
    "MultiStreamedRetrieval",
    "MustRetrieval",
    "ObjectFilter",
    "RetrievalFramework",
    "RetrievalResponse",
    "RetrievedItem",
    "available_frameworks",
    "build_framework",
    "fuse_rankings",
    "fuse_responses",
    "register_framework",
]
