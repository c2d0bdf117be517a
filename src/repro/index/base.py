"""The vector-index interface all index algorithms implement."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.distance.kernel import DistanceKernel
from repro.errors import GraphConstructionError, IndexError_, IndexNotBuiltError, SearchError


@dataclass
class SearchStats:
    """Work counters for one search.

    Attributes:
        hops: Graph vertices expanded (0 for flat scans).
        distance_evaluations: Candidate vectors whose distance was computed.
        block_reads: Simulated disk blocks fetched (Starling only).
        cache_hits: Block requests served from cache (Starling only).
    """

    hops: int = 0
    distance_evaluations: int = 0
    block_reads: int = 0
    cache_hits: int = 0

    def merge(self, other: "SearchStats") -> None:
        """Accumulate ``other`` into this instance."""
        self.hops += other.hops
        self.distance_evaluations += other.distance_evaluations
        self.block_reads += other.block_reads
        self.cache_hits += other.cache_hits


@dataclass
class SearchResult:
    """Outcome of a top-k search.

    Attributes:
        ids: Object ids, closest first.
        distances: Matching distances (same order).
        stats: Work counters for this search.
    """

    ids: List[int]
    distances: List[float]
    stats: SearchStats = field(default_factory=SearchStats)

    def __len__(self) -> int:
        return len(self.ids)

    def top(self) -> Optional[int]:
        """The closest id, or None for an empty result."""
        return self.ids[0] if self.ids else None


def _per_query_admits(admit, n_queries: int) -> List:
    """Normalise an admit argument (None / shared callable / per-query
    sequence) into a list with one entry per query."""
    if admit is None or callable(admit):
        return [admit] * n_queries
    admits = list(admit)
    if len(admits) != n_queries:
        raise SearchError(
            f"got {len(admits)} admit predicates for {n_queries} queries"
        )
    return admits


def append_row(buffer: np.ndarray, count: int, row: np.ndarray) -> np.ndarray:
    """Store ``row`` at index ``count`` of ``buffer`` (``count`` rows in use);
    returns the buffer holding it.  A full buffer is first copied into one
    of twice the capacity, so n appends copy each row O(log n) times overall
    where a ``vstack`` per append copies O(n^2) rows."""
    if count == buffer.shape[0]:
        grown = np.empty((max(2 * count, 8), buffer.shape[1]), dtype=buffer.dtype)
        grown[:count] = buffer
        buffer = grown
    buffer[count] = row
    return buffer


class VectorIndex(abc.ABC):
    """Searchable structure over a corpus of vectors.

    Lifecycle: construct with parameters, :meth:`build` once over the corpus
    matrix and a distance kernel, then :meth:`search` any number of times;
    an index that can grow appends through :meth:`_append_row`.
    """

    #: Identifier used by the registry and the status panel.
    name: str = "index"

    #: The beyond-RAM :class:`~repro.index.tiered.TieredStore` the index
    #: serves from (Starling with ``tiered`` set); None everywhere else.
    tiered = None

    def __init__(self) -> None:
        self._vectors: Optional[np.ndarray] = None
        self._kernel: Optional[DistanceKernel] = None
        self._buffer: Optional[np.ndarray] = None
        self._buffer_grows: int = 0
        self.build_seconds: float = 0.0

    @property
    def is_built(self) -> bool:
        """True once :meth:`build` has completed."""
        return self._vectors is not None

    @property
    def size(self) -> int:
        """Number of indexed vectors (0 before build)."""
        return 0 if self._vectors is None else int(self._vectors.shape[0])

    @property
    def vectors(self) -> np.ndarray:
        """The indexed corpus matrix."""
        self._require_built()
        assert self._vectors is not None
        return self._vectors

    @property
    def kernel(self) -> DistanceKernel:
        """The distance kernel the index was built with."""
        self._require_built()
        assert self._kernel is not None
        return self._kernel

    def _require_built(self) -> None:
        if self._vectors is None:
            raise IndexNotBuiltError(
                f"index {self.name!r} has not been built; call build() first"
            )

    @abc.abstractmethod
    def build(self, vectors: np.ndarray, kernel: DistanceKernel) -> None:
        """Index ``vectors`` (an ``(n, d)`` matrix) under ``kernel``."""

    @staticmethod
    def _corpus_matrix(
        vectors: np.ndarray, kernel: DistanceKernel, error=GraphConstructionError
    ) -> np.ndarray:
        """What every ``build`` starts from: ``vectors`` as a float64 ``(n,
        d)`` matrix, or ``error`` when it is empty, of another width than
        ``kernel``, or holds a NaN or an infinity — whose distances compare
        as neither near nor far, so rankings (and the graphs built on them)
        stop meaning anything."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if vectors.shape[0] == 0:
            raise error("cannot build an index over an empty corpus")
        if vectors.shape[1] != kernel.dim:
            raise error(f"corpus dim {vectors.shape[1]} != kernel dim {kernel.dim}")
        if not np.isfinite(vectors).all():
            bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
            raise error(f"corpus has {bad.size} non-finite row(s), first at {bad[0]}")
        return vectors

    def _append_row(self, vector: np.ndarray, error=GraphConstructionError) -> int:
        """Append one vector to the corpus matrix; returns its row id.

        :attr:`vectors` stays a view of the rows in use of a doubling
        buffer (:func:`append_row`).  The matrix ``build`` or ``load_index``
        left in place has no spare rows, so the first append copies it: the
        caller's matrix is never written.  A wrong width or a non-finite
        value raises ``error`` and appends nothing.
        """
        self._require_built()
        vector = np.asarray(vector, dtype=np.float64).reshape(-1)
        if vector.shape[0] != self.kernel.dim:
            raise error(f"vector dim {vector.shape[0]} != kernel dim {self.kernel.dim}")
        if not np.isfinite(vector).all():
            raise error("vector holds a NaN or an infinity")
        row = self.size
        if self._buffer is None or self._vectors.base is not self._buffer:
            self._buffer, self._buffer_grows = self._vectors, 0
        buffer = append_row(self._buffer, row, vector)
        self._buffer_grows += buffer is not self._buffer
        self._buffer = buffer
        self._vectors = buffer[: row + 1]
        return row

    def add(self, vector: np.ndarray) -> int:
        """Insert one vector into the built index; returns its new id.

        Optional capability — index types that cannot grow raise
        :class:`repro.errors.IndexError_`.  Insertions keep the dense-id
        contract: the returned id always equals the previous :attr:`size`.
        """
        raise IndexError_(
            f"index {self.name!r} does not support incremental insertion"
        )

    def search(self, query: np.ndarray, k: int, budget: int = 64, **kwargs) -> SearchResult:
        """Return the approximate top-``k`` ids for ``query``: a batch of one.

        Args:
            query: Query vector of the kernel's dimensionality.
            k: Result count.
            budget: Search effort (beam width / ef); larger trades speed
                for recall.  Ignored by exact indexes.
            **kwargs: The options of :meth:`search_batch`.
        """
        return self.search_batch(np.asarray(query)[None], k, budget, **kwargs)[0]

    @abc.abstractmethod
    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        budget: int = 64,
        *,
        kernel: "DistanceKernel | None" = None,
        admit=None,
        use_pruning: bool = False,
    ) -> List[SearchResult]:
        """Top-``k`` for every row of ``queries``; results in input order.

        The one search body of an index, and the one place its options are
        declared: every index takes exactly these and honours each of them.
        Contract: row ``i`` does not depend on the rest of the batch — same
        ids, distances and work counters as a batch holding that row alone —
        so batching is a throughput optimisation, never a behaviour change.

        Args:
            queries: ``(Q, d)`` query matrix.
            k: Result count per row.
            budget: Search effort (beam width / ef / extra probes).
            kernel: Distances for this call only — per-query modality
                re-weighting.  An index is navigation structure plus stored
                rows; distances are always computed fresh, so every scan,
                traversal and re-rank of the call runs under ``kernel``
                (resolved by :meth:`_search_kernel`) and the answer is the
                index's answer *under that kernel*, never a re-ordering of
                its answer under the built one.  ``None`` is the built kernel.
            admit: Result filter over row ids — one predicate shared by all
                queries, or a sequence with one (possibly ``None``) per
                query.  Rejected rows may still be traversed, never returned.
            use_pruning: Score graph neighbours one by one against the beam
                bound, so a multi-vector kernel can stop a distance early
                (the paper's incremental scanning): same ids, fewer segment
                evaluations.  To an exact or cell scan it means what
                ``budget`` means to an exact scan — nothing.
        """

    def _search_kernel(self, kernel: "DistanceKernel | None") -> DistanceKernel:
        """The kernel one ``search_batch`` call computes distances with: the
        ``kernel`` override, or the built one."""
        if kernel is None:
            return self.kernel
        if kernel.dim != self.kernel.dim:
            raise SearchError(
                f"override kernel dim {kernel.dim} != index dim {self.kernel.dim}"
            )
        return kernel

    def describe(self) -> str:
        """One-line summary for the status panel."""
        state = f"{self.size} vectors" if self.is_built else "not built"
        return f"index {self.name!r}: {state}"
