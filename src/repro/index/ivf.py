"""IVF (inverted-file) index — the clustering-based alternative family.

Navigation graphs are not the only ANN structure the configuration panel
could offer; IVF partitions the corpus into Voronoi cells around k-means
centroids and scans only the ``nprobe`` closest cells per query.  Including
it gives experiment E3 a non-graph reference point: at equal recall IVF
scans far more vectors than a graph traverses, which is the reason the
paper's stack is graph-based.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.distance.kernel import DistanceKernel
from repro.errors import SearchError
from repro.index.base import SearchResult, SearchStats, VectorIndex, _per_query_admits
from repro.utils import check_fields, derive_rng, param


@dataclass(frozen=True)
class IvfParams:
    """IVF construction and search parameters.

    Attributes:
        n_lists: Number of k-means cells.
        nprobe: Cells scanned per query (the recall/speed knob; ``budget``
            at search time overrides it when larger).
        kmeans_iters: Lloyd iterations.
        seed: Centroid-init seed.
    """

    n_lists: int = param(32, ge=1)
    nprobe: int = param(4, ge=1)
    kmeans_iters: int = param(10, ge=1)
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)


class IvfIndex(VectorIndex):
    """Inverted-file index over k-means cells."""

    name = "ivf"

    def __init__(self, params: IvfParams = IvfParams()) -> None:
        super().__init__()
        self.params = params
        self._centroids: Optional[np.ndarray] = None
        self._lists: List[List[int]] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _kmeans(self, vectors: np.ndarray, kernel: DistanceKernel) -> np.ndarray:
        n = vectors.shape[0]
        n_lists = min(self.params.n_lists, n)
        rng = derive_rng(self.params.seed, "ivf-init")
        centroids = vectors[rng.choice(n, size=n_lists, replace=False)].copy()
        for _ in range(self.params.kmeans_iters):
            assignment = np.empty(n, dtype=np.int64)
            for row in range(n):
                assignment[row] = int(np.argmin(kernel.batch(vectors[row], centroids)))
            for cell in range(n_lists):
                members = vectors[assignment == cell]
                if members.shape[0]:
                    centroids[cell] = members.mean(axis=0)
        return centroids

    def build(self, vectors: np.ndarray, kernel: DistanceKernel) -> None:
        start = time.perf_counter()
        self._vectors = vectors = self._corpus_matrix(vectors, kernel)
        self._kernel = kernel
        self._centroids = self._kmeans(vectors, kernel)
        self._lists = [[] for _ in range(self._centroids.shape[0])]
        for row in range(vectors.shape[0]):
            cell = int(np.argmin(kernel.batch(vectors[row], self._centroids)))
            self._lists[cell].append(row)
        self.build_seconds = time.perf_counter() - start

    def add(self, vector: np.ndarray) -> int:
        new_id = self._append_row(vector)
        assert self._centroids is not None
        cell = int(np.argmin(self.kernel.batch(self.vectors[new_id], self._centroids)))
        self._lists[cell].append(new_id)
        return new_id

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    @staticmethod
    def _probe_cells(centroid_distances: np.ndarray, nprobe: int) -> np.ndarray:
        """The ``nprobe`` closest cells, nearest first.

        ``argpartition`` selects the probe set in O(n_cells), then only the
        selected handful is sorted — the full ``argsort`` this replaces was
        the dominant per-query cost once cells outnumber probes.
        """
        if nprobe >= centroid_distances.size:
            return np.argsort(centroid_distances)
        probe = np.argpartition(centroid_distances, nprobe - 1)[:nprobe]
        return probe[np.argsort(centroid_distances[probe])]

    def _gather_candidates(
        self, centroid_distances: np.ndarray, nprobe: int, admit
    ) -> List[int]:
        candidates: List[int] = []
        for cell in self._probe_cells(centroid_distances, nprobe):
            candidates.extend(self._lists[int(cell)])
        if admit is not None:
            candidates = [c for c in candidates if admit(c)]
        return candidates

    @staticmethod
    def _top_k(
        candidates: List[int], distances: np.ndarray, k: int, stats: SearchStats
    ) -> SearchResult:
        k = min(k, len(candidates))
        top = np.argpartition(distances, k - 1)[:k]
        top = top[np.argsort(distances[top])]
        return SearchResult(
            ids=[int(candidates[i]) for i in top],
            distances=[float(distances[i]) for i in top],
            stats=stats,
        )

    def search_batch(
        self, queries, k: int, budget: int = 64, *, kernel=None, admit=None,
    ):
        """Scan each query's closest cells: one centroid scan and one
        candidate-union scan for the whole batch, both under the call's
        kernel (the cells themselves stay where the built one put them).
        ``budget`` maps to extra probes: the effective probe count is
        ``max(nprobe, budget // 8)``.
        Candidate gathering and top-k selection run per query over its own
        distance row, so a row does not depend on the rest of the batch.
        """
        self._require_built()
        assert self._centroids is not None
        if k <= 0:
            raise SearchError(f"k must be positive, got {k}")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n_queries = queries.shape[0]
        if n_queries == 0:
            return []
        admits = _per_query_admits(admit, n_queries)
        nprobe = min(
            max(self.params.nprobe, budget // 8), self._centroids.shape[0]
        )
        kernel = self._search_kernel(kernel)
        centroid_distances = kernel.batch_many(queries, self._centroids)
        per_query: List[List[int]] = []
        all_stats: List[SearchStats] = []
        for i in range(n_queries):
            candidates = self._gather_candidates(
                centroid_distances[i], nprobe, admits[i]
            )
            per_query.append(candidates)
            all_stats.append(SearchStats(
                hops=int(nprobe),
                distance_evaluations=len(candidates) + self._centroids.shape[0],
            ))
        union = sorted({c for candidates in per_query for c in candidates})
        out: List[SearchResult] = []
        if union:
            colmap = {c: j for j, c in enumerate(union)}
            union_distances = kernel.batch_many(queries, self.vectors[union])
        for i in range(n_queries):
            candidates = per_query[i]
            if not candidates:
                out.append(SearchResult(ids=[], distances=[], stats=all_stats[i]))
                continue
            cols = np.fromiter(
                (colmap[c] for c in candidates), dtype=np.intp,
                count=len(candidates),
            )
            distances = union_distances[i, cols]
            out.append(self._top_k(candidates, distances, k, all_stats[i]))
        return out

    def describe(self) -> str:
        base = super().describe()
        if self._centroids is not None:
            sizes = [len(cell) for cell in self._lists]
            base += (
                f", {len(self._lists)} cells "
                f"(min {min(sizes)}, max {max(sizes)} vectors)"
            )
        return base
