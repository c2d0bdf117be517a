"""Exact brute-force index — the accuracy baseline every graph is judged by."""

from __future__ import annotations

import time

import numpy as np

from repro.distance.kernel import DistanceKernel
from repro.errors import SearchError
from repro.index.base import (
    SearchResult,
    SearchStats,
    VectorIndex,
    _per_query_admits,
)


class FlatIndex(VectorIndex):
    """Scans the whole corpus through the kernel's batch path.

    Exact by construction; ``budget`` is ignored.  Used as the ground-truth
    oracle in recall measurements and as the low-QPS baseline in E3.
    """

    name = "flat"

    def build(self, vectors: np.ndarray, kernel: DistanceKernel) -> None:
        start = time.perf_counter()
        self._vectors = self._corpus_matrix(vectors, kernel, SearchError)
        self._kernel = kernel
        self.build_seconds = time.perf_counter() - start

    def add(self, vector: np.ndarray) -> int:
        return self._append_row(vector, SearchError)

    def check_invariants(self) -> None:
        """Verify the store's structural invariants; raise on violation.

        The flat index has no graph, but the property tests still assert
        its storage stays coherent under interleaved adds: a 2-D finite
        matrix whose width matches the kernel.
        """
        self._require_built()
        vectors = self._vectors
        if vectors.ndim != 2:
            raise SearchError(f"corpus must be 2-D, got ndim={vectors.ndim}")
        if vectors.shape[1] != self.kernel.dim:
            raise SearchError(
                f"corpus dim {vectors.shape[1]} != kernel dim {self.kernel.dim}"
            )
        if not np.isfinite(vectors).all():
            raise SearchError("corpus contains non-finite values")

    def search_batch(
        self, queries, k: int, budget: int = 64, *, kernel=None, admit=None,
    ):
        """All queries scanned with one dispatch of the call's kernel.

        Each row of the distance matrix depends only on its own query, and
        top-k selection runs per row — so a row's ids and distances do not
        depend on the rest of the batch.  ``admit`` masks non-matching
        vectors out of that query's result; ``budget`` and a kernel's
        ``prune`` have nothing to act on in an exact scan.
        """
        self._require_built()
        if k <= 0:
            raise SearchError(f"k must be positive, got {k}")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n_queries = queries.shape[0]
        if n_queries == 0:
            return []
        admits = _per_query_admits(admit, n_queries)
        all_distances = self._search_kernel(kernel).batch_many(queries, self.vectors)
        if all(a is None for a in admits):
            # Unfiltered fast path: one axis-wise argpartition + lexsort
            # selects every row's top-k in (distance, id) order; both run
            # row by row.
            row_k = min(k, all_distances.shape[1])
            rows = np.arange(n_queries)[:, None]
            top = np.argpartition(all_distances, row_k - 1, axis=1)[:, :row_k]
            picked = all_distances[rows, top]
            order = np.lexsort((top, picked), axis=1)
            top = top[rows, order]
            picked = picked[rows, order]
            # A tie across the k-th distance: the partition chose among the
            # tied ids arbitrarily, so such a row is selected exactly.
            tied = (all_distances <= picked[:, -1:]).sum(axis=1) > row_k
            for i in np.flatnonzero(tied):
                top[i] = _top_k(all_distances[i], row_k)
                picked[i] = all_distances[i, top[i]]
            stats_size = self.size
            return [
                SearchResult(
                    ids=top[i].tolist(),
                    distances=picked[i].tolist(),
                    stats=SearchStats(hops=0, distance_evaluations=stats_size),
                )
                for i in range(n_queries)
            ]
        out = []
        for i in range(n_queries):
            distances = all_distances[i]
            row_k = k
            if admits[i] is not None:
                predicate = admits[i]
                mask = np.fromiter(
                    (predicate(j) for j in range(distances.size)), dtype=bool,
                    count=distances.size,
                )
                distances = np.where(mask, distances, np.inf)
                if not mask.any():
                    out.append(SearchResult(
                        ids=[], distances=[],
                        stats=SearchStats(distance_evaluations=int(mask.size)),
                    ))
                    continue
                row_k = min(row_k, int(mask.sum()))
            row_k = min(row_k, distances.size)
            top = _top_k(distances, row_k)
            out.append(SearchResult(
                ids=[int(j) for j in top],
                distances=[float(distances[j]) for j in top],
                stats=SearchStats(hops=0, distance_evaluations=self.size),
            ))
        return out


def _top_k(distances: np.ndarray, k: int) -> np.ndarray:
    """The ids of the ``k`` smallest ``distances`` in ``(distance, id)``
    order: equal distances rank by id, as a sharded merge ranks them
    (:func:`~repro.retrieval.base.merge_shard_topk`)."""
    kth = np.partition(distances, k - 1)[k - 1]
    candidates = np.flatnonzero(distances <= kth)
    return candidates[np.argsort(distances[candidates], kind="stable")[:k]]
