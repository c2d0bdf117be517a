"""Single-vector distance kernel with optional chunked incremental scanning."""

from __future__ import annotations

import numpy as np

from repro.distance.kernel import DistanceKernel
from repro.distance.metrics import (
    Metric,
    paired_inner_product_distance,
    paired_squared_l2,
    pairwise_squared_l2,
    rowwise_inner_product_distance,
    rowwise_squared_l2,
)
from repro.errors import DimensionMismatchError
from repro.utils import l2_normalize


class SingleVectorKernel(DistanceKernel):
    """Distances over plain vectors (used by the MR and JE frameworks).

    Args:
        dim: Expected vector dimensionality.
        metric: Distance metric.  Cosine inputs are normalised up front so
            searches reduce to squared L2 (monotonically equivalent).
        chunk_size: When positive, ``single`` accumulates squared L2 in
            chunks of this many dimensions and stops once the partial sum
            exceeds the bound — the single-vector form of incremental
            scanning.  Zero disables chunking.
    """

    def __init__(self, dim: int, metric: Metric = Metric.SQUARED_L2, chunk_size: int = 0) -> None:
        super().__init__()
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if chunk_size < 0:
            raise ValueError(f"chunk_size must be >= 0, got {chunk_size}")
        self._dim = dim
        self.metric = Metric.parse(metric)
        self.chunk_size = chunk_size

    @property
    def dim(self) -> int:
        return self._dim

    def prepare(self, vectors: np.ndarray) -> np.ndarray:
        """Normalise stored/query vectors as the metric requires."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.shape[-1] != self._dim:
            raise DimensionMismatchError(
                f"expected dim {self._dim}, got {vectors.shape[-1]}"
            )
        if self.metric is Metric.COSINE:
            return l2_normalize(vectors)
        return vectors

    def batch(self, query: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        # The rowwise forms (not the gemm expansion) keep batch() and
        # batch_many() bitwise interchangeable — see rowwise_squared_l2.
        query = np.asarray(query, dtype=np.float64)
        matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        if self.metric is Metric.INNER_PRODUCT:
            distances = rowwise_inner_product_distance(query[None, :], matrix)[0]
        else:
            distances = rowwise_squared_l2(query[None, :], matrix)[0]
        self.stats.calls += matrix.shape[0]
        self.stats.segments_evaluated += matrix.shape[0]
        self.stats.segments_total += matrix.shape[0]
        return distances

    def batch_many(self, queries: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        if self.metric is Metric.INNER_PRODUCT:
            distances = rowwise_inner_product_distance(queries, matrix)
        else:
            distances = rowwise_squared_l2(queries, matrix)
        count = queries.shape[0] * matrix.shape[0]
        self.stats.calls += count
        self.stats.segments_evaluated += count
        self.stats.segments_total += count
        return distances

    def batch_paired(
        self, queries: np.ndarray, matrix: np.ndarray, owners: np.ndarray
    ) -> np.ndarray:
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        gathered = queries[np.asarray(owners, dtype=np.intp)]
        if self.metric is Metric.INNER_PRODUCT:
            distances = paired_inner_product_distance(gathered, matrix)
        else:
            distances = paired_squared_l2(gathered, matrix)
        count = matrix.shape[0]
        self.stats.calls += count
        self.stats.segments_evaluated += count
        self.stats.segments_total += count
        return distances

    def matrix(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        cols = np.atleast_2d(np.asarray(cols, dtype=np.float64))
        if self.metric is Metric.INNER_PRODUCT:
            distances = -(rows @ np.swapaxes(cols, -1, -2))
        else:
            distances = pairwise_squared_l2(rows, cols)
        count = distances.size
        self.stats.calls += count
        self.stats.segments_evaluated += count
        self.stats.segments_total += count
        return distances

    def single(self, query: np.ndarray, vector: np.ndarray, bound: float = np.inf) -> float:
        query = np.asarray(query, dtype=np.float64)
        vector = np.asarray(vector, dtype=np.float64)
        self.stats.calls += 1
        if self.metric is Metric.INNER_PRODUCT or not self.chunk_size:
            self.stats.segments_evaluated += 1
            self.stats.segments_total += 1
            if self.metric is Metric.INNER_PRODUCT:
                return float(-(query @ vector))
            diff = query - vector
            return float(diff @ diff)

        # Chunked incremental scan: squared L2 partial sums never decrease,
        # so exceeding the bound part-way proves the full distance does too.
        n_chunks = (self._dim + self.chunk_size - 1) // self.chunk_size
        self.stats.segments_total += n_chunks
        total = 0.0
        for start in range(0, self._dim, self.chunk_size):
            stop = min(start + self.chunk_size, self._dim)
            diff = query[start:stop] - vector[start:stop]
            total += float(diff @ diff)
            self.stats.segments_evaluated += 1
            if total > bound:
                self.stats.pruned += 1
                return total
        return total
