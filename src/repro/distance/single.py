"""Single-vector distance kernel."""

from __future__ import annotations

import numpy as np

from repro.distance.kernel import DistanceKernel, Embedding
from repro.distance.metrics import (
    Metric,
    paired_inner_product_distance,
    paired_squared_l2,
    pairwise_squared_l2,
    rowwise_inner_product_distance,
    rowwise_squared_l2,
    squared_norms,
)
from repro.errors import DimensionMismatchError
from repro.utils import l2_normalize


class SingleVectorKernel(DistanceKernel):
    """Distances over plain vectors (used by the MR and JE frameworks).

    Args:
        dim: Expected vector dimensionality.
        metric: Distance metric.  Cosine inputs are normalised up front so
            searches reduce to squared L2 (monotonically equivalent).
    """

    def __init__(self, dim: int, metric: Metric = Metric.SQUARED_L2) -> None:
        super().__init__()
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self._dim = dim
        self.metric = Metric.parse(metric)

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

    def embed(self, vectors: np.ndarray) -> "np.ndarray | Embedding":
        """Under squared L2 (cosine inputs are prepared to it) the rows
        with their squared norms; under inner product the rows alone."""
        if self.metric is Metric.INNER_PRODUCT or isinstance(vectors, Embedding):
            return super().embed(vectors)
        points = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        return Embedding(points, squared_norms(points))

    def matrix(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        embedded = self.embed(rows)
        other = embedded if cols is rows else self.embed(cols)
        if self.metric is Metric.INNER_PRODUCT:
            distances = -(np.atleast_2d(embedded) @ np.swapaxes(np.atleast_2d(other), -1, -2))
        else:
            distances = pairwise_squared_l2(
                embedded.points, other.points,
                query_norms=embedded.norms, corpus_norms=other.norms,
            )
        count = distances.size
        self.stats.calls += count
        self.stats.segments_evaluated += count
        self.stats.segments_total += count
        return distances
