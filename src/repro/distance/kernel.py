"""The distance-kernel interface consumed by every vector index.

Indexes never touch raw vectors directly; they ask a kernel for distances.
That indirection is what lets the same graph code serve single-vector
searches (MR, JE) and MUST's weighted multi-vector searches.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np


class Embedding:
    """Rows in a kernel's Euclidean coordinates, with their squared norms.

    ``points[i]`` is row ``i`` mapped so that the kernel's distance is the
    squared L2 between points (``√w ⊙ x`` for the weighted kernel, ``x``
    itself for plain squared L2) and ``norms[i]`` is ``‖points[i]‖²``, a
    reduction over that row alone.  Indexing gathers both arrays, so a
    gather of an embedding is bit for bit the embedding of the gathered
    rows.  Built by :meth:`DistanceKernel.embed`, read by ``matrix``.
    """

    __slots__ = ("points", "norms", "__weakref__")

    def __init__(self, points: np.ndarray, norms: np.ndarray) -> None:
        self.points = points
        self.norms = norms

    def __getitem__(self, index) -> "Embedding":
        return Embedding(self.points[index], self.norms[index])


@dataclass
class DistanceStats:
    """Counters for the computational-pruning ablation (experiment E5).

    Attributes:
        calls: Number of query-row pairs whose distance was requested.
        pruned: How many of those terminated early via the bound.
        segments_evaluated: Vector segments actually computed.
        segments_total: Segments that a full evaluation would have computed.
    """

    calls: int = 0
    pruned: int = 0
    segments_evaluated: int = 0
    segments_total: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.calls = 0
        self.pruned = 0
        self.segments_evaluated = 0
        self.segments_total = 0

    @property
    def pruning_rate(self) -> float:
        """Fraction of calls that terminated early (0.0 when unused)."""
        return self.pruned / self.calls if self.calls else 0.0

    @property
    def work_saved(self) -> float:
        """Fraction of segment evaluations avoided (0.0 when unused)."""
        if not self.segments_total:
            return 0.0
        return 1.0 - self.segments_evaluated / self.segments_total


class DistanceKernel(abc.ABC):
    """Computes distances between a query and stored vectors.

    Smaller is always more similar.  Every entry is vectorised: a search
    scores a round's neighbours in one call.
    """

    def __init__(self) -> None:
        self.stats = DistanceStats()

    @property
    @abc.abstractmethod
    def dim(self) -> int:
        """Dimensionality of the vectors this kernel compares."""

    @abc.abstractmethod
    def batch(self, query: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        """Distances from ``query`` to every row of ``matrix``."""

    def embed(self, vectors: np.ndarray) -> "np.ndarray | Embedding":
        """``vectors`` as :meth:`matrix` takes them, prepared once.

        A graph build embeds its corpus once and hands :meth:`matrix`
        gathers of the result instead of gathers of the rows; indexing an
        embedding gathers exactly what embedding the gathered rows would
        give.  The default prepares nothing and returns the rows; kernels
        whose ``matrix`` is a squared L2 return an :class:`Embedding`.
        Embedding an embedding returns it unchanged.
        """
        if isinstance(vectors, Embedding):
            return vectors
        return np.asarray(vectors, dtype=np.float64)

    def matrix(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """All-pairs distances between ``rows`` and ``cols`` matrices.

        Stacked inputs ``(R, n, d)`` and ``(R, m, d)`` give the ``(R, n, m)``
        stack of per-block matrices — one dispatch for every saturated row
        an HNSW insert re-selects.  Either operand may be raw rows or what
        :meth:`embed` made of them; the result is the same bits.  The
        default delegates to :meth:`batch` per row; kernels override it
        with a fully vectorised form (construction-time hot path).
        """
        rows = np.atleast_2d(self.embed(rows))
        cols = self.embed(cols)
        if rows.ndim == 3:
            return np.stack([self.matrix(r, c) for r, c in zip(rows, cols)])
        return np.stack([self.batch(row, cols) for row in rows])

    def batch_many(self, queries: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        """Distances from every query row to every ``matrix`` row.

        The batched search path's entry point.  Contract: row ``i`` of the
        result is *bit-identical* to ``batch(queries[i], matrix)`` — not
        merely close — so batched searches return exactly the serial ids
        and distances.  Concrete kernels override this with a vectorised
        form that preserves that guarantee; the default simply loops.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        return np.stack([self.batch(query, matrix) for query in queries])

    def batch_paired(
        self, queries: np.ndarray, matrix: np.ndarray, owners: np.ndarray
    ) -> np.ndarray:
        """Distances for the pairs ``(queries[owners[i]], matrix[i])``.

        The ragged companion to :meth:`batch_many`: where ``batch_many``
        scores every query against every row, this scores each row against
        exactly one owning query — which is what a lockstep beam search
        needs, since each beam only cares about its *own* frontier.  Same
        contract: entry ``i`` is bit-identical to
        ``batch(queries[owners[i]], matrix[i:i+1])[0]``.  The default
        loops per owner run; concrete kernels override with one vectorised
        gather + rowwise evaluation.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        owners = np.asarray(owners, dtype=np.intp)
        out = np.empty(matrix.shape[0], dtype=np.float64)
        for i in range(matrix.shape[0]):
            out[i] = self.batch(queries[owners[i]], matrix[i : i + 1])[0]
        return out
