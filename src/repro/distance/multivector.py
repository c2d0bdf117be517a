"""Weighted multi-vector distance — the heart of MUST's similarity model.

A multi-modal object is a *tuple* of vectors, one per modality, stored
concatenated.  The distance between query and object is the weighted sum of
per-modality squared L2 distances:

    d_w(q, x) = sum_m  w_m * |q_m - x_m|^2

Because every term is non-negative, scanning modalities incrementally and
aborting once the running sum exceeds the best-so-far candidate distance is
an *exact* optimisation ("computational pruning" in the paper):
:meth:`WeightedMultiVectorKernel.single` with a ``bound``.  The kernel
counts evaluated segments so experiment E5 can report the work saved.  No
search calls it: scored pair by pair, a round is slower in numpy than in
one vectorised call (E5 times both).

The vectorised entry points use the folded form of the same distance,

    d_w(q, x) = | sqrt(w) * (q - x) |^2      (sqrt(w) spread per column)

so a call is one full-width subtract, one scale and one row-wise sum of
squares whatever the number of modalities.  The scaling is applied at
evaluation time — no pre-scaled copy of the corpus is kept, so per-query
weight overrides are just another ``sqrt(w)`` vector.  The one exception
lives only as long as a graph build: :meth:`WeightedMultiVectorKernel.embed`
scales the corpus and takes its norms once, and the build's blocks gather
from that (``matrix`` reads it as it reads raw rows).
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.data.modality import Modality
from repro.distance.kernel import DistanceKernel, Embedding
from repro.distance.metrics import pairwise_squared_l2, squared_norms
from repro.errors import DimensionMismatchError, EncodingError


class MultiVectorSchema:
    """Layout of concatenated per-modality vectors.

    Args:
        dims: Ordered mapping from modality to that modality's vector
            dimensionality.  Concatenation order follows mapping order.
    """

    def __init__(self, dims: Mapping[Modality, int]) -> None:
        if not dims:
            raise EncodingError("multi-vector schema needs at least one modality")
        self._modalities: Tuple[Modality, ...] = tuple(Modality.parse(m) for m in dims)
        self._dims: Tuple[int, ...] = tuple(int(d) for d in dims.values())
        if any(d <= 0 for d in self._dims):
            raise EncodingError(f"all modality dims must be positive, got {self._dims}")
        offsets = [0]
        for d in self._dims:
            offsets.append(offsets[-1] + d)
        self._offsets: Tuple[int, ...] = tuple(offsets)

    @property
    def modalities(self) -> Tuple[Modality, ...]:
        """Concatenation order."""
        return self._modalities

    @property
    def total_dim(self) -> int:
        """Dimensionality of the concatenated vector."""
        return self._offsets[-1]

    def dim_of(self, modality: Modality) -> int:
        """Dimensionality of one modality's segment."""
        modality = Modality.parse(modality)
        try:
            return self._dims[self._modalities.index(modality)]
        except ValueError:
            raise EncodingError(f"schema has no modality {modality.value!r}") from None

    def segment(self, index: int) -> slice:
        """Slice selecting segment ``index`` of a concatenated vector."""
        return slice(self._offsets[index], self._offsets[index + 1])

    def concat(self, vectors: Mapping[Modality, np.ndarray]) -> np.ndarray:
        """Concatenate per-modality vectors in schema order.

        Modalities missing from ``vectors`` (a text-only query against a
        text+image schema) are zero-filled; zero segments contribute a
        constant to every distance under squared L2 against unit-norm
        stored vectors, so rankings are unaffected.
        """
        parts = []
        for modality, dim in zip(self._modalities, self._dims):
            if modality in vectors:
                vector = np.asarray(vectors[modality], dtype=np.float64)
                if vector.shape != (dim,):
                    raise DimensionMismatchError(
                        f"{modality.value} vector has shape {vector.shape}, "
                        f"schema expects ({dim},)"
                    )
                parts.append(vector)
            else:
                parts.append(np.zeros(dim))
        return np.concatenate(parts)

    def split(self, concatenated: np.ndarray) -> Dict[Modality, np.ndarray]:
        """Split a concatenated vector back into per-modality segments."""
        concatenated = np.asarray(concatenated, dtype=np.float64)
        if concatenated.shape[-1] != self.total_dim:
            raise DimensionMismatchError(
                f"vector has dim {concatenated.shape[-1]}, schema expects {self.total_dim}"
            )
        return {
            modality: concatenated[..., self.segment(i)]
            for i, modality in enumerate(self._modalities)
        }


class WeightedMultiVectorKernel(DistanceKernel):
    """Weighted per-modality squared-L2 with incremental scanning.

    Args:
        schema: Concatenation layout.
        weights: Per-modality weights in schema order or as a mapping.
            Normalised to sum to the number of modalities, so equal weights
            are all 1.0 and distances stay comparable across weightings.
    """

    def __init__(
        self,
        schema: MultiVectorSchema,
        weights: "Sequence[float] | Mapping[Modality, float] | None" = None,
    ) -> None:
        super().__init__()
        self.schema = schema
        self._weights = self._normalise_weights(weights)
        # Scanning more discriminative (higher-weight) segments first makes
        # the running sum grow fastest, maximising pruning opportunities.
        self._scan_order = tuple(int(i) for i in np.argsort(-self._weights))
        # Per-column sqrt(w_m): the weights folded into one (dim,) vector,
        # applied at evaluation time (no scaled copy of the corpus).
        self._sqrt_weights = np.repeat(
            np.sqrt(self._weights), [schema.dim_of(m) for m in schema.modalities]
        )

    def _normalise_weights(self, weights) -> np.ndarray:
        count = len(self.schema.modalities)
        if weights is None:
            return np.ones(count)
        if isinstance(weights, Mapping):
            parsed = {Modality.parse(k): float(v) for k, v in weights.items()}
            missing = [m for m in self.schema.modalities if m not in parsed]
            if missing:
                names = ", ".join(m.value for m in missing)
                raise EncodingError(f"weights missing for modalities: {names}")
            values = np.array([parsed[m] for m in self.schema.modalities])
        else:
            values = np.asarray(list(weights), dtype=np.float64)
            if values.shape != (count,):
                raise EncodingError(
                    f"expected {count} weights, got {values.shape}"
                )
        if not np.isfinite(values).all():
            raise EncodingError(f"modality weights must be finite, got {values}")
        if (values < 0).any():
            raise EncodingError(f"modality weights must be non-negative, got {values}")
        with np.errstate(all="ignore"):
            total = values.sum()
            normalised = values * (count / total)
        if total <= 0:
            raise EncodingError("modality weights must not all be zero")
        # A sum past the float range normalises to zeros, a subnormal sum
        # to inf and nan: both would be served as scores.
        if not (np.isfinite(total) and np.isfinite(normalised).all()):
            raise EncodingError(f"modality weights {values} do not normalise to finite weights")
        return normalised

    @property
    def weights(self) -> np.ndarray:
        """Normalised per-modality weights in schema order."""
        return self._weights.copy()

    def weights_by_modality(self) -> Dict[Modality, float]:
        """Weights keyed by modality."""
        return {
            m: float(w) for m, w in zip(self.schema.modalities, self._weights)
        }

    @property
    def dim(self) -> int:
        return self.schema.total_dim

    def with_weights(self, weights) -> "WeightedMultiVectorKernel":
        """A new kernel over the same schema with different weights."""
        return WeightedMultiVectorKernel(self.schema, weights)

    # ------------------------------------------------------------------
    # distance evaluation
    # ------------------------------------------------------------------
    def _folded_squared_norms(
        self, diff: np.ndarray, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Scale ``diff`` rows by ``√w`` in place; return their squared norms.

        The one primitive behind :meth:`batch`, :meth:`batch_many` and
        :meth:`batch_paired`: ``d_w(q, x) = Σ_m w_m‖q_m − x_m‖² =
        ‖√w ⊙ (q − x)‖²``, so a full-width scale plus one row-wise sum of
        squares replaces the per-segment subtract/square/reduce/accumulate.
        Each output entry depends only on its own ``diff`` row, which is
        what keeps the three entry points bit-identical to each other.
        """
        np.multiply(diff, self._sqrt_weights, out=diff)
        return np.einsum("ij,ij->i", diff, diff, out=out)

    def _check_matrix(self, matrix: np.ndarray) -> np.ndarray:
        matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        if matrix.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"matrix dim {matrix.shape[1]} != schema dim {self.dim}"
            )
        return matrix

    def _count(self, pairs: int) -> None:
        self.stats.calls += pairs
        self.stats.segments_evaluated += pairs * len(self._weights)
        self.stats.segments_total += pairs * len(self._weights)

    def batch(self, query: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        query = np.asarray(query, dtype=np.float64)
        matrix = self._check_matrix(matrix)
        self._count(matrix.shape[0])
        return self._folded_squared_norms(matrix - query)

    def batch_many(self, queries: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        matrix = self._check_matrix(matrix)
        n_queries = queries.shape[0]
        n_rows = matrix.shape[0]
        out = np.empty((n_queries, n_rows), dtype=np.float64)
        # One dense 2-D pass per query over a reused scratch block; row q
        # goes through exactly batch()'s subtract -> scale -> sum of
        # squares, so it is bit-identical to the serial evaluation.
        scratch = np.empty((n_rows, self.dim), dtype=np.float64)
        for q in range(n_queries):
            np.subtract(matrix, queries[q], out=scratch)
            self._folded_squared_norms(scratch, out=out[q])
        self._count(n_queries * n_rows)
        return out

    def batch_paired(
        self, queries: np.ndarray, matrix: np.ndarray, owners: np.ndarray
    ) -> np.ndarray:
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        matrix = self._check_matrix(matrix)
        # The gather is a fresh copy, so it doubles as the diff buffer;
        # entry i is bit-identical to the serial evaluation of
        # (queries[owners[i]], matrix[i]).
        diff = queries[np.asarray(owners, dtype=np.intp)]
        np.subtract(matrix, diff, out=diff)
        self._count(matrix.shape[0])
        return self._folded_squared_norms(diff)

    def embed(self, vectors: np.ndarray) -> Embedding:
        """Rows as ``√w ⊙ x`` with their squared norms: the points whose
        plain squared L2 is this kernel's distance (``matrix``'s input)."""
        if isinstance(vectors, Embedding):
            return vectors
        points = np.atleast_2d(np.asarray(vectors, dtype=np.float64)) * self._sqrt_weights
        return Embedding(points, squared_norms(points))

    def matrix(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        embedded = self.embed(rows)
        # Construction calls this on a block against itself: embed it once.
        other = embedded if cols is rows else self.embed(cols)
        distances = pairwise_squared_l2(
            embedded.points, other.points,
            query_norms=embedded.norms, corpus_norms=other.norms,
        )
        self._count(distances.size)
        return distances

    def single(self, query: np.ndarray, vector: np.ndarray, bound: float = np.inf) -> float:
        """Distance from ``query`` to one ``vector`` by incremental scanning:
        segments in descending weight order, abandoned as soon as the
        partial sum exceeds a finite ``bound``.  An abandoned scan returns
        that partial sum, which is ``> bound``, as the exact distance is."""
        query = np.asarray(query, dtype=np.float64)
        vector = np.asarray(vector, dtype=np.float64)
        self.stats.calls += 1
        self.stats.segments_total += len(self._weights)
        total = 0.0
        for i in self._scan_order:
            seg = self.schema.segment(i)
            diff = query[seg] - vector[seg]
            total += self._weights[i] * float(diff @ diff)
            self.stats.segments_evaluated += 1
            if total > bound:
                self.stats.pruned += 1
                return total
        return total
