"""Scalar and batch distance functions."""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import DimensionMismatchError


class Metric(str, enum.Enum):
    """Distance metric identifiers accepted by index configurations."""

    SQUARED_L2 = "squared_l2"
    COSINE = "cosine"
    INNER_PRODUCT = "inner_product"

    @classmethod
    def parse(cls, value: "str | Metric") -> "Metric":
        """Coerce a string such as ``"cosine"`` into a :class:`Metric`."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value.lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown metric {value!r}; expected one of: {valid}") from None


def _check_dims(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[-1] != b.shape[-1]:
        raise DimensionMismatchError(
            f"vectors have incompatible dims {a.shape[-1]} and {b.shape[-1]}"
        )


def squared_l2(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Euclidean distance between two vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_dims(a, b)
    diff = a - b
    return float(diff @ diff)


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``1 - cos(a, b)``; 1.0 for orthogonal, 0.0 for parallel vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_dims(a, b)
    denom = max(np.linalg.norm(a) * np.linalg.norm(b), 1e-12)
    return float(1.0 - (a @ b) / denom)


def inner_product_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Negated inner product, so that smaller still means more similar."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_dims(a, b)
    return float(-(a @ b))


def _corpus_chunk_rows(n_queries: int, dim: int) -> int:
    """Corpus rows per scratch block, capping the scratch tensor ~0.5 MB.

    The block must stay cache-resident: the diff scratch is read and
    written once per arithmetic pass, so a block larger than L2 turns the
    kernel memory-bound and *slower* than the serial per-query scan.
    """
    budget = 65_536  # float64 elements (~0.5 MB scratch)
    return max(1, budget // max(1, n_queries * dim))


def rowwise_squared_l2(queries: np.ndarray, corpus: np.ndarray) -> np.ndarray:
    """Squared L2 between every query row and every corpus row, bit-stable.

    Unlike :func:`pairwise_squared_l2`'s gemm expansion — whose blocked
    accumulation order depends on the *shape* of the inputs, so the same
    (query, row) pair can land on different floats at different batch
    sizes — this computes each pair as an independent
    ``((row - query) ** 2).sum()`` via broadcasting.  Every entry is
    bit-identical to the serial one-query evaluation regardless of how
    many queries share the call, which is what lets the batched search
    path promise id-identical results.  Corpus rows are processed in
    blocks to bound scratch memory; blocking never changes any entry.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    corpus = np.atleast_2d(np.asarray(corpus, dtype=np.float64))
    _check_dims(queries, corpus)
    n_queries, dim = queries.shape
    n_rows = corpus.shape[0]
    out = np.empty((n_queries, n_rows), dtype=np.float64)
    # Per-query 2-D passes beat a (Q, chunk, D) broadcast: the broadcast
    # subtract falls off numpy's fast contiguous ufunc loops, while the
    # dense 2-D forms below run at full speed.  Element order within each
    # output row is unchanged, so blocking/layout never changes any entry.
    chunk = max(1, min(_corpus_chunk_rows(1, dim), n_rows))
    scratch = np.empty((chunk, dim), dtype=np.float64)
    for q in range(n_queries):
        query = queries[q]
        for start in range(0, n_rows, chunk):
            block = corpus[start : start + chunk]
            view = scratch[: block.shape[0]]
            np.subtract(block, query, out=view)
            np.multiply(view, view, out=view)
            np.sum(view, axis=-1, out=out[q, start : start + chunk])
    return out


def rowwise_inner_product_distance(
    queries: np.ndarray, corpus: np.ndarray
) -> np.ndarray:
    """Negated inner products, computed with the same bit-stable guarantee
    as :func:`rowwise_squared_l2` (multiply-then-reduce per pair, never a
    gemm whose accumulation order varies with batch shape)."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    corpus = np.atleast_2d(np.asarray(corpus, dtype=np.float64))
    _check_dims(queries, corpus)
    n_queries, dim = queries.shape
    n_rows = corpus.shape[0]
    out = np.empty((n_queries, n_rows), dtype=np.float64)
    chunk = max(1, min(_corpus_chunk_rows(1, dim), n_rows))
    scratch = np.empty((chunk, dim), dtype=np.float64)
    for q in range(n_queries):
        query = queries[q]
        for start in range(0, n_rows, chunk):
            block = corpus[start : start + chunk]
            view = scratch[: block.shape[0]]
            np.multiply(block, query, out=view)
            np.sum(view, axis=-1, out=out[q, start : start + chunk])
            np.negative(
                out[q, start : start + chunk], out=out[q, start : start + chunk]
            )
    return out


def paired_squared_l2(queries: np.ndarray, corpus: np.ndarray) -> np.ndarray:
    """Squared L2 between ``queries[i]`` and ``corpus[i]`` for every ``i``.

    The ragged-batch workhorse: the lockstep beam search gathers each
    beam's own frontier neighbours (query rows repeated per neighbour) and
    scores exactly those pairs in one dispatch — no all-pairs waste.  The
    arithmetic per pair (elementwise subtract, square, pairwise-sum along
    the last axis) is identical to :func:`rowwise_squared_l2`'s, so every
    entry is bit-identical to the serial one-query evaluation.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    corpus = np.atleast_2d(np.asarray(corpus, dtype=np.float64))
    _check_dims(queries, corpus)
    diff = corpus - queries
    np.multiply(diff, diff, out=diff)
    return np.add.reduce(diff, axis=-1)


def paired_inner_product_distance(
    queries: np.ndarray, corpus: np.ndarray
) -> np.ndarray:
    """Negated inner product between ``queries[i]`` and ``corpus[i]``,
    with the same bit-stability guarantee as :func:`paired_squared_l2`."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    corpus = np.atleast_2d(np.asarray(corpus, dtype=np.float64))
    _check_dims(queries, corpus)
    product = corpus * queries
    total = np.add.reduce(product, axis=-1)
    np.negative(total, out=total)
    return total


def squared_norms(rows: np.ndarray) -> np.ndarray:
    """``‖row‖²`` of every row along the last axis: a reduction over each
    row alone, so a row's norm is the same bits whatever it is stacked
    with — never a GEMV, whose accumulation order follows the row count."""
    return (rows * rows).sum(axis=-1)


def pairwise_squared_l2(
    queries: np.ndarray,
    corpus: np.ndarray,
    *,
    query_norms: "np.ndarray | None" = None,
    corpus_norms: "np.ndarray | None" = None,
) -> np.ndarray:
    """Squared L2 between every query row and every corpus row.

    Uses the expansion ``|q - x|^2 = |q|^2 - 2 q.x + |x|^2`` so the whole
    computation is three BLAS calls; negatives from floating-point
    cancellation are clamped to zero.  Inputs may carry matching leading
    axes — ``(R, n, d)`` against ``(R, m, d)`` gives the ``(R, n, m)``
    stack of per-block distance matrices in the same three calls.  Norms
    not handed over are :func:`squared_norms` of their rows; handed over,
    they must be those (a gather of them is).

    The steps after the product run in place on its output, in the order
    ``np.maximum(q_norms - (2.0 * q) @ cᵀ + c_norms, 0)`` evaluates them,
    so every entry is that expression's.  The product's left operand is
    the scaled copy ``2.0 * q``, never ``q`` itself: on a self-distance
    call ``q @ qᵀ`` is one array times its own transpose, which NumPy may
    hand to a symmetric-rank-k routine that rounds differently, so
    ``-2.0 * (q @ qᵀ)`` is *not* the same floats.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    corpus = np.atleast_2d(np.asarray(corpus, dtype=np.float64))
    _check_dims(queries, corpus)
    if query_norms is None:
        query_norms = squared_norms(queries)
    if corpus_norms is None:
        corpus_norms = squared_norms(corpus)
    distances = (2.0 * queries) @ np.swapaxes(corpus, -1, -2)
    np.subtract(query_norms[..., :, None], distances, out=distances)
    distances += corpus_norms[..., None, :]
    return np.maximum(distances, 0.0, out=distances)
