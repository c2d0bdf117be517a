"""Property tests for the weight-folded MUST kernel and stacked ``matrix``.

The folded evaluation ``‖√w ⊙ (q − x)‖²`` reassociates the definitional
``Σ_m w_m‖q_m − x_m‖²`` by a few ulp, so it is held to ``rtol=1e-12``
against the definition (bit-identity *between* the batched entry points is
``test_batch_many.py``'s job).  ``matrix`` over stacked ``(R, n, d)``
blocks must agree with the per-block 2-D call for every kernel, including
the base-class default.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance import (
    Metric,
    MultiVectorSchema,
    SingleVectorKernel,
    WeightedMultiVectorKernel,
)
from repro.distance.kernel import DistanceKernel

MODALITIES = ("text", "image", "audio")


@st.composite
def weighted_kernels(draw):
    """A random schema with random weights, one of which may be zero."""
    count = draw(st.integers(min_value=1, max_value=3))
    dims = draw(st.lists(st.integers(1, 9), min_size=count, max_size=count))
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.05, 4.0)),
            min_size=count,
            max_size=count,
        ).filter(lambda ws: sum(ws) > 0)
    )
    schema = MultiVectorSchema(dict(zip(MODALITIES, dims)))
    return WeightedMultiVectorKernel(schema, dict(zip(MODALITIES, weights)))


def _definition(kernel, query, matrix):
    total = np.zeros(matrix.shape[0])
    for i, weight in enumerate(kernel.weights):
        seg = kernel.schema.segment(i)
        total += weight * ((matrix[:, seg] - query[seg]) ** 2).sum(axis=1)
    return total


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kernel=weighted_kernels(),
    seed=st.integers(0, 2**16),
    n_rows=st.integers(1, 40),
)
def test_folded_entries_match_the_definition(kernel, seed, n_rows):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n_rows, kernel.dim))
    queries = rng.normal(size=(3, kernel.dim))
    owners = rng.integers(0, 3, size=n_rows)
    expected = np.stack([_definition(kernel, q, matrix) for q in queries])
    np.testing.assert_allclose(kernel.batch(queries[0], matrix), expected[0], rtol=1e-12)
    np.testing.assert_allclose(kernel.batch_many(queries, matrix), expected, rtol=1e-12)
    np.testing.assert_allclose(
        kernel.batch_paired(queries, matrix, owners),
        expected[owners, np.arange(n_rows)],
        rtol=1e-12,
    )
    # single() keeps its per-segment scan; it must still agree with batch()
    np.testing.assert_allclose(
        kernel.single(queries[0], matrix[0]), expected[0, 0], rtol=1e-12
    )


def test_with_weights_refolds():
    schema = MultiVectorSchema({"text": 3, "image": 2})
    base = WeightedMultiVectorKernel(schema)
    override = base.with_weights({"text": 0.0, "image": 1.0})
    rng = np.random.default_rng(0)
    query, matrix = rng.normal(size=5), rng.normal(size=(7, 5))
    np.testing.assert_allclose(
        override.batch(query, matrix), _definition(override, query, matrix), rtol=1e-12
    )
    # all weight on the image segment: the text columns no longer matter
    moved = matrix.copy()
    moved[:, :3] += 5.0
    np.testing.assert_array_equal(override.batch(query, moved), override.batch(query, matrix))
    assert not np.allclose(base.batch(query, moved), base.batch(query, matrix))


class LoopKernel(DistanceKernel):
    """Only the abstract methods, so ``matrix`` is the base-class default."""

    @property
    def dim(self) -> int:
        return 6

    def batch(self, query, matrix):
        return np.abs(np.atleast_2d(matrix) - query).sum(axis=1)


def _matrix_kernels():
    schema = MultiVectorSchema({"text": 4, "image": 2})
    return [
        SingleVectorKernel(6),
        SingleVectorKernel(6, metric=Metric.INNER_PRODUCT),
        WeightedMultiVectorKernel(schema, {"text": 0.3, "image": 1.7}),
        LoopKernel(),
    ]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    blocks=st.integers(1, 6),
    n_rows=st.integers(1, 9),
    n_cols=st.integers(1, 9),
)
def test_stacked_matrix_equals_per_block(seed, blocks, n_rows, n_cols):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(blocks, n_rows, 6))
    cols = rng.normal(size=(blocks, n_cols, 6))
    for kernel in _matrix_kernels():
        calls_before = kernel.stats.calls
        stacked = kernel.matrix(rows, cols)
        assert stacked.shape == (blocks, n_rows, n_cols)
        if not isinstance(kernel, LoopKernel):
            assert kernel.stats.calls - calls_before == stacked.size
        for b in range(blocks):
            np.testing.assert_allclose(
                stacked[b], kernel.matrix(rows[b], cols[b]), rtol=1e-9, atol=1e-12
            )
        same = kernel.matrix(rows, rows)
        for b in range(blocks):
            np.testing.assert_allclose(
                same[b], kernel.matrix(rows[b], rows[b].copy()), rtol=1e-9, atol=1e-12
            )
