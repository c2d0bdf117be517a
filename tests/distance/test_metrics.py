"""Tests for scalar and batch distance functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.distance import (
    Metric,
    MultiVectorSchema,
    SingleVectorKernel,
    WeightedMultiVectorKernel,
    cosine_distance,
    inner_product_distance,
    pairwise_squared_l2,
    squared_l2,
)
from repro.errors import DimensionMismatchError


class TestMetricParse:
    def test_parse_string(self):
        assert Metric.parse("cosine") is Metric.COSINE

    def test_parse_passthrough(self):
        assert Metric.parse(Metric.SQUARED_L2) is Metric.SQUARED_L2

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            Metric.parse("manhattan")


class TestScalarDistances:
    def test_squared_l2(self):
        assert squared_l2([0.0, 0.0], [3.0, 4.0]) == 25.0

    def test_cosine_orthogonal(self):
        assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_cosine_parallel(self):
        assert cosine_distance([1.0, 0.0], [2.0, 0.0]) == pytest.approx(0.0)

    def test_inner_product_negated(self):
        assert inner_product_distance([1.0, 2.0], [3.0, 4.0]) == -11.0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            squared_l2([1.0], [1.0, 2.0])


class TestPairwise:
    def test_matches_loop(self):
        rng = np.random.default_rng(0)
        queries = rng.standard_normal((4, 8))
        corpus = rng.standard_normal((6, 8))
        fast = pairwise_squared_l2(queries, corpus)
        for i in range(4):
            for j in range(6):
                assert fast[i, j] == pytest.approx(
                    squared_l2(queries[i], corpus[j]), rel=1e-9, abs=1e-9
                )

    def test_non_negative(self):
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((50, 16)) * 1e-8
        distances = pairwise_squared_l2(matrix, matrix)
        assert (distances >= 0).all()

    @given(
        hnp.arrays(
            np.float64,
            (3, 5),
            elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_self_distance_zero(self, matrix):
        distances = pairwise_squared_l2(matrix, matrix)
        np.testing.assert_allclose(np.diag(distances), 0.0, atol=1e-6)


def _expression(queries, corpus, product=lambda q, ct: 2.0 * q @ ct):
    """The one-line form the kernel computes in place."""
    q_norms = (queries * queries).sum(axis=-1)[..., :, None]
    c_norms = (corpus * corpus).sum(axis=-1)[..., None, :]
    return np.maximum(q_norms - product(queries, np.swapaxes(corpus, -1, -2)) + c_norms, 0.0)


class TestPairwiseBits:
    """Graph builds order candidates by these floats, so the in-place
    evaluation must give the expression's bytes, not merely close ones."""

    SHAPES = [((24, 64), (40, 64)), ((7, 5), (7, 5)), ((53, 24, 64), (53, 24, 64)),
              ((16, 80, 64), (16, 12, 64)), ((3, 1, 8), (3, 9, 8))]

    @pytest.mark.parametrize("shapes", SHAPES, ids=lambda s: "x".join(map(str, s[0])))
    @pytest.mark.parametrize("operands", ["self", "distinct"])
    def test_bytes_equal_the_expression(self, shapes, operands):
        rng = np.random.default_rng(len(shapes[0]))
        queries = rng.standard_normal(shapes[0])
        corpus = queries if operands == "self" else rng.standard_normal(shapes[1])
        before = (queries.tobytes(), corpus.tobytes())
        got = pairwise_squared_l2(queries, corpus)
        assert got.dtype == np.float64 and got.shape == _expression(queries, corpus).shape
        assert got.tobytes() == _expression(queries, corpus).tobytes()
        assert (queries.tobytes(), corpus.tobytes()) == before

    def test_self_product_rewrite_is_not_the_same_floats(self):
        """``-2.0 * (q @ qᵀ)`` multiplies an array by its own transpose,
        which NumPy may route to a symmetric-rank-k routine: on this stack
        it rounds differently, which is why the kernel scales first."""
        stacks = [np.random.default_rng(seed).standard_normal((53, 24, 64)) for seed in range(3)]
        rewrite = lambda q, ct: 2.0 * (q @ ct)  # noqa: E731
        assert any(
            _expression(q, q, rewrite).tobytes() != pairwise_squared_l2(q, q).tobytes()
            for q in stacks
        )


def _parent_matrix(kernel, rows, cols):
    """What ``kernel.matrix`` computed before a build could embed its
    corpus: scale both operands by ``√w`` (the weighted kernel; the
    single-vector one uses the rows as they are), then the expression."""
    if isinstance(kernel, WeightedMultiVectorKernel):
        schema = kernel.schema
        scale = np.repeat(
            np.sqrt(kernel.weights), [schema.dim_of(m) for m in schema.modalities]
        )
        rows, cols = rows * scale, cols * scale
    return _expression(rows, cols)


class TestEmbeddedMatrixBits:
    """A build embeds its corpus once and hands ``matrix`` gathers of the
    embedding: every entry must be the bytes ``matrix`` gives on the raw
    rows, and the raw form's bytes must be the parent's expression."""

    KERNELS = {
        "weighted": lambda: WeightedMultiVectorKernel(
            MultiVectorSchema({"text": 40, "image": 24}), {"text": 0.8, "image": 1.2}
        ),
        "single": lambda: SingleVectorKernel(64),
    }
    # (rows ids, cols ids) into a 300-row corpus: 2-D blocks, a prefix, stacks.
    GATHERS = {
        "2d": ((24,), (40,)),
        "prefix": ((32,), (300,)),
        "stacked": ((53, 24), (53, 24)),
        "stacked-wide": ((16, 80), (16, 12)),
    }

    @pytest.mark.parametrize("kernel_name", sorted(KERNELS))
    @pytest.mark.parametrize("gather", sorted(GATHERS))
    @pytest.mark.parametrize("operands", ["self", "distinct"])
    def test_embedded_bytes_equal_the_parent_expression(self, kernel_name, gather, operands):
        rng = np.random.default_rng(sorted(self.GATHERS).index(gather))
        corpus = rng.standard_normal((300, 64))
        row_shape, col_shape = self.GATHERS[gather]
        rows = rng.integers(0, 300, size=row_shape)
        cols = rows if operands == "self" else rng.integers(0, 300, size=col_shape)
        if gather == "prefix":  # exact_top_k's block against every earlier row
            cols = slice(0, 300)
            rows = cols if operands == "self" else slice(268, 300)
        kernel = self.KERNELS[kernel_name]()
        embedded = kernel.embed(corpus)
        before = [a.tobytes() for a in (corpus, embedded.points, embedded.norms)]

        want = _parent_matrix(kernel, corpus[rows], corpus[cols]).tobytes()
        raw_rows = corpus[rows]
        raw = kernel.matrix(raw_rows, raw_rows if operands == "self" else corpus[cols])
        block = embedded[rows]
        got = kernel.matrix(block, block if operands == "self" else embedded[cols])
        assert raw.tobytes() == want and got.tobytes() == want
        assert [a.tobytes() for a in (corpus, embedded.points, embedded.norms)] == before
        # Embedding a gather is the gather of the embedding, bit for bit;
        # and an embedding is its own embedding.
        again = kernel.embed(corpus[rows])
        assert again.points.tobytes() == block.points.tobytes()
        assert again.norms.tobytes() == block.norms.tobytes()
        assert kernel.embed(block) is block

    def test_a_prefix_slice_is_a_view(self):
        """``exact_top_k`` reads its columns as a prefix of the build's
        embedding: a slice, never a copy of the corpus per block."""
        embedded = SingleVectorKernel(8).embed(np.ones((10, 8)))
        prefix = embedded[:6]
        assert np.shares_memory(prefix.points, embedded.points)
        assert np.shares_memory(prefix.norms, embedded.norms)

    def test_inner_product_embeds_nothing(self):
        kernel = SingleVectorKernel(8, metric=Metric.INNER_PRODUCT)
        rows = np.random.default_rng(2).standard_normal((5, 8))
        assert kernel.embed(rows) is rows
        assert kernel.matrix(rows, rows).tobytes() == (-(rows @ rows.T)).tobytes()
