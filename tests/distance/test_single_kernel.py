"""Tests for the single-vector kernel."""

import numpy as np
import pytest

from repro.distance import Metric, SingleVectorKernel
from repro.errors import DimensionMismatchError


@pytest.fixture()
def corpus():
    rng = np.random.default_rng(0)
    return rng.standard_normal((20, 16))


class TestBatch:
    def test_matches_single(self, corpus):
        kernel = SingleVectorKernel(16)
        query = corpus[0]
        batch = kernel.batch(query, corpus)
        for row, vector in enumerate(corpus):
            assert batch[row] == pytest.approx(((query - vector) ** 2).sum())

    def test_inner_product(self, corpus):
        kernel = SingleVectorKernel(16, metric=Metric.INNER_PRODUCT)
        query = corpus[1]
        batch = kernel.batch(query, corpus)
        np.testing.assert_allclose(batch, -(corpus @ query))

    def test_matrix_matches_batch(self, corpus):
        kernel = SingleVectorKernel(16)
        matrix = kernel.matrix(corpus[:3], corpus)
        for i in range(3):
            np.testing.assert_allclose(matrix[i], kernel.batch(corpus[i], corpus))


class TestNoIncrementalScanning:
    def test_a_bound_never_cuts_a_distance_short(self, corpus):
        """A single vector is one segment: the kernel has no bounded
        one-pair entry to cut short, and every distance it gives is whole."""
        kernel = SingleVectorKernel(16)
        assert not hasattr(kernel, "single") and not hasattr(kernel, "prune")
        kernel.batch(corpus[0], corpus)
        assert kernel.stats.pruned == 0
        assert kernel.stats.segments_evaluated == kernel.stats.segments_total


class TestPrepare:
    def test_cosine_normalises(self):
        kernel = SingleVectorKernel(4, metric=Metric.COSINE)
        prepared = kernel.prepare(np.array([[3.0, 0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(prepared, [[1.0, 0.0, 0.0, 0.0]])

    def test_dim_checked(self):
        kernel = SingleVectorKernel(4)
        with pytest.raises(DimensionMismatchError):
            kernel.prepare(np.zeros((2, 5)))

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            SingleVectorKernel(0)
