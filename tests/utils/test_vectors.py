"""Tests for vector helpers, including simplex-projection properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import l2_normalize, project_to_simplex


class TestL2Normalize:
    def test_unit_norm(self):
        vector = np.array([3.0, 4.0])
        np.testing.assert_allclose(np.linalg.norm(l2_normalize(vector)), 1.0)

    def test_zero_vector_stays_zero(self):
        np.testing.assert_array_equal(l2_normalize(np.zeros(4)), np.zeros(4))

    def test_batch_normalisation(self):
        matrix = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]])
        norms = np.linalg.norm(l2_normalize(matrix), axis=1)
        np.testing.assert_allclose(norms, np.ones(3))

    def test_direction_preserved(self):
        vector = np.array([2.0, 0.0, 0.0])
        np.testing.assert_allclose(l2_normalize(vector), [1.0, 0.0, 0.0])

    @given(
        shape=st.sampled_from([(7,), (64,), (1, 64), (33, 17), (3, 4, 5), (0, 8)]),
        axis=st.sampled_from([-1, 0]),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-8, 1.0, 1e6]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bits_are_linalg_norm_s(self, shape, axis, seed, scale):
        vectors = np.random.default_rng(seed).standard_normal(shape) * scale
        norms = np.linalg.norm(vectors, axis=axis, keepdims=True)
        assert np.array_equal(
            l2_normalize(vectors, axis=axis), vectors / np.maximum(norms, 1e-12)
        )


class TestProjectToSimplex:
    def test_already_on_simplex_unchanged(self):
        weights = np.array([0.25, 0.75])
        np.testing.assert_allclose(project_to_simplex(weights), weights)

    def test_negative_entries_clipped(self):
        projected = project_to_simplex(np.array([1.5, -0.5]))
        assert (projected >= 0).all()
        np.testing.assert_allclose(projected.sum(), 1.0)

    def test_custom_total(self):
        projected = project_to_simplex(np.array([5.0, 1.0]), total=2.0)
        np.testing.assert_allclose(projected.sum(), 2.0)

    def test_rejects_nonpositive_total(self):
        with pytest.raises(ValueError):
            project_to_simplex(np.array([1.0]), total=0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            project_to_simplex(np.array([]))

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=0.1, max_value=10),
    )
    @settings(max_examples=80, deadline=None)
    def test_projection_properties(self, values, total):
        projected = project_to_simplex(np.array(values), total=total)
        assert (projected >= 0).all()
        np.testing.assert_allclose(projected.sum(), total, rtol=1e-8, atol=1e-8)

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=10, allow_nan=False),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_order_preserved(self, values):
        # Projection never swaps the relative order of coordinates.
        weights = np.array(values)
        projected = project_to_simplex(weights, total=1.0)
        for i in range(len(values)):
            for j in range(len(values)):
                if weights[i] > weights[j]:
                    assert projected[i] >= projected[j] - 1e-9
