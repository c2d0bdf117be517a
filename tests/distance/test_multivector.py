"""Tests for the weighted multi-vector kernel and its incremental scanning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Modality
from repro.distance import MultiVectorSchema, WeightedMultiVectorKernel
from repro.errors import DimensionMismatchError, EncodingError


@pytest.fixture()
def schema():
    return MultiVectorSchema({Modality.TEXT: 4, Modality.IMAGE: 6})


@pytest.fixture()
def corpus(schema):
    rng = np.random.default_rng(0)
    return rng.standard_normal((30, schema.total_dim))


class TestSchema:
    def test_total_dim(self, schema):
        assert schema.total_dim == 10

    def test_segments(self, schema):
        assert schema.segment(0) == slice(0, 4)
        assert schema.segment(1) == slice(4, 10)

    def test_concat_split_roundtrip(self, schema):
        parts = {Modality.TEXT: np.arange(4.0), Modality.IMAGE: np.arange(6.0)}
        concatenated = schema.concat(parts)
        recovered = schema.split(concatenated)
        np.testing.assert_array_equal(recovered[Modality.TEXT], parts[Modality.TEXT])
        np.testing.assert_array_equal(recovered[Modality.IMAGE], parts[Modality.IMAGE])

    def test_concat_zero_fills_missing(self, schema):
        concatenated = schema.concat({Modality.TEXT: np.ones(4)})
        np.testing.assert_array_equal(concatenated[4:], np.zeros(6))

    def test_concat_rejects_wrong_dim(self, schema):
        with pytest.raises(DimensionMismatchError):
            schema.concat({Modality.TEXT: np.ones(3)})

    def test_split_rejects_wrong_dim(self, schema):
        with pytest.raises(DimensionMismatchError):
            schema.split(np.ones(9))

    def test_empty_schema_rejected(self):
        with pytest.raises(EncodingError):
            MultiVectorSchema({})

    def test_dim_of(self, schema):
        assert schema.dim_of(Modality.IMAGE) == 6
        with pytest.raises(EncodingError):
            schema.dim_of(Modality.AUDIO)


class TestWeights:
    def test_default_equal(self, schema):
        kernel = WeightedMultiVectorKernel(schema)
        np.testing.assert_allclose(kernel.weights, [1.0, 1.0])

    def test_normalised_to_modality_count(self, schema):
        kernel = WeightedMultiVectorKernel(schema, [3.0, 1.0])
        np.testing.assert_allclose(kernel.weights, [1.5, 0.5])

    def test_mapping_weights(self, schema):
        kernel = WeightedMultiVectorKernel(
            schema, {Modality.IMAGE: 3.0, Modality.TEXT: 1.0}
        )
        assert kernel.weights_by_modality()[Modality.IMAGE] == pytest.approx(1.5)

    def test_missing_mapping_entry_rejected(self, schema):
        with pytest.raises(EncodingError, match="missing"):
            WeightedMultiVectorKernel(schema, {Modality.TEXT: 1.0})

    def test_negative_rejected(self, schema):
        with pytest.raises(EncodingError):
            WeightedMultiVectorKernel(schema, [1.0, -1.0])

    def test_all_zero_rejected(self, schema):
        with pytest.raises(EncodingError):
            WeightedMultiVectorKernel(schema, [0.0, 0.0])

    def test_with_weights_copies(self, schema):
        kernel = WeightedMultiVectorKernel(schema)
        other = kernel.with_weights([2.0, 0.5])
        assert other is not kernel
        assert not np.allclose(other.weights, kernel.weights)


class TestDistances:
    def test_batch_matches_single(self, schema, corpus):
        kernel = WeightedMultiVectorKernel(schema, [1.4, 0.6])
        query = corpus[0]
        batch = kernel.batch(query, corpus)
        for row, vector in enumerate(corpus):
            assert batch[row] == pytest.approx(kernel.single(query, vector))

    def test_matrix_matches_batch(self, schema, corpus):
        kernel = WeightedMultiVectorKernel(schema, [1.4, 0.6])
        matrix = kernel.matrix(corpus[:3], corpus)
        for i in range(3):
            np.testing.assert_allclose(
                matrix[i], kernel.batch(corpus[i], corpus), atol=1e-9
            )

    def test_weighting_changes_ranking(self, schema):
        # Two candidates: one matches on text, the other on image.
        query = schema.concat({Modality.TEXT: np.ones(4), Modality.IMAGE: np.ones(6)})
        text_match = schema.concat(
            {Modality.TEXT: np.ones(4), Modality.IMAGE: -np.ones(6)}
        )
        image_match = schema.concat(
            {Modality.TEXT: -np.ones(4), Modality.IMAGE: np.ones(6)}
        )
        text_heavy = WeightedMultiVectorKernel(schema, [1.9, 0.1])
        image_heavy = WeightedMultiVectorKernel(schema, [0.1, 1.9])
        assert text_heavy.single(query, text_match) < text_heavy.single(
            query, image_match
        )
        assert image_heavy.single(query, image_match) < image_heavy.single(
            query, text_match
        )


class TestIncrementalScanning:
    def test_pruned_value_exceeds_bound(self, schema, corpus):
        kernel = WeightedMultiVectorKernel(schema, [1.0, 1.0])
        exact = WeightedMultiVectorKernel(schema, [1.0, 1.0])
        query = corpus[0]
        for vector in corpus[1:]:
            full = exact.single(query, vector)
            bound = full / 4
            result = kernel.single(query, vector, bound=bound)
            assert result > bound  # pruning never under-reports

    def test_pruning_preserves_argmin(self, schema, corpus):
        # Simulated beam update: track best-so-far with bound passing.
        kernel = WeightedMultiVectorKernel(schema)
        exact = WeightedMultiVectorKernel(schema)
        query = np.zeros(schema.total_dim)
        best = np.inf
        best_row = -1
        for row, vector in enumerate(corpus):
            distance = kernel.single(query, vector, bound=best)
            if distance < best:
                best, best_row = distance, row
        truth = int(np.argmin(exact.batch(query, corpus)))
        assert best_row == truth

    def test_stats_record_savings(self, schema, corpus):
        kernel = WeightedMultiVectorKernel(schema)
        query = np.zeros(schema.total_dim)
        for vector in corpus:
            kernel.single(query, vector, bound=0.1)
        assert kernel.stats.pruned > 0
        assert kernel.stats.work_saved > 0.0

    def test_prune_is_off_by_default_and_kept_by_with_weights(self, schema, corpus):
        """Pruning is no switch: without a bound ``single`` scans every
        segment, with a finite one it exits early, and a re-weighted kernel
        keeps the mechanism."""
        kernel = WeightedMultiVectorKernel(schema)
        assert not hasattr(kernel, "prune")
        kernel.single(corpus[0], corpus[1])
        assert kernel.stats.pruned == 0
        reweighted = kernel.with_weights([2.0, 0.5])
        reweighted.single(corpus[0], corpus[1], bound=0.0)
        assert reweighted.stats.pruned == 1

    def test_prune_disabled_evaluates_everything(self, schema, corpus):
        """An infinite bound, the default, disables the early exit."""
        kernel = WeightedMultiVectorKernel(schema)
        query = np.zeros(schema.total_dim)
        for vector in corpus:
            kernel.single(query, vector, bound=np.inf)
        assert kernel.stats.pruned == 0
        assert kernel.stats.segments_evaluated == kernel.stats.segments_total

    def test_scan_order_highest_weight_first(self, schema):
        kernel = WeightedMultiVectorKernel(schema, [0.2, 1.8])
        assert kernel._scan_order[0] == 1

    @given(
        st.lists(st.floats(min_value=0.05, max_value=5), min_size=2, max_size=2),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_prune_exactness(self, weights, seed):
        schema = MultiVectorSchema({Modality.TEXT: 3, Modality.IMAGE: 5})
        kernel = WeightedMultiVectorKernel(schema, weights)
        exact = WeightedMultiVectorKernel(schema, weights)
        rng = np.random.default_rng(seed)
        query = rng.standard_normal(8)
        vector = rng.standard_normal(8)
        full = exact.single(query, vector)
        for bound in (full * 2, full, full / 2, 0.0):
            pruned = kernel.single(query, vector, bound=bound)
            if pruned <= bound:
                assert pruned == pytest.approx(full)
            else:
                assert full > bound or pruned == pytest.approx(full)
