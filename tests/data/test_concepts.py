"""Tests for the concept space."""

import numpy as np
import pytest

from repro.data.concepts import ConceptSpace
from repro.errors import DataError

VOCAB = {"weather": ["foggy", "sunny"], "sky": ["clouds", "stars"]}


@pytest.fixture()
def space():
    return ConceptSpace(VOCAB, latent_dim=16, seed=1)


class TestConstruction:
    def test_counts(self, space):
        assert len(space) == 4
        assert space.categories == ("weather", "sky")

    def test_vectors_unit_norm(self, space):
        for name in space.names:
            np.testing.assert_allclose(np.linalg.norm(space.get(name).vector), 1.0)

    def test_deterministic_in_seed(self):
        a = ConceptSpace(VOCAB, latent_dim=16, seed=1).get("foggy").vector
        b = ConceptSpace(VOCAB, latent_dim=16, seed=1).get("foggy").vector
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_vectors(self):
        a = ConceptSpace(VOCAB, latent_dim=16, seed=1).get("foggy").vector
        b = ConceptSpace(VOCAB, latent_dim=16, seed=2).get("foggy").vector
        assert not np.allclose(a, b)

    def test_rejects_duplicate_names(self):
        with pytest.raises(DataError, match="duplicate"):
            ConceptSpace({"a": ["x"], "b": ["x"]}, latent_dim=8)

    def test_rejects_empty_vocabulary(self):
        with pytest.raises(DataError):
            ConceptSpace({}, latent_dim=8)

    def test_rejects_empty_category(self):
        with pytest.raises(DataError, match="no concepts"):
            ConceptSpace({"a": []}, latent_dim=8)

    def test_rejects_bad_latent_dim(self):
        with pytest.raises(ValueError):
            ConceptSpace(VOCAB, latent_dim=0)


class TestLookup:
    def test_contains_case_insensitive(self, space):
        assert "FOGGY" in space

    def test_get_unknown_raises(self, space):
        with pytest.raises(DataError, match="unknown concept"):
            space.get("rainbow")

    def test_names_in_category(self, space):
        assert space.names_in_category("sky") == ("clouds", "stars")

    def test_unknown_category_raises(self, space):
        with pytest.raises(DataError):
            space.names_in_category("food")

    def test_known_tokens_filters(self, space):
        assert space.known_tokens(["foggy", "hello", "CLOUDS"]) == ["foggy", "clouds"]


class TestCompose:
    def test_unit_norm(self, space):
        latent = space.compose(["foggy", "clouds"])
        np.testing.assert_allclose(np.linalg.norm(latent), 1.0)

    def test_intensities_shift_composition(self, space):
        even = space.compose(["foggy", "clouds"])
        skewed = space.compose(["foggy", "clouds"], intensities=[10.0, 0.1])
        foggy = space.get("foggy").vector
        assert skewed @ foggy > even @ foggy

    def test_empty_raises(self, space):
        with pytest.raises(DataError):
            space.compose([])

    def test_mismatched_intensities_raise(self, space):
        with pytest.raises(DataError):
            space.compose(["foggy"], intensities=[1.0, 2.0])

    def test_negative_intensity_raises(self, space):
        with pytest.raises(DataError):
            space.compose(["foggy"], intensities=[-1.0])


class TestSampling:
    def test_one_concept_per_category(self, space):
        bags, intensities = space.sample_bags(0, ("test",), range(20), 2, 2)
        for picked, weights in zip(bags, intensities):
            categories = {space.get(name).category for name in picked}
            assert len(categories) == len(picked) == len(weights) == 2
            assert all(0.5 <= w < 1.5 for w in weights)

    def test_count_bounded_by_categories(self, space):
        bags, _ = space.sample_bags(0, ("test",), range(20), 4, 6)
        assert all(len(picked) == len(space.categories) for picked in bags)

    def test_rejects_bad_bounds(self, space):
        with pytest.raises(ValueError):
            space.sample_bags(0, ("test",), [0], 3, 2)
