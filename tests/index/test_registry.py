"""Tests for the index registry."""

import pytest

from repro.errors import ConfigurationError
from repro.index import (
    FlatIndex,
    HnswIndex,
    NsgIndex,
    StarlingIndex,
    VamanaIndex,
    available_indexes,
    build_index,
    register_index,
)


class TestIndexRegistry:
    def test_builtins_present(self):
        names = set(available_indexes())
        assert {"flat", "hnsw", "nsg", "vamana", "diskann", "starling", "nav-must"} <= names

    def test_build_types(self):
        assert isinstance(build_index("flat"), FlatIndex)
        assert isinstance(build_index("hnsw"), HnswIndex)
        assert isinstance(build_index("nsg"), NsgIndex)
        assert isinstance(build_index("diskann"), VamanaIndex)
        assert isinstance(build_index("starling"), StarlingIndex)

    def test_params_forwarded(self):
        index = build_index("hnsw", {"m": 4, "ef_construction": 16})
        assert index.params.m == 4

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigurationError, match="parameters"):
            build_index("hnsw", {"bogus": 1})

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="available"):
            build_index("faiss")

    def test_custom_registration(self, registered):
        registered(register_index, "test-flat", lambda p: FlatIndex())
        assert isinstance(build_index("test-flat"), FlatIndex)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            register_index("", lambda p: FlatIndex())

    def test_each_call_fresh_instance(self):
        assert build_index("flat") is not build_index("flat")
