"""Tests for the object store."""

import numpy as np
import pytest

from repro.data import Modality, MultiModalObject
from repro.data.store import ObjectStore
from repro.errors import DataError, UnknownObjectError


class TestObjectStore:
    def test_dense_id_assignment(self):
        store = ObjectStore()
        first = store.add({"text": "a"})
        second = store.add({"text": "b"})
        assert (first.object_id, second.object_id) == (0, 1)
        assert list(store.ids()) == [0, 1]

    def test_get_roundtrip(self):
        store = ObjectStore()
        obj = store.add({"text": "a"}, concepts=("x",))
        assert store.get(0) is obj

    def test_get_unknown_raises(self):
        store = ObjectStore()
        with pytest.raises(UnknownObjectError):
            store.get(0)

    def test_get_rejects_non_int(self):
        store = ObjectStore()
        store.add({"text": "a"})
        with pytest.raises(UnknownObjectError):
            store.get("0")

    def test_get_refuses_a_bool_and_takes_numpy_integers(self):
        # True == 1, so a bool used to fetch object 1.
        store = ObjectStore()
        store.add({"text": "a"})
        second = store.add({"text": "b"})
        for refused in (True, False, np.True_, -1, 1.0, np.float64(1.0)):
            with pytest.raises(UnknownObjectError):
                store.get(refused)
        for index in (np.int64(1), np.uint8(1), np.intp(1)):
            assert store.get(index) is second

    def test_contains(self):
        store = ObjectStore()
        store.add({"text": "a"})
        assert 0 in store
        assert 1 not in store

    def test_add_object_enforces_density(self):
        store = ObjectStore()
        with pytest.raises(DataError, match="dense"):
            store.add_object(MultiModalObject(object_id=5, content={"text": "x"}))

    def test_common_modalities(self):
        store = ObjectStore()
        store.add({"text": "a", "image": np.zeros((2, 2))})
        store.add({"text": "b"})
        assert store.modalities() == (Modality.TEXT,)

    def test_modalities_empty_store(self):
        assert ObjectStore().modalities() == ()

    def test_iteration_order(self):
        store = ObjectStore()
        for name in "abc":
            store.add({"text": name})
        assert [obj.get("text") for obj in store] == ["a", "b", "c"]
