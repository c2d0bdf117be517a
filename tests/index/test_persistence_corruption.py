"""A corrupt saved graph is refused whole.

``load_index`` rebuilds rows with ``set_neighbors``, which drops an
out-of-range id silently, and a vector matrix shorter than the graph fails
only at the first search.  So the saved arrays are checked before anything
is built: each corruption below, written into an otherwise intact save of a
200-row Vamana, must raise :class:`IndexError_` naming the directory.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.distance import SingleVectorKernel
from repro.errors import IndexError_
from repro.index import VamanaIndex, VamanaParams, load_index, save_index


@pytest.fixture(scope="module")
def saved(unit_vectors, tmp_path_factory):
    index = VamanaIndex(VamanaParams(max_degree=8, candidate_pool=16))
    index.build(unit_vectors[:200], SingleVectorKernel(32))
    return save_index(index, tmp_path_factory.mktemp("intact"))


def _corrupt(saved, tmp_path, arrays=None, meta=None):
    """A copy of ``saved`` with ``arrays(dict)`` / ``meta(dict)`` applied."""
    with np.load(saved / "index.npz") as stored:
        contents = dict(stored)
    document = json.loads((saved / "index.json").read_text())
    if arrays is not None:
        arrays(contents)
    if meta is not None:
        meta(document)
    np.savez_compressed(tmp_path / "index.npz", **contents)
    (tmp_path / "index.json").write_text(json.dumps(document))
    return tmp_path


def _refused(directory, match):
    with pytest.raises(IndexError_, match=match) as caught:
        load_index(directory)
    assert str(directory) in str(caught.value)


def test_the_intact_save_loads(saved, unit_vectors, tmp_path):
    loaded = load_index(_corrupt(saved, tmp_path))
    assert loaded.size == 200
    assert loaded.search(unit_vectors[0], k=3).ids[0] == 0


def test_an_out_of_range_target_is_refused(saved, tmp_path):
    def plant(arrays):
        arrays["targets"] = arrays["targets"].copy()
        arrays["targets"][0] = 10**6

    _refused(_corrupt(saved, tmp_path, plant), "target is outside 0..199")


def test_a_negative_target_is_refused(saved, tmp_path):
    def plant(arrays):
        arrays["targets"] = arrays["targets"].copy()
        arrays["targets"][-1] = -1

    _refused(_corrupt(saved, tmp_path, plant), "target is outside")


def test_too_few_vector_rows_are_refused(saved, tmp_path):
    def shorten(arrays):
        arrays["vectors"] = arrays["vectors"][:50]

    _refused(_corrupt(saved, tmp_path, shorten), "50 vector rows for 200 vertices")


def test_truncated_offsets_are_refused(saved, tmp_path):
    def truncate(arrays):
        arrays["offsets"] = arrays["offsets"][:100]

    _refused(_corrupt(saved, tmp_path, truncate), "offsets must be 201 entries")


def test_decreasing_offsets_are_refused(saved, tmp_path):
    def swap(arrays):
        offsets = arrays["offsets"].copy()
        offsets[5], offsets[6] = offsets[6], offsets[5] - 1
        arrays["offsets"] = offsets

    _refused(_corrupt(saved, tmp_path, swap), "never decrease")


def test_offsets_not_ending_at_the_targets_are_refused(saved, tmp_path):
    def drop_last(arrays):
        arrays["targets"] = arrays["targets"][:-1]

    _refused(_corrupt(saved, tmp_path, drop_last), "end at")


def test_a_row_longer_than_max_degree_is_refused(saved, tmp_path):
    def narrow(document):
        document["max_degree"] = 2

    _refused(_corrupt(saved, tmp_path, meta=narrow), "longer than max_degree 2")


def test_an_out_of_range_entry_point_is_refused(saved, tmp_path):
    def plant(document):
        document["entry_points"] = [999]

    _refused(_corrupt(saved, tmp_path, meta=plant), "entry point is outside 0..199")


def test_a_non_positive_vertex_count_is_refused(saved, tmp_path):
    def empty(arrays):
        arrays["offsets"] = arrays["offsets"][:0]

    def plant(document):
        document["n_vertices"] = -1

    _refused(_corrupt(saved, tmp_path, empty, plant), "n_vertices must be a positive integer")
