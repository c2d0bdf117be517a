"""A corrupt saved graph is refused whole.

``load_index`` rebuilds rows with ``set_neighbors``, which drops an
out-of-range id silently, and a vector matrix shorter than the graph fails
only at the first search.  So the saved arrays are checked before anything
is built: each corruption below, written into an otherwise intact save of a
200-row Vamana, must raise :class:`IndexError_` naming the directory.

A saved HNSW also carries its node levels and upper layers in the JSON.  A
bad upper-layer target, a short or out-of-range level list, or a target
outside its layer used to load and serve; a dropped layer loaded and then
raised a builtin ``IndexError`` at the first search.  The restored index
must pass :meth:`HnswIndex.check_invariants` before ``load_index`` returns.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.distance import SingleVectorKernel
from repro.errors import IndexError_
from repro.index import (
    HnswIndex,
    HnswParams,
    VamanaIndex,
    VamanaParams,
    load_index,
    save_index,
)


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


# ----------------------------------------------------------------------
# HNSW's node levels and upper layers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def saved_hnsw(unit_vectors, tmp_path_factory):
    index = HnswIndex(HnswParams(m=6, ef_construction=32))
    index.build(unit_vectors[:300], SingleVectorKernel(32))
    assert index._max_level >= 2
    return save_index(index, tmp_path_factory.mktemp("intact-hnsw"))


def _hnsw(edit):
    """A meta edit applied to the ``hnsw`` block."""
    return lambda document: edit(document["hnsw"])


def _first_row(layer):
    return layer[min(layer, key=int)]


def test_the_intact_hnsw_save_loads(saved_hnsw, unit_vectors, tmp_path):
    loaded = load_index(_corrupt(saved_hnsw, tmp_path))
    assert isinstance(loaded, HnswIndex)
    loaded.check_invariants()
    assert loaded.search(unit_vectors[0], k=3).ids[0] == 0


def test_an_out_of_range_upper_target_is_refused(saved_hnsw, tmp_path):
    def plant(doc):
        _first_row(doc["upper_layers"][0])[0] = 10**6

    _refused(_corrupt(saved_hnsw, tmp_path, meta=_hnsw(plant)), "dangling id 1000000")


def test_short_node_levels_are_refused(saved_hnsw, tmp_path):
    def cut(doc):
        doc["node_levels"] = doc["node_levels"][:50]

    _refused(_corrupt(saved_hnsw, tmp_path, meta=_hnsw(cut)), "50 node levels for 300 vectors")


@pytest.mark.parametrize("level", [99, -2])
def test_a_level_outside_the_hierarchy_is_refused(saved_hnsw, tmp_path, level):
    def plant(doc):
        doc["node_levels"][doc["node_levels"].index(0)] = level

    _refused(_corrupt(saved_hnsw, tmp_path, meta=_hnsw(plant)), f"level {level} outside")


def test_a_target_outside_its_layer_is_refused(saved_hnsw, tmp_path):
    def plant(doc):
        levels, row = doc["node_levels"], _first_row(doc["upper_layers"][0])
        row[0] = next(node for node, level in enumerate(levels) if level == 0)

    _refused(
        _corrupt(saved_hnsw, tmp_path, meta=_hnsw(plant)),
        "targets a node absent from the layer",
    )


def test_a_dropped_upper_layer_is_refused(saved_hnsw, tmp_path):
    def drop(doc):
        doc["upper_layers"].pop()

    _refused(_corrupt(saved_hnsw, tmp_path, meta=_hnsw(drop)), "layers but max level")


def test_an_upper_member_outside_the_levels_is_refused(saved_hnsw, tmp_path):
    def plant(doc):
        top = doc["upper_layers"][-1]
        top[str(doc["node_levels"].index(0))] = []

    _refused(_corrupt(saved_hnsw, tmp_path, meta=_hnsw(plant)), "present on layer")


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda doc: doc.update(node_levels="0123"), "node_levels must be a list of integers"),
        (lambda doc: doc.update(node_levels=[True] * 300), "node_levels must be a list"),
        (lambda doc: doc.update(max_level=2.0), "max_level must be an integer"),
        (lambda doc: doc.update(upper_layers={"1": []}), "upper_layers must be a list"),
        (lambda doc: doc["upper_layers"][0].update(x=[1]), "upper_layers must be a list"),
        (lambda doc: doc["upper_layers"][0].update({"1": "2"}), "upper_layers must be a list"),
        (lambda doc: doc.pop("m"), "'m'"),
        (lambda doc: doc.update(m=0), "m must be"),
    ],
    ids=["levels-string", "levels-bool", "max-level-float", "layers-object",
         "member-not-an-id", "row-not-a-list", "m-missing", "m-zero"],
)
def test_a_malformed_hnsw_block_is_refused(saved_hnsw, tmp_path, edit, match):
    _refused(_corrupt(saved_hnsw, tmp_path, meta=_hnsw(edit)), match)


def test_a_non_object_hnsw_block_is_refused(saved_hnsw, tmp_path):
    def plant(document):
        document["hnsw"] = 5

    _refused(_corrupt(saved_hnsw, tmp_path, meta=plant), "hnsw must be an object")
