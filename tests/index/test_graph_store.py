"""One graph store: every family's rows hold the graph's own int objects.

:class:`NavigationGraph` keeps one Python int per vertex, and every write
path stores those objects: selection's bulk ``set_arrays``, ``set_neighbors``
and ``add_edge`` at ``add``, HNSW's link step on every layer, and
``load_index``'s CSR rows.  An edge then costs a pointer plus its row's
share of a list header — about 13 B at 2 000 rows (15.7 for NSG, whose
rows are shorter), where a fresh int per edge cost 35.9 B.

The pipeline fixes its entry point before it repairs reachability, so the
repair roots where the search starts.  On the corpus below, repaired from
vertex 0 and handed the medoid afterwards, a default Vamana graph left 15
of its 2 000 vertices out of the search's reach.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distance import SingleVectorKernel
from repro.index import HnswIndex, build_index, load_index, save_index
from tests.index.conftest import assert_one_int_per_vertex, bytes_per_edge

PIPELINE_FAMILIES = ["vamana", "nsg", "nav-must", "starling"]


@pytest.fixture(scope="module")
def built():
    """One default-parameter build per family over an unnormalised 64-d
    Gaussian corpus of 2 000 rows, made on first use by this module's
    tests and shared by them."""
    corpus = np.random.default_rng(8).normal(size=(2000, 64))
    indexes = {}

    def get(name: str):
        if name not in indexes:
            indexes[name] = build_index(name, {})
            indexes[name].build(corpus, SingleVectorKernel(64))
        return indexes[name]

    return get


def _graph(index):
    return index.base_graph() if isinstance(index, HnswIndex) else index.graph


def _layers(index):
    """Every layer ``index`` stores rows in: HNSW's hierarchy, else its graph."""
    return index._layers if isinstance(index, HnswIndex) else [index.graph]


@pytest.mark.parametrize("name", PIPELINE_FAMILIES)
def test_every_pipeline_family_is_reachable_from_its_entry(built, name):
    graph = _graph(built(name))
    assert len(graph.reachable_from(graph.entry_points)) == graph.n_vertices


def test_hnsw_is_reachable_from_its_entry(built):
    """Vertex 172 has no in-edge on layer 0 after selection and is on no
    upper layer.  The repair attaches it with ``360 -> 172``; a one-way edge
    would break HNSW's invariant (172's row is unsaturated), so it writes
    ``172 -> 360`` too and ``check_invariants`` accepts the graph."""
    index = built("hnsw")
    graph = index.base_graph()
    assert len(graph.reachable_from(graph.entry_points)) == graph.n_vertices
    assert 172 in graph.neighbors(360) and 360 in graph.neighbors(172)
    index.check_invariants()


@pytest.mark.parametrize(
    "budget, hops, evaluations", [(64, 64, 852), (200, 200, 1492), (800, 800, 1980)]
)
def test_hnsw_search_for_the_repaired_vertex_misses_it(built, budget, hops, evaluations):
    """Pins what a search for vertex 172's own vector reads today: the beam
    starts at a base entry near 172 and never returns to 360, 172's only
    in-edge.  The ids and work counters are those of the search before the
    upper-layer descent became the beam loop at ``k = budget = 1``."""
    index = built("hnsw")
    found = index.search(index.vectors[172], k=3, budget=budget)
    assert found.ids == [613, 1111, 710]
    assert (found.stats.hops, found.stats.distance_evaluations) == (hops, evaluations)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 17(c): the repair attaches 172 from the first reached row "
    "with room (360), not from its nearest reached vertex",
)
@pytest.mark.parametrize("budget", [64, 200, 800])
def test_hnsw_finds_the_repaired_vertex_by_its_own_vector(built, budget):
    index = built("hnsw")
    assert index.search(index.vectors[172], k=3, budget=budget).ids[0] == 172


@pytest.mark.parametrize("name", [*PIPELINE_FAMILIES, "hnsw"])
def test_rows_hold_the_graphs_ints_after_build_load_and_add(built, name, tmp_path):
    index = built(name)
    assert_one_int_per_vertex(_graph(index), _layers(index))
    assert bytes_per_edge(_layers(index)) <= 16

    loaded = load_index(save_index(index, tmp_path))
    assert_one_int_per_vertex(_graph(loaded), _layers(loaded))
    assert bytes_per_edge(_layers(loaded)) <= 16

    for vector in np.random.default_rng(9).normal(size=(20, 64)):
        loaded.add(vector)
    assert_one_int_per_vertex(_graph(loaded), _layers(loaded))
