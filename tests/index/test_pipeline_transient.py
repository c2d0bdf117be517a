"""A pipeline graph's build peak stays small beside the graph it returns.

Selection holds its tables as ``int32`` arrays and drops each once its phase
has used it: the candidates leave the pipeline context at selection, the
forward selections are one ``(n, max_degree)`` array, and the over-capacity
reverse pools are ragged, so a hub's width costs only its own row.  The
graph then takes its rows in one bulk set and stores one int object per
vertex.  Traced with :mod:`tracemalloc`, the peak of one ``build``, the graph
it leaves behind included and its embedding not, is measured at 2 000 and
8 000 rows under the benchmark's kernel shape (MUST over 32 + 32 dims, unit
rows, default parameters).  When the selections were per-row lists and the
reverse pools were padded to the widest hub, 6 000 more rows added 15.8
(Vamana), 17.2 (nav-must), 5.5 (NSG) and 15.8 MB (Starling) beyond the
graph; while every edge held a fresh int, the graph alone grew 4.2 MB and
the peak 5.4 to 6.0 MB.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from repro.distance import MultiVectorSchema, SingleVectorKernel, WeightedMultiVectorKernel
from repro.index import build_index, build_navigation_graph
from repro.index.vamana import VamanaParams, vamana_spec
from tests.index.conftest import bytes_per_edge


def _must_kernel():
    return WeightedMultiVectorKernel(
        MultiVectorSchema({"text": 32, "image": 32}), {"text": 0.8, "image": 1.2}
    )


def _unit_rows(rows: int) -> np.ndarray:
    corpus = np.random.default_rng(8).normal(size=(rows, 64))
    return corpus / np.linalg.norm(corpus, axis=1, keepdims=True)


def _build_peak(build, corpus: np.ndarray, kernel) -> "tuple[int, int]":
    """``(peak beyond the output, output)`` of one traced ``build(corpus,
    kernel)``: the output is what the build leaves live (the graph), and
    the embedding the build makes of ``corpus`` is not counted as
    transient."""
    embedded = kernel.embed(corpus)
    embedding = embedded.norms.nbytes + embedded.points.nbytes * (embedded.points is not corpus)
    del embedded
    tracemalloc.start()
    try:
        output = build(corpus, kernel)  # held: its bytes are the live ones
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - live - embedding, live


@pytest.mark.parametrize("name", ["vamana", "nav-must", "nsg", "starling"])
def test_build_transient_grows_slower_than_the_graph(name):
    """6 000 more rows raise the whole peak, graph included, by 3.5 (NSG)
    to 3.9 MB: less than the graph alone grew while every edge held a
    fresh int (4.2 MB; the whole peak then grew 5.4 to 6.0 MB).  Stored
    as one int per vertex the graph grows 1.4 MB, less than the candidate
    table and exact-k-NN blocks the build holds before the graph exists,
    so the peak is set there and is no longer measured beyond the graph.
    At 8 000 rows the graph holds under 2 MB of rows (5.3 MB before)."""
    index = build_index(name, {})
    small, small_graph = _build_peak(build_index(name, {}).build, _unit_rows(2000), _must_kernel())
    large, large_graph = _build_peak(index.build, _unit_rows(8000), _must_kernel())
    assert (large + large_graph) - (small + small_graph) <= 4 * 2**20, (
        small, large, small_graph, large_graph
    )
    assert bytes_per_edge([index.graph]) * index.graph.edge_count <= 2.0e6


def test_hub_pools_cost_only_their_own_rows():
    """An unnormalised 64-d Gaussian corpus has hubs: at 8 000 rows under a
    single-vector kernel, 6 352 Vamana targets overflow and the widest
    pool holds 326 ids.  Padded to that width the reverse pools alone were
    16.6 MB (8.3 MB as ``int32``) and the peak beyond the output 41 MB;
    ragged, the whole peak, graph included, is 8.6 MB (10.2 while every
    edge held a fresh int).  The build stops after selection, where the
    pools are: this corpus leaves 1 003 vertices unreachable from the
    medoid.  The repair run after it attaches them in one linear pass
    (814 edges, a few ms; 11 s when it re-walked the graph per vertex)."""
    spec = vamana_spec(VamanaParams())
    spec.connectivity = lambda context: context["graph"]
    corpus = np.random.default_rng(8).normal(size=(8000, 64))
    built = {}

    def build(corpus, kernel):
        start = time.perf_counter()
        built["graph"], _ = build_navigation_graph(spec, corpus, kernel)
        built["seconds"] = time.perf_counter() - start

    beyond, graph_bytes = _build_peak(build, corpus, SingleVectorKernel(64))
    assert beyond + graph_bytes <= 9 * 2**20, (beyond, graph_bytes)

    graph = built["graph"]
    assert len(graph.reachable_from(graph.entry_points)) < graph.n_vertices - 500
    start = time.perf_counter()
    graph.connect_unreachable()
    repair_seconds = time.perf_counter() - start
    assert len(graph.reachable_from(graph.entry_points)) == graph.n_vertices
    assert repair_seconds <= built["seconds"], (repair_seconds, built["seconds"])
