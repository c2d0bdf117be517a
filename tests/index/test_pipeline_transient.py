"""A pipeline graph's build transient grows slower than the graph it returns.

Selection holds its tables as ``int32`` arrays and drops each once its phase
has used it: the candidates leave the pipeline context at selection, the
forward selections are one ``(n, max_degree)`` array, and the over-capacity
reverse pools are ragged, so a hub's width costs only its own row.  Traced
with :mod:`tracemalloc`, the peak of one ``build`` beyond its embedding and
the graph it leaves behind is measured at 2 000 and 8 000 rows under the
benchmark's kernel shape (MUST over 32 + 32 dims, unit rows, default
parameters).  When the selections were per-row lists and the reverse pools
were padded to the widest hub, 6 000 more rows added 15.8 (Vamana), 17.2
(nav-must), 5.5 (NSG) and 15.8 MB (Starling), against 4.2 MB of graph.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.distance import MultiVectorSchema, SingleVectorKernel, WeightedMultiVectorKernel
from repro.index import build_index, build_navigation_graph
from repro.index.vamana import VamanaParams, vamana_spec


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
    """6 000 more rows add at most half as much transient as graph: now
    about 1.1 MB (1.7 for NSG, which prunes its candidate array in place)
    against 4.2 MB."""
    small, small_graph = _build_peak(build_index(name, {}).build, _unit_rows(2000), _must_kernel())
    large, large_graph = _build_peak(build_index(name, {}).build, _unit_rows(8000), _must_kernel())
    assert large - small <= (large_graph - small_graph) // 2, (small, large, small_graph, large_graph)


def test_hub_pools_cost_only_their_own_rows():
    """An unnormalised 64-d Gaussian corpus has hubs: at 8 000 rows under a
    single-vector kernel, 6 352 Vamana targets overflow and the widest
    pool holds 326 ids.  Padded to that width the reverse pools alone were
    16.6 MB (8.3 MB as ``int32``) and the peak beyond the output 41 MB;
    ragged, the whole transient is under 5 MB.  The build
    stops after selection, where the pools are: this corpus leaves 814
    vertices unreachable, whose repair walks the graph once each (48 s)
    and allocates nothing that lasts."""
    spec = vamana_spec(VamanaParams())
    spec.connectivity = lambda context: context["graph"]
    corpus = np.random.default_rng(8).normal(size=(8000, 64))
    beyond, _ = _build_peak(
        lambda corpus, kernel: build_navigation_graph(spec, corpus, kernel),
        corpus, SingleVectorKernel(64),
    )
    assert beyond <= 6 * 2**20, beyond
