"""Every graph family at the benchmark's scale, pinned to the byte.

``mqa_bench``'s ``dialogue_hnsw`` sets up MUST over scenes/2000 (corpus seed
7) with learned weights and builds HNSW on the encoded corpus.  Here the
same set-up runs once; its HNSW graph is digested as built, and NSG, Vamana,
nav-must and Starling are built on the very matrix and kernel it used.  A
digest covers every layer's rows in stored order (node order, then each
row's neighbour order), the entry points and the max level, and for Starling
its block layout too.

The digests were taken at ``18b594a``, HNSW's retaken when layer 0 moved to
selecting ``m`` neighbours per insert with ``2m`` as the cap only
(Algorithm 1), and all five when set-up's keyed draws (the corpus and the
learned weights under the graphs) moved to ``repro.utils.rng.words``.  A change that is meant to leave the
graphs alone — a faster scan, a leaner kernel entry — must pass unedited; a
change that moves a graph on purpose updates the digest in its own diff.
(CI runs this file with ``-p no:randomly`` and ``PYTHONHASHSEED=0``.)
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import MQAConfig, MQASystem
from repro.data import DatasetSpec
from repro.index import HnswIndex, StarlingIndex, build_index

# name -> digest (retaken with the keyed generator's corpus)
PINNED = {
    "hnsw": "e4f1cf715c59b3680e646cfd1d043c6ab75c7fe6963e87bdb678dc2d70767e8f",
    "nsg": "6d10336b619f203a94190bbb39e0f4ab49a182e0319cadb2b1daaec1f0042b87",
    "vamana": "fa17dc31ffc2d0a23db70ae0d73693d325ca085f9896f2193a57c868f256f035",
    "nav-must": "c2e82724ff9834441f594132882126e3f7becc847e0f602b78a068879e79f013",
    "starling": "64bb724d948f2249d10cbaa9f74b18d8ee301351dfd4923e8b14753a7ed11402",
}


def graph_digest(index) -> str:
    """sha256 over every layer's ``(node, row)`` pairs in stored order, the
    entry points, the max level (0 for one-layer graphs) and, for Starling,
    the block each vertex is laid out in."""
    if isinstance(index, HnswIndex):
        layers = [list(layer.items()) for layer in index._layers]
        payload = [layers, [index._entry], index._max_level]
    else:
        graph = index.graph
        layers = [[(v, graph.neighbors(v)) for v in range(graph.n_vertices)]]
        payload = [layers, list(graph.entry_points), 0]
    if isinstance(index, StarlingIndex):
        payload.append([index.device.block_of(v) for v in range(index.size)])
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


@pytest.fixture(scope="module")
def benchmark_hnsw() -> HnswIndex:
    """The HNSW index ``dialogue_hnsw`` builds, from its own set-up."""
    system = MQASystem.from_config(
        MQAConfig(dataset=DatasetSpec("scenes", size=2000, seed=7))
    )
    index = system.coordinator.execution.framework._index
    assert isinstance(index, HnswIndex) and index.size == 2000
    return index


@pytest.mark.parametrize("name", sorted(PINNED))
def test_graph_equals_the_pinned_digest(benchmark_hnsw, name):
    if name == "hnsw":
        index = benchmark_hnsw
    else:
        index = build_index(name, {})
        index.build(benchmark_hnsw.vectors, benchmark_hnsw.kernel)
    assert graph_digest(index) == PINNED[name]
