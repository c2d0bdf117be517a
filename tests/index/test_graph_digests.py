"""Every graph family at the benchmark's scale, pinned to the byte.

``mqa_bench``'s ``dialogue_hnsw`` sets up MUST over scenes/2000 (corpus seed
7) with learned weights and builds HNSW on the encoded corpus.  Here the
same set-up runs once; its HNSW graph is digested as built, and NSG, Vamana,
nav-must and Starling are built on the very matrix and kernel it used.  A
digest covers every layer's rows in stored order (node order, then each
row's neighbour order), the entry points and the max level, and for Starling
its block layout too.

The digests were taken at ``18b594a``.  A change that is meant to leave the
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

# name -> digest at 18b594a
PINNED = {
    "hnsw": "249b8798af7d57c0a7a61bbe223ea2c0167365d1f2dbb23cd7b535a762ba092d",
    "nsg": "64923409fae1264557ccf9e265ef7680241bc83648583a6cdc37c21d2da6d0ee",
    "vamana": "41de7f12b44713adf8c77e91f9c0505a16a4d74c4e2a4f59c8d29f3e7d145ec6",
    "nav-must": "e9e5dfad6abfebe68a1d95985ba3ff581f35acad9ac122b025bf4c67fe4eef04",
    "starling": "96655cbef7efec697f856d1dc510688f73bbeeaf03d5ca907e9f5d886859a370",
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
