"""Saving and loading built navigation-graph indexes.

Graph construction dominates setup time, so a built index can be frozen to
disk and reloaded without rebuilding: the corpus matrix, the adjacency
structure, the entry points, the values ``add`` inserts with, and the
kernel's reconstruction recipe are stored; loading yields a
:class:`FrozenGraphIndex` that searches (and even grows) exactly like the
original.

Everything is written once: ``index.npz`` holds the vectors and the graph
(HNSW's layer 0) as CSR arrays, ``index.json`` the scalars, the kernel, and
HNSW's node levels and sparse upper layers — plus a ``format`` number, so a
directory in another shape is refused whole, never half-loaded.

Any index exposing a graph can be saved: pipeline-built indexes (NSG,
Vamana, nav-must) directly, HNSW through its base layer, and Starling
through its inner graph — including tiered Starling, whose full-precision
vectors are read back out of the memory-mapped spill tier at save time (the
frozen copy is always exact, never the quantized codes).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.data.modality import Modality
from repro.distance import (
    DistanceKernel,
    Metric,
    MultiVectorSchema,
    SingleVectorKernel,
    WeightedMultiVectorKernel,
)
from repro.errors import IndexError_
from repro.index.base import VectorIndex
from repro.index.graph import NavigationGraph, SparseLayer
from repro.index.hnsw import HnswIndex, HnswParams
from repro.index.pipeline_builder import PipelineGraphIndex

_META_FILE = "index.json"
_ARRAYS_FILE = "index.npz"
#: 2: layer 0 only as CSR arrays, insertion values stored (1 was unnumbered).
_FORMAT = 2

SavableIndex = Union[PipelineGraphIndex, HnswIndex, "FrozenGraphIndex"]


class FrozenGraphIndex(VectorIndex):
    """A searchable (and insertable) graph index restored from disk."""

    name = "frozen"

    def __init__(self, graph: NavigationGraph, vectors: np.ndarray, kernel: DistanceKernel) -> None:
        super().__init__()
        self.graph = graph
        self._vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        self._kernel = kernel

    def build(self, vectors: np.ndarray, kernel: DistanceKernel) -> None:
        raise IndexError_(
            "frozen indexes are restored, not built; use load_index()"
        )

    # Insertion and search are the pipeline index's: same graph, same
    # search-and-prune logic (with the saved index's own insertion values,
    # which load_index puts back), same search options.
    insertion = PipelineGraphIndex.insertion
    add = PipelineGraphIndex.add
    _link_row = PipelineGraphIndex._link_row
    search_batch = PipelineGraphIndex.search_batch


def _graph_of(index: SavableIndex) -> NavigationGraph:
    if isinstance(index, HnswIndex):
        return index.base_graph()
    graph = index.graph
    if graph is None:
        raise IndexError_("index has no graph; build it before saving")
    return graph


def _kernel_doc(kernel: DistanceKernel) -> dict:
    if isinstance(kernel, WeightedMultiVectorKernel):
        return {
            "kind": "multivector",
            "dims": {
                m.value: kernel.schema.dim_of(m) for m in kernel.schema.modalities
            },
            "weights": [float(w) for w in kernel.weights],
            "prune": kernel.prune,
        }
    if isinstance(kernel, SingleVectorKernel):
        return {
            "kind": "single",
            "dim": kernel.dim,
            "metric": kernel.metric.value,
            "chunk_size": kernel.chunk_size,
        }
    raise IndexError_(
        f"cannot serialise kernel of type {type(kernel).__name__}"
    )


def _kernel_from_doc(doc: dict) -> DistanceKernel:
    if doc["kind"] == "multivector":
        schema = MultiVectorSchema(
            {Modality.parse(name): dim for name, dim in doc["dims"].items()}
        )
        return WeightedMultiVectorKernel(schema, doc["weights"], prune=doc["prune"])
    return SingleVectorKernel(
        doc["dim"], metric=Metric.parse(doc["metric"]), chunk_size=doc["chunk_size"]
    )


def save_index(index: SavableIndex, directory: "str | Path") -> Path:
    """Serialise a built index under ``directory`` (created if needed).

    HNSW indexes keep their full layer hierarchy (loading restores a true
    :class:`HnswIndex`); other graph indexes store their single graph and
    restore as :class:`FrozenGraphIndex`.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    graph = _graph_of(index)
    offsets, targets = graph.to_arrays()
    meta = {
        "format": _FORMAT,
        "source": index.name,
        "n_vertices": graph.n_vertices,
        "max_degree": graph.max_degree,
        "entry_points": list(graph.entry_points),
        "kernel": _kernel_doc(index.kernel),
    }
    if isinstance(index, HnswIndex):
        meta["hnsw"] = {
            "m": index.params.m,
            "ef_construction": index.params.ef_construction,
            "seed": index.params.seed,
            "max_level": index._max_level,
            "node_levels": list(index._node_level),
            "upper_layers": [
                {str(node): neighbors for node, neighbors in layer.items()}
                for layer in index._layers[1:]
            ],
        }
    else:
        meta["insertion"] = index.insertion
    (directory / _META_FILE).write_text(json.dumps(meta, indent=2))
    np.savez_compressed(
        directory / _ARRAYS_FILE,
        vectors=index.vectors,
        offsets=offsets,
        targets=targets,
    )
    return directory


def load_index(directory: "str | Path") -> "FrozenGraphIndex | HnswIndex":
    """Restore an index saved by :func:`save_index`."""
    directory = Path(directory)
    meta_path = directory / _META_FILE
    if not meta_path.exists():
        raise IndexError_(f"no saved index at {directory} (missing {_META_FILE})")
    meta = json.loads(meta_path.read_text())
    if meta.get("format") != _FORMAT:
        raise IndexError_(
            f"saved index at {directory} has format {meta.get('format')!r}, "
            f"this version reads format {_FORMAT}; rebuild and save it again"
        )
    with np.load(directory / _ARRAYS_FILE) as arrays:
        vectors = arrays["vectors"]
        offsets = arrays["offsets"].tolist()
        targets = arrays["targets"].tolist()

    graph = NavigationGraph(meta["n_vertices"], max_degree=meta["max_degree"])
    for vertex in range(meta["n_vertices"]):
        graph.set_neighbors(vertex, targets[offsets[vertex] : offsets[vertex + 1]])
    graph.entry_points = [int(e) for e in meta["entry_points"]]
    kernel = _kernel_from_doc(meta["kernel"])

    if "hnsw" in meta:
        doc = meta["hnsw"]
        restored = HnswIndex(
            HnswParams(
                m=doc["m"], ef_construction=doc["ef_construction"], seed=doc["seed"]
            )
        )
        restored._vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        restored._kernel = kernel
        restored._max_level = int(doc["max_level"])
        restored._node_level = [int(level) for level in doc["node_levels"]]
        restored._layers = [graph] + [
            SparseLayer((int(node), row) for node, row in layer.items())
            for layer in doc["upper_layers"]
        ]
        return restored

    index = FrozenGraphIndex(graph, vectors, kernel)
    index.name = f"frozen({meta['source']})"
    index.insertion = meta["insertion"]
    return index
