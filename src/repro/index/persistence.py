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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.data.modality import Modality
from repro.distance import (
    DistanceKernel,
    Metric,
    MultiVectorSchema,
    SingleVectorKernel,
    WeightedMultiVectorKernel,
)
from repro.errors import IndexError_, MQAError
from repro.index.base import VectorIndex
from repro.index.graph import NavigationGraph, SparseLayer
from repro.index.hnsw import HnswIndex, HnswParams
from repro.index.pipeline_builder import PipelineGraphIndex
from repro.utils import check_fields, param, read_fields

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
        dims = {m.value: kernel.schema.dim_of(m) for m in kernel.schema.modalities}
        weights = [float(w) for w in kernel.weights]
        return {"kind": "multivector", "dims": dims, "weights": weights, "prune": kernel.prune}
    if isinstance(kernel, SingleVectorKernel):
        return {
            "kind": "single", "dim": kernel.dim, "metric": kernel.metric.value,
            "chunk_size": kernel.chunk_size,
        }
    raise IndexError_(f"cannot serialise kernel of type {type(kernel).__name__}")


@dataclass(kw_only=True, eq=False, repr=False)
class _Header:
    """``index.json``, read by :func:`read_fields`: the scalars, the
    kernel's recipe, and HNSW's hierarchy or, for any other graph, the
    values ``add`` inserts with."""

    format: int = param(choices=(_FORMAT,))
    source: str
    n_vertices: int
    max_degree: int
    entry_points: List[int]
    kernel: Dict[str, Any]
    #: Checked by :func:`_restore_hnsw`.
    hnsw: Any = None
    insertion: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        check_fields(self)
        if self.hnsw is None and self.insertion is None:
            raise ValueError("missing field 'insertion'")


@dataclass(kw_only=True, eq=False, repr=False)
class _KernelDoc:
    """A saved kernel's recipe; ``kind`` names the class that reads the
    rest."""

    kind: str = param(choices=("multivector", "single"))

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(kw_only=True, eq=False, repr=False)
class _MultiVectorDoc(_KernelDoc):
    dims: Dict[Modality, int]
    weights: List[float]
    prune: bool

    def kernel(self) -> DistanceKernel:
        schema = MultiVectorSchema({Modality(name): dim for name, dim in self.dims.items()})
        return WeightedMultiVectorKernel(schema, self.weights, prune=self.prune)


@dataclass(kw_only=True, eq=False, repr=False)
class _SingleVectorDoc(_KernelDoc):
    dim: int
    metric: str
    chunk_size: int

    def kernel(self) -> DistanceKernel:
        return SingleVectorKernel(
            self.dim, metric=Metric.parse(self.metric), chunk_size=self.chunk_size
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


def _check_graph_arrays(
    directory: Path, header: _Header, vectors: np.ndarray, offsets: np.ndarray, targets: np.ndarray
) -> None:
    """Refuse a saved graph whose arrays do not describe ``n_vertices`` rows
    of at most ``max_degree`` in-range targets, before anything is built:
    ``set_arrays`` takes rows as given, and a short vector matrix fails only
    at the first search."""
    n = header.n_vertices
    problem = None
    if n < 1:
        problem = f"n_vertices must be a positive integer, got {n!r}"
    elif offsets.shape != (n + 1,) or offsets[0] != 0:
        problem = f"offsets must be {n + 1} entries from 0, got shape {offsets.shape}"
    elif (np.diff(offsets) < 0).any() or offsets[-1] != len(targets):
        problem = f"offsets must never decrease and end at {len(targets)} targets"
    elif np.diff(offsets).max(initial=0) > header.max_degree:
        problem = f"a row is longer than max_degree {header.max_degree}"
    elif len(targets) and not 0 <= targets.min() <= targets.max() < n:
        problem = f"a target is outside 0..{n - 1}"
    elif len(vectors) != n:
        problem = f"{len(vectors)} vector rows for {n} vertices"
    elif not all(0 <= e < n for e in header.entry_points):
        problem = f"an entry point is outside 0..{n - 1}"
    if problem is not None:
        raise _corrupt(directory, problem)


def _corrupt(directory: Path, problem: str) -> IndexError_:
    return IndexError_(f"saved index at {directory} is corrupt: {problem}")


def _is_int(value: object) -> bool:
    return type(value) is int  # JSON's true / false are not levels or ids


def _restore_hnsw(
    directory: Path, doc: dict, graph: NavigationGraph, vectors: np.ndarray,
    kernel: DistanceKernel,
) -> HnswIndex:
    """The saved HNSW hierarchy over ``graph``, refused whole unless the
    JSON has the saved shape and the restored index passes its own
    :meth:`HnswIndex.check_invariants` (one level per node, one layer per
    level, level-consistent membership, in-range member targets within the
    degree caps, reverse edges or saturated rows)."""
    if not isinstance(doc, dict):
        raise _corrupt(directory, f"hnsw must be an object, got {doc!r}")
    levels, layers = doc.get("node_levels"), doc.get("upper_layers")
    if not _is_int(doc.get("max_level")):
        raise _corrupt(directory, f"max_level must be an integer, got {doc.get('max_level')!r}")
    if not isinstance(levels, list) or not all(map(_is_int, levels)):
        raise _corrupt(directory, "node_levels must be a list of integers")
    if not isinstance(layers, list) or not all(
        isinstance(layer, dict)
        and all(
            node.isdigit() and isinstance(row, list) and all(map(_is_int, row))
            for node, row in layer.items()
        )
        for layer in layers
    ):
        raise _corrupt(directory, "upper_layers must be a list of {node: [ids]} objects")
    try:
        restored = HnswIndex(
            HnswParams(m=doc["m"], ef_construction=doc["ef_construction"], seed=doc["seed"])
        )
        restored._vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        restored._kernel = kernel
        restored._max_level = doc["max_level"]
        restored._node_level = levels
        restored._layers = [graph] + [
            SparseLayer((int(node), row) for node, row in layer.items())
            for layer in layers
        ]
        restored.check_invariants()
    except (KeyError, TypeError, ValueError, MQAError) as exc:
        raise _corrupt(directory, str(exc)) from exc
    # Checked: every id is a vertex, so the rows can take the graph's ints.
    restored._layers[1:] = [
        SparseLayer(zip(graph.vertex_ids(layer), map(graph.vertex_ids, layer.values())))
        for layer in restored._layers[1:]
    ]
    return restored


def load_index(directory: "str | Path") -> "FrozenGraphIndex | HnswIndex":
    """Restore an index saved by :func:`save_index`."""
    directory = Path(directory)
    meta_path = directory / _META_FILE
    if not meta_path.exists():
        raise IndexError_(f"no saved index at {directory} (missing {_META_FILE})")
    try:
        # A format other than this version's is refused here too: anything
        # saved before the format was numbered must be rebuilt and saved.
        header = read_fields(_Header, json.loads(meta_path.read_text()))
        kind = read_fields(_KernelDoc, header.kernel).kind
        recipe = {"multivector": _MultiVectorDoc, "single": _SingleVectorDoc}[kind]
        kernel = read_fields(recipe, header.kernel).kernel()
    except (ValueError, MQAError) as exc:  # a JSONDecodeError is a ValueError
        raise _corrupt(directory, str(exc)) from exc
    with np.load(directory / _ARRAYS_FILE) as arrays:
        vectors = arrays["vectors"]
        offsets = arrays["offsets"]
        targets = arrays["targets"]
    _check_graph_arrays(directory, header, vectors, offsets, targets)
    graph = NavigationGraph(header.n_vertices, max_degree=header.max_degree)
    graph.set_arrays(offsets, targets)
    graph.entry_points = list(header.entry_points)

    if header.hnsw is not None:
        return _restore_hnsw(directory, header.hnsw, graph, vectors, kernel)

    index = FrozenGraphIndex(graph, vectors, kernel)
    index.name = f"frozen({header.source})"
    index.insertion = header.insertion
    return index
