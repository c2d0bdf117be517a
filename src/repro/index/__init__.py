"""Navigation-graph index family.

Implements the paper's index-construction component: a flat exact index, the
classic navigation graphs (HNSW, NSG, Vamana/DiskANN), a Starling-style
disk-resident layout with simulated block I/O, and the general five-stage
construction pipeline that lets "any current navigation graph be decomposed
and smoothly integrated" (run on the :mod:`repro.pipeline` DAG engine).

Every index searches through a :class:`repro.distance.DistanceKernel`, so
the same graph code serves single-vector searches and MUST's weighted
multi-vector searches with incremental pruning.
"""

from repro.index.base import SearchResult, SearchStats, VectorIndex
from repro.index.diagnostics import GraphReport, analyze_graph
from repro.index.flat import FlatIndex
from repro.index.graph import NavigationGraph
from repro.index.ivf import IvfIndex, IvfParams
from repro.index.hnsw import HnswIndex, HnswParams
from repro.index.must_graph import MustGraphIndex, MustGraphParams
from repro.index.nsg import NsgIndex, NsgParams
from repro.index.pipeline_builder import (
    GraphPipelineSpec,
    PipelineGraphIndex,
    build_navigation_graph,
)
from repro.index.quantization import QuantizationReport, ScalarQuantizer
from repro.index.search import greedy_search
from repro.index.starling import BlockDevice, StarlingIndex, StarlingParams
from repro.index.tiered import (
    QuantizedCodes,
    TieredParams,
    TieredStore,
    tiered_snapshot,
)
from repro.index.vamana import VamanaIndex, VamanaParams
from repro.utils import Registry

#: The configuration panel's "index" options; a custom graph registers the
#: same way ("or initiate custom graphs via the backend API").  A factory
#: takes the index's declared parameters and returns an unbuilt index.
INDEXES = Registry("index")
register_index = INDEXES.register
available_indexes = INDEXES.names
build_index = INDEXES.build

register_index("flat", lambda params: FlatIndex())
register_index("hnsw", HnswIndex, HnswParams)
register_index("ivf", IvfIndex, IvfParams)
register_index("nsg", NsgIndex, NsgParams)
register_index("vamana", VamanaIndex, VamanaParams)
register_index("diskann", VamanaIndex, VamanaParams)
register_index("starling", StarlingIndex, StarlingParams)
register_index("nav-must", MustGraphIndex, MustGraphParams)

__all__ = [
    "BlockDevice",
    "FlatIndex",
    "FrozenGraphIndex",
    "GraphPipelineSpec",
    "GraphReport",
    "HnswIndex",
    "HnswParams",
    "INDEXES",
    "IvfIndex",
    "IvfParams",
    "MustGraphIndex",
    "MustGraphParams",
    "NavigationGraph",
    "NsgIndex",
    "NsgParams",
    "PipelineGraphIndex",
    "QuantizationReport",
    "QuantizedCodes",
    "ScalarQuantizer",
    "SearchResult",
    "SearchStats",
    "StarlingIndex",
    "StarlingParams",
    "TieredParams",
    "TieredStore",
    "VamanaIndex",
    "VamanaParams",
    "VectorIndex",
    "analyze_graph",
    "available_indexes",
    "build_index",
    "build_navigation_graph",
    "greedy_search",
    "load_index",
    "register_index",
    "save_index",
    "tiered_snapshot",
]


def __getattr__(name: str):
    """The saved-index reader and writer, imported on first use: a process that
    never saves or loads an index does not hold them (≈ 55 KiB resident)."""
    if name in ("FrozenGraphIndex", "load_index", "save_index"):
        from repro.index import persistence

        return getattr(persistence, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
