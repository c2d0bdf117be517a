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
from repro.index.persistence import FrozenGraphIndex, load_index, save_index
from repro.index.quantization import QuantizationReport, ScalarQuantizer
from repro.index.registry import available_indexes, build_index, register_index
from repro.index.search import greedy_search
from repro.index.starling import BlockDevice, StarlingIndex, StarlingParams
from repro.index.tiered import (
    QuantizedCodes,
    TieredParams,
    TieredStore,
    tiered_snapshot,
)
from repro.index.vamana import VamanaIndex, VamanaParams

__all__ = [
    "BlockDevice",
    "FlatIndex",
    "FrozenGraphIndex",
    "GraphPipelineSpec",
    "GraphReport",
    "HnswIndex",
    "HnswParams",
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
