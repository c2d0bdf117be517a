"""Assembling the five construction stages into a DAG and running it.

This is the integration point with the CGraph stand-in: the five stages of
:mod:`repro.index.stages` become DAG nodes with explicit dependencies, and
:func:`build_navigation_graph` executes them through
:class:`repro.pipeline.DagPipeline`, returning both the finished graph and
the per-stage reports the status panel displays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.distance.kernel import DistanceKernel
from repro.errors import GraphConstructionError, SearchError
from repro.index.base import SearchResult, VectorIndex
from repro.index.graph import NavigationGraph
from repro.index.search import greedy_search, greedy_search_batch
from repro.index.stages import StageFn, robust_prune
from repro.observability import trace_span
from repro.pipeline import DagPipeline, NodeReport


@dataclass
class GraphPipelineSpec:
    """A navigation-graph algorithm expressed as five pluggable stages.

    Attributes:
        name: Algorithm identifier.
        init: Stage producing the initial :class:`NavigationGraph`.
        candidates: Stage producing per-vertex candidate lists.
        selection: Stage wiring selected edges into the graph.
        connectivity: Stage repairing reachability.
        entry: Stage choosing entry points.
    """

    name: str
    init: StageFn
    candidates: StageFn
    selection: StageFn
    connectivity: StageFn
    entry: StageFn

    def to_pipeline(self) -> DagPipeline:
        """Materialise the spec as a DAG with stage dependencies."""
        pipeline = DagPipeline(name=f"graph-build:{self.name}")

        def run_init(context: Dict[str, Any]) -> NavigationGraph:
            with trace_span("build-init", algorithm=self.name) as span:
                graph = self.init(context)
                span.set(vertices=graph.n_vertices)
            context["graph"] = graph
            return graph

        def run_candidates(context: Dict[str, Any]) -> List[List[int]]:
            with trace_span("build-candidates", algorithm=self.name) as span:
                candidate_lists = self.candidates(context)
                span.set(
                    vertices=len(candidate_lists),
                    candidate_edges=sum(len(lst) for lst in candidate_lists),
                    **context.pop("stage_stats", {}),
                )
            context["candidates"] = candidate_lists
            return candidate_lists

        def run_selection(context: Dict[str, Any]) -> NavigationGraph:
            with trace_span("build-selection", algorithm=self.name) as span:
                graph = self.selection(context)
                span.set(
                    vertices=graph.n_vertices,
                    avg_degree=round(graph.average_degree, 2),
                    **context.pop("stage_stats", {}),
                )
            context["graph"] = graph
            return graph

        def run_connectivity(context: Dict[str, Any]) -> NavigationGraph:
            with trace_span("build-connectivity", algorithm=self.name) as span:
                graph = self.connectivity(context)
                span.set(vertices=graph.n_vertices)
            context["graph"] = graph
            return graph

        def run_entry(context: Dict[str, Any]) -> List[int]:
            with trace_span("build-entry", algorithm=self.name) as span:
                entry_points = self.entry(context)
                span.set(entry_points=len(entry_points))
            return entry_points

        pipeline.add_node("init", run_init)
        pipeline.add_node("candidates", run_candidates, depends_on=["init"])
        pipeline.add_node("selection", run_selection, depends_on=["candidates"])
        pipeline.add_node("connectivity", run_connectivity, depends_on=["selection"])
        pipeline.add_node("entry", run_entry, depends_on=["connectivity"])
        return pipeline


def build_navigation_graph(
    spec: GraphPipelineSpec,
    vectors: np.ndarray,
    kernel: DistanceKernel,
) -> Tuple[NavigationGraph, List[NodeReport]]:
    """Run ``spec`` over ``vectors`` and return (graph, stage reports)."""
    vectors = VectorIndex._corpus_matrix(vectors, kernel)
    pipeline = spec.to_pipeline()
    context, reports = pipeline.run({"vectors": vectors, "kernel": kernel})
    graph = context["graph"]
    if not isinstance(graph, NavigationGraph):
        raise GraphConstructionError(
            f"pipeline {spec.name!r} did not produce a NavigationGraph"
        )
    return graph, reports


class PipelineGraphIndex(VectorIndex):
    """A vector index whose structure comes from a five-stage pipeline.

    NSG, Vamana, and the unified multi-modal navigation graph are all
    instances of this class with different specs.
    """

    #: What ``add`` inserts with.  Vamana and nav-must put their params'
    #: values here at construction; NSG and custom specs carry none and
    #: keep these.  ``save_index`` stores them, ``load_index`` puts them back.
    insertion = {"alpha": 1.2, "candidate_pool": 32, "build_budget": 48}

    def __init__(self, spec: GraphPipelineSpec) -> None:
        super().__init__()
        self.spec = spec
        self.name = spec.name
        self.graph: "NavigationGraph | None" = None
        self.stage_reports: List[NodeReport] = []

    def build(self, vectors: np.ndarray, kernel: DistanceKernel) -> None:
        start = time.perf_counter()
        vectors = self._corpus_matrix(vectors, kernel)
        self.graph, self.stage_reports = build_navigation_graph(self.spec, vectors, kernel)
        self._vectors = vectors
        self._kernel = kernel
        self.build_seconds = time.perf_counter() - start

    def add(self, vector: np.ndarray) -> int:
        """Insert one vector: append the row, then link it.  Works for any
        pipeline-built graph."""
        self._require_built()
        if self.graph is None:
            raise SearchError(f"index {self.name!r} has no graph")
        vertex = self._append_row(vector)
        self._link_row(vertex)
        return vertex

    def _link_row(self, vertex: int) -> None:
        """Link the newest stored row into the graph by search-and-prune
        (Vamana-style).

        One vector has no corpus to rank exactly, so its candidates come
        from a beam search over the live graph — width ``build_budget``,
        pool ``candidate_pool`` — pruned with the index's own ``alpha``
        (:attr:`insertion`, fixed at construction and saved with the
        index); reverse edges are added with re-pruning when a neighbour
        overflows.
        """
        alpha = self.insertion["alpha"]
        candidate_pool = self.insertion["candidate_pool"]
        vector = self.vectors[vertex]
        max_degree = self.graph.max_degree
        outcome = greedy_search(
            self.graph,
            self.vectors,
            self.kernel,
            vector,
            k=min(candidate_pool, vertex),
            budget=max(self.insertion["build_budget"], candidate_pool),
        )
        self.graph.add_vertex()
        neighbors = robust_prune(
            vector, outcome.ids, self.vectors, self.kernel, max_degree, alpha
        )
        self.graph.set_neighbors(vertex, neighbors)
        for neighbor in neighbors:
            row = self.graph.neighbors(neighbor)
            if vertex in row:
                continue
            if len(row) < max_degree:
                row.append(vertex)
            else:
                pruned = robust_prune(
                    self.vectors[neighbor], row + [vertex], self.vectors,
                    self.kernel, max_degree, alpha,
                )
                self.graph.set_neighbors(neighbor, pruned)

    def search_batch(
        self, queries, k: int, budget: int = 64, *, kernel=None, admit=None,
        use_pruning: bool = False,
    ) -> List[SearchResult]:
        """Search the graph for every query row, in lockstep, under the
        call's kernel: the graph is pure navigation structure."""
        self._require_built()
        if self.graph is None:
            raise SearchError(f"index {self.name!r} has no graph")
        return greedy_search_batch(
            self.graph,
            self.vectors,
            self._search_kernel(kernel),
            queries,
            k=k,
            budget=budget,
            use_pruning=use_pruning,
            admit=admit,
        )

    def describe(self) -> str:
        base = super().describe()
        if self.graph is not None:
            base += (
                f", avg degree {self.graph.average_degree:.1f}, "
                f"{len(self.graph.entry_points)} entry point(s)"
            )
        return base
