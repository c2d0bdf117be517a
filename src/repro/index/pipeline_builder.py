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
from repro.index.stages import StageFn, pad_rows, robust_prune
from repro.observability import trace_span
from repro.pipeline import DagPipeline, NodeReport


@dataclass
class GraphPipelineSpec:
    """A navigation-graph algorithm expressed as five pluggable stages.

    Attributes:
        name: Algorithm identifier.
        init: Stage producing the initial :class:`NavigationGraph`.
        candidates: Stage producing the candidates: one ``(n, k)`` id
            array, row ``v`` vertex ``v``'s, ``-1`` padding (id lists are
            padded into one).
        selection: Stage wiring selected edges into the graph.
        connectivity: Stage repairing reachability from the entry points
            (run after ``entry``).
        entry: Stage choosing entry points (run before ``connectivity``).
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

        def add(name, stage, key, fields, after=()) -> None:
            """A node running ``stage`` in its ``build-<name>`` span, which
            takes ``fields(output)`` and the stage's counters; the output is
            put in the context under ``key``."""

            def run(context: Dict[str, Any]) -> Any:
                with trace_span(f"build-{name}", algorithm=self.name) as span:
                    output = stage(context)
                    span.set(**fields(output), **context.pop("stage_stats", {}))
                if key is not None:
                    context[key] = output
                return output

            pipeline.add_node(name, run, depends_on=after)

        def graph_fields(graph: NavigationGraph) -> Dict[str, Any]:
            return {"vertices": graph.n_vertices}

        add("init", self.init, "graph", graph_fields)
        add("candidates", lambda context: pad_rows(self.candidates(context)), "candidates",
            lambda candidates: {"vertices": len(candidates),
                                "candidate_edges": int(np.count_nonzero(candidates >= 0))},
            ["init"])
        add("selection", self.selection, "graph",
            lambda graph: {**graph_fields(graph), "avg_degree": round(graph.average_degree, 2)},
            ["candidates"])
        # The entry is fixed first (NSG's order: navigating node, then
        # reachability from it), so the repair roots where searches start.
        add("entry", self.entry, None, lambda entries: {"entry_points": len(entries)},
            ["selection"])
        add("connectivity", self.connectivity, "graph", graph_fields, ["entry"])
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
            if vertex in row or self.graph.add_edge(neighbor, vertex):
                continue
            pruned = robust_prune(
                self.vectors[neighbor], row + [vertex], self.vectors,
                self.kernel, max_degree, alpha,
            )
            self.graph.set_neighbors(neighbor, pruned)

    def search_batch(
        self, queries, k: int, budget: int = 64, *, kernel=None, admit=None,
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
