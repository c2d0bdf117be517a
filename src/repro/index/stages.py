"""Reusable graph-construction stages.

The paper proposes "a general pipeline for constructing fine-grained
navigation graphs ... of five flexible parts, allowing any current
navigation graph to be decomposed and smoothly integrated".  These are the
parts: initialisation, candidate acquisition, neighbour selection,
connectivity augmentation, and entry-point selection.  Each stage is a
factory returning a callable over the shared pipeline context, so stages
from different algorithms can be mixed into novel indexes (the "nav-must"
spec does exactly that).

Context keys (set by :func:`repro.index.pipeline_builder.build_navigation_graph`):

* ``vectors`` — the ``(n, d)`` corpus matrix.
* ``kernel`` — the distance kernel.
* ``graph`` — the evolving :class:`NavigationGraph` (after init).
* ``candidates`` — per-vertex candidate id lists (after acquisition).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.errors import GraphConstructionError
from repro.index.graph import NavigationGraph
from repro.index.search import greedy_search_batch
from repro.utils import derive_rng

StageFn = Callable[[Dict[str, Any]], Any]


def _corpus(context: Dict[str, Any]) -> np.ndarray:
    return context["vectors"]


def _kernel(context: Dict[str, Any]):
    return context["kernel"]


def robust_prune(
    query_vector: np.ndarray,
    pool: List[int],
    vectors: np.ndarray,
    kernel,
    max_degree: int,
    alpha: float = 1.2,
) -> List[int]:
    """Vamana's alpha-relaxed RNG selection over a candidate pool.

    Returns at most ``max_degree`` ids from ``pool``, closest first, where
    each kept candidate removes dominated candidates (those within
    ``alpha``-scaled distance of it).  Shared by the selection stage and by
    incremental insertion.
    """
    if not pool:
        return []
    distances = kernel.batch(query_vector, vectors[pool])
    order = [int(i) for i in np.argsort(distances)]
    pairwise = kernel.matrix(vectors[pool], vectors[pool])
    selected: List[int] = []
    remaining = order
    while remaining and len(selected) < max_degree:
        head = remaining[0]
        selected.append(head)
        remaining = [
            row
            for row in remaining[1:]
            if alpha * float(pairwise[head, row]) > float(distances[row])
        ]
    return [pool[row] for row in selected]


def medoid_of(vectors: np.ndarray, kernel) -> int:
    """Vertex closest to the corpus centroid under ``kernel``."""
    centroid = vectors.mean(axis=0)
    distances = kernel.batch(centroid, vectors)
    return int(np.argmin(distances))


# ----------------------------------------------------------------------
# 1. initialisation
# ----------------------------------------------------------------------
def init_empty(max_degree: int) -> StageFn:
    """Start from an edgeless graph (NSG-style: edges come from selection)."""

    def stage(context: Dict[str, Any]) -> NavigationGraph:
        n = _corpus(context).shape[0]
        return NavigationGraph(n, max_degree=max_degree)

    return stage


def init_random_regular(max_degree: int, out_degree: int, seed: int = 0) -> StageFn:
    """Start from a random ``out_degree``-regular graph (Vamana-style)."""
    if out_degree > max_degree:
        raise GraphConstructionError(
            f"out_degree {out_degree} exceeds max_degree {max_degree}"
        )

    def stage(context: Dict[str, Any]) -> NavigationGraph:
        n = _corpus(context).shape[0]
        graph = NavigationGraph(n, max_degree=max_degree)
        rng = derive_rng(seed, "init-random-regular")
        degree = min(out_degree, n - 1)
        for vertex in range(n):
            targets = rng.choice(n, size=min(degree + 1, n), replace=False)
            graph.set_neighbors(vertex, [int(t) for t in targets if t != vertex][:degree])
        return graph

    return stage


# ----------------------------------------------------------------------
# 2. candidate acquisition
# ----------------------------------------------------------------------
#: Bytes one block of candidate rows may gather at once.  Build scratch is
#: transient, but peak RSS is a high-water mark, so the block size is a
#: memory decision: the ``(rows, width, dim)`` gather, its scaled copy and
#: the pairwise stack together stay around a few of these.
_SCRATCH_BYTES = 640 * 1024

#: Columns pre-selected beyond ``k`` by the GEMM distances in
#: :func:`exact_top_k`, so their rounding never decides which ``k`` survive
#: the exact re-scoring.
_PRESELECT_MARGIN = 8


def block_rows(width: int, dim: int) -> int:
    """Rows per block whose ``(rows, width, dim)`` float64 gather fits
    :data:`_SCRATCH_BYTES`."""
    return max(1, _SCRATCH_BYTES // (8 * max(1, width) * dim))


def exact_top_k(
    kernel, vectors: np.ndarray, start: int, stop: int, k: int, earlier_only: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """The exact ``k`` nearest rows of ``vectors`` for each row of one block.

    Row ``i`` in ``[start, stop)`` draws its neighbours from every other
    row, or with ``earlier_only`` from the rows ``j < i`` (what an
    insertion-ordered build may link to).  One ``kernel.matrix`` over the
    block — the three-BLAS-call expansion — only *pre-selects*
    ``k + _PRESELECT_MARGIN`` columns per row; exactly those are re-scored
    with ``kernel.batch_paired`` and ranked by ``(distance, id)``, so the
    result carries the bit-stable distances ``kernel.batch`` returns and the
    GEMM's rounding decides neither membership nor order.

    Returns:
        ``(ids, distances)``, both ``(stop - start, min(k, columns))``, each
        row ascending.  A row with fewer than that many eligible
        neighbours is padded at the end with distance ``inf``.
    """
    block = vectors[start:stop]
    columns = vectors[:stop] if earlier_only else vectors
    n_rows, n_columns = block.shape[0], columns.shape[0]
    own = np.arange(start, stop)[:, None]
    column_ids = np.arange(n_columns)
    excluded = np.greater_equal if earlier_only else np.equal
    approximate = kernel.matrix(block, columns)
    approximate[excluded(column_ids, own)] = np.inf
    width = min(k + _PRESELECT_MARGIN, n_columns)
    if width < n_columns:
        picked = np.argpartition(approximate, width - 1, axis=1)[:, :width]
    else:
        picked = np.broadcast_to(column_ids, (n_rows, n_columns))
    distances = kernel.batch_paired(
        block, columns[picked.ravel()], np.repeat(np.arange(n_rows), width)
    ).reshape(n_rows, width)
    distances[excluded(picked, own)] = np.inf
    order = np.lexsort((picked, distances))[:, :k]
    return (
        np.take_along_axis(picked, order, axis=1),
        np.take_along_axis(distances, order, axis=1),
    )


def candidates_exact_knn(k: int) -> StageFn:
    """Exact k-nearest-neighbour candidates, block by block
    (:func:`exact_top_k`), nearest first with ties broken by id."""

    def stage(context: Dict[str, Any]) -> List[List[int]]:
        vectors = _corpus(context)
        kernel = _kernel(context)
        n, dim = vectors.shape
        neighbors_k = min(k, n - 1)
        rows = block_rows(neighbors_k, dim)
        result: List[List[int]] = []
        for start in range(0, n, rows):
            ids, _ = exact_top_k(kernel, vectors, start, min(start + rows, n), neighbors_k)
            result.extend(ids.tolist())
        return result

    return stage


#: Beams per lockstep dispatch in :func:`candidates_beam_search`; bounds
#: the live per-beam state while amortising the kernel calls.
_BEAM_CHUNK = 64


def candidates_beam_search(pool_size: int, budget: int = 96) -> StageFn:
    """Search-based candidates: beam search for each vertex on the current
    graph, collecting the visited pool (Vamana/HNSW-style acquisition).

    The graph does not change during the stage, so the per-vertex searches
    run in lockstep chunks through :func:`greedy_search_batch`, whose
    per-beam results do not depend on the chunking.

    Requires an initialised graph with edges (e.g. random-regular).
    """

    def stage(context: Dict[str, Any]) -> List[List[int]]:
        vectors = _corpus(context)
        kernel = _kernel(context)
        graph: NavigationGraph = context["graph"]
        entry = medoid_of(vectors, kernel)
        n = vectors.shape[0]
        result: List[List[int]] = []
        for start in range(0, n, _BEAM_CHUNK):
            outcomes = greedy_search_batch(
                graph,
                vectors,
                kernel,
                vectors[start : start + _BEAM_CHUNK],
                k=min(pool_size, n),
                budget=budget,
                entry_points=[entry],
            )
            for vertex, outcome in enumerate(outcomes, start):
                result.append([i for i in outcome.ids if i != vertex][:pool_size])
        return result

    return stage


# ----------------------------------------------------------------------
# 3. neighbour selection
# ----------------------------------------------------------------------
def select_mrng(max_degree: int) -> StageFn:
    """Monotonic-RNG edge selection (NSG's rule).

    A candidate is linked only if no already-selected neighbour is closer to
    it than the vertex itself, producing sparse monotonic paths.
    """

    def stage(context: Dict[str, Any]) -> NavigationGraph:
        vectors = _corpus(context)
        kernel = _kernel(context)
        graph: NavigationGraph = context["graph"]
        candidate_lists: List[List[int]] = context["candidates"]
        for vertex, pool in enumerate(candidate_lists):
            if not pool:
                graph.set_neighbors(vertex, [])
                continue
            pool_distances = kernel.batch(vectors[vertex], vectors[pool])
            order = [int(i) for i in np.argsort(pool_distances)]
            pairwise = kernel.matrix(vectors[pool], vectors[pool])
            selected_rows: List[int] = []
            for row in order:
                if len(selected_rows) >= max_degree:
                    break
                candidate_distance = float(pool_distances[row])
                keep = all(
                    pairwise[chosen, row] >= candidate_distance
                    for chosen in selected_rows
                )
                if keep:
                    selected_rows.append(row)
            graph.set_neighbors(vertex, [pool[row] for row in selected_rows])
        return graph

    return stage


def select_alpha_rng(max_degree: int, alpha: float = 1.2, add_reverse: bool = True) -> StageFn:
    """Vamana's robust prune: relaxed RNG rule with slack ``alpha``.

    ``alpha > 1`` keeps longer-range edges than the strict RNG rule, giving
    the flatter graphs DiskANN favours for few-hop disk traversals.  With
    ``add_reverse`` each selected edge is mirrored and the target re-pruned
    when over capacity.
    """
    if alpha < 1.0:
        raise GraphConstructionError(f"alpha must be >= 1.0, got {alpha}")

    def prune(vertex: int, pool: List[int], vectors, kernel) -> List[int]:
        pool = list(dict.fromkeys(p for p in pool if p != vertex))
        return robust_prune(vectors[vertex], pool, vectors, kernel, max_degree, alpha)

    def stage(context: Dict[str, Any]) -> NavigationGraph:
        vectors = _corpus(context)
        kernel = _kernel(context)
        graph: NavigationGraph = context["graph"]
        candidate_lists: List[List[int]] = context["candidates"]
        for vertex, pool in enumerate(candidate_lists):
            merged = pool + graph.neighbors(vertex)
            graph.set_neighbors(vertex, prune(vertex, merged, vectors, kernel))
            if add_reverse:
                for neighbor in graph.neighbors(vertex):
                    row = graph.neighbors(neighbor)
                    if vertex in row:
                        continue
                    if len(row) < max_degree:
                        row.append(vertex)
                    else:
                        graph.set_neighbors(
                            neighbor, prune(neighbor, row + [vertex], vectors, kernel)
                        )
        return graph

    return stage


# ----------------------------------------------------------------------
# 4. connectivity augmentation
# ----------------------------------------------------------------------
def connect_repair() -> StageFn:
    """Attach vertices unreachable from the entry points."""

    def stage(context: Dict[str, Any]) -> NavigationGraph:
        graph: NavigationGraph = context["graph"]
        graph.connect_unreachable()
        return graph

    return stage


# ----------------------------------------------------------------------
# 5. entry-point selection
# ----------------------------------------------------------------------
def entry_medoid() -> StageFn:
    """Use the corpus medoid as the single entry point (NSG, Vamana)."""

    def stage(context: Dict[str, Any]) -> List[int]:
        graph: NavigationGraph = context["graph"]
        graph.entry_points = [medoid_of(_corpus(context), _kernel(context))]
        return graph.entry_points

    return stage


def entry_random(count: int = 1, seed: int = 0) -> StageFn:
    """Use ``count`` random vertices as entry points."""
    if count < 1:
        raise GraphConstructionError(f"entry count must be >= 1, got {count}")

    def stage(context: Dict[str, Any]) -> List[int]:
        graph: NavigationGraph = context["graph"]
        rng = derive_rng(seed, "entry-random")
        n = graph.n_vertices
        graph.entry_points = [
            int(v) for v in rng.choice(n, size=min(count, n), replace=False)
        ]
        return graph.entry_points

    return stage
