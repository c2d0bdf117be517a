"""Greedy best-first search over navigation graphs.

One search routine serves every graph index and every retrieval framework:
the traversal "starts at a random or fixed vertex, explores neighbouring
vertices closer to the query point, and terminates when no closer vertex is
discovered" — implemented as classic beam search with beam width ``budget``.
:func:`greedy_search_batch` is that routine; a single query is a batch of
one (:func:`greedy_search`).

Two per-beam scoring modes are supported:

* **batch** (default): each expanded vertex's unvisited neighbours are
  scored in one vectorised kernel call — fastest in numpy.
* **pruned**: neighbours are scored one by one through ``kernel.single``
  with the current beam bound, letting multi-vector kernels terminate a
  distance computation early (the paper's incremental scanning).  Identical
  results, fewer scalar operations; experiment E5 measures the saving.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Sequence

import numpy as np

from repro.distance.kernel import DistanceKernel
from repro.errors import SearchError
from repro.index.base import SearchResult, SearchStats, _per_query_admits
from repro.index.graph import NavigationGraph
from repro.observability import trace_span

VisitHook = Callable[[int], None]
#: Batched variant: called with ``(beam_index, vertex)`` per vector access.
BatchVisitHook = Callable[[int, int], None]


def greedy_search(
    graph: NavigationGraph,
    vectors: np.ndarray,
    kernel: DistanceKernel,
    query: np.ndarray,
    k: int,
    budget: int = 64,
    entry_points: "Sequence[int] | None" = None,
    use_pruning: bool = False,
    visit_hook: "VisitHook | None" = None,
    admit: "Callable[[int], bool] | None" = None,
) -> SearchResult:
    """Approximate top-``k`` search for one query: a batch of one.

    Arguments are those of :func:`greedy_search_batch`, for a single query
    vector; ``visit_hook`` is called with the vertex id alone.
    """
    hook = None if visit_hook is None else (lambda _beam, vertex: visit_hook(vertex))
    return greedy_search_batch(
        graph,
        vectors,
        kernel,
        np.asarray(query, dtype=np.float64)[None],
        k,
        budget=budget,
        entry_points=entry_points,
        use_pruning=use_pruning,
        visit_hook=hook,
        admit=admit,
    )[0]


def score_ragged(
    kernel: DistanceKernel, queries: np.ndarray, vectors, groups: List
) -> np.ndarray:
    """Distances for every ``(query row, vertex ids)`` group, concatenated:
    the scoring step of a lockstep round.  Several walkers share one ragged
    ``kernel.batch_paired`` dispatch, a lone one is a plain ``kernel.batch``
    and pays for no gather; the two entries are bit-identical, so a walker's
    distances do not depend on who else is in the round."""
    if len(groups) == 1:
        b, ids = groups[0]
        return kernel.batch(queries[b], vectors[ids])
    flat: List[int] = []
    owners: List[int] = []
    for b, ids in groups:
        flat.extend(ids)
        owners.extend([b] * len(ids))
    return kernel.batch_paired(queries, vectors[flat], owners)


def _normalise_starts(
    graph: NavigationGraph,
    entry_points,
    n_queries: int,
) -> List[List[int]]:
    """Per-beam start lists from shared, per-beam, or default entry points."""
    eps = list(graph.entry_points if entry_points is None else entry_points)
    if not eps:
        raise SearchError("search needs at least one entry point")
    if isinstance(eps[0], (int, np.integer)):
        shared = [int(v) for v in eps]
        return [shared] * n_queries
    per_beam = [[int(v) for v in ep] for ep in eps]
    if len(per_beam) != n_queries:
        raise SearchError(
            f"got {len(per_beam)} entry-point lists for {n_queries} queries"
        )
    if any(not starts for starts in per_beam):
        raise SearchError("search needs at least one entry point")
    return per_beam


def greedy_search_batch(
    graph: NavigationGraph,
    vectors: np.ndarray,
    kernel: DistanceKernel,
    queries: np.ndarray,
    k: int,
    budget: int = 64,
    entry_points=None,
    use_pruning: bool = False,
    visit_hook: "BatchVisitHook | None" = None,
    admit=None,
) -> List[SearchResult]:
    """Approximate top-``k`` search over ``graph`` for every query row.

    Each query gets its own beam, candidate heap and visited set, and the
    beams advance in lockstep: per round, every still-active beam pops
    candidates until it either finds a vertex with unvisited neighbours or
    terminates; then all frontier neighbours across the expanding beams are
    scored in **one** dispatch (:func:`score_ragged`) — each neighbour
    against its own beam's query, never queries x union.  A beam never
    reads another beam's state, so a row's ids, distances and work counters
    do not depend on what else is in the batch.

    Args:
        graph: Navigation graph over the corpus; anything with
            ``neighbors(vertex)`` will do (an HNSW ``SparseLayer`` has no
            default entry points and needs ``entry_points``).
        vectors: The ``(n, d)`` corpus matrix the graph was built on.
        kernel: Distance kernel (single- or multi-vector).
        queries: ``(Q, d)`` query matrix (a 1-D vector is one query).
        k: Result count.
        budget: Beam width (``ef``); clamped up to ``k``.
        entry_points: ``None`` (graph defaults), a flat sequence of vertex
            ids shared by all beams, or one sequence per query.
        use_pruning: Score neighbours individually with a bound instead of
            in one batch, enabling incremental-scanning early exits.
        visit_hook: Called with ``(beam_index, vertex)`` for each vertex
            whose vector is accessed — the hook Starling uses to charge
            simulated block I/O.
        admit: ``None``, a single predicate shared by every beam, or one
            optional predicate per query.  Vertices failing the predicate
            are still *traversed* (the graph must stay navigable through
            them) but never enter the result beam — filtered vector search.

    Returns:
        One :class:`SearchResult` per query row, in input order, ids
        sorted by ascending distance.
    """
    if k <= 0:
        raise SearchError(f"k must be positive, got {k}")
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    n_queries = queries.shape[0]
    if n_queries == 0:
        return []
    budget = max(budget, k)
    per_beam_starts = _normalise_starts(graph, entry_points, n_queries)
    admits = _per_query_admits(admit, n_queries)

    stats = [SearchStats() for _ in range(n_queries)]
    visited: List[set] = [set() for _ in range(n_queries)]
    candidates: List[List] = [[] for _ in range(n_queries)]  # min-heaps of (distance, vertex)
    beams: List[List] = [[] for _ in range(n_queries)]  # max-heaps of (-distance, vertex)
    # With a filter, navigation still flows through non-matching vertices,
    # but results are collected separately from admitted vertices only.
    results: List = [([] if admits[b] is not None else None) for b in range(n_queries)]

    def collect(beam_index: int, vertex: int, distance: float) -> None:
        if admits[beam_index](vertex):
            pool = results[beam_index]
            heapq.heappush(pool, (-distance, vertex))
            if len(pool) > budget:
                heapq.heappop(pool)

    with trace_span(
        "beam-search", queries=n_queries, k=k, budget=budget, pruning=use_pruning
    ) as span:
        seeds: List = []
        for b in range(n_queries):
            unique = list(dict.fromkeys(per_beam_starts[b]))
            visited[b].update(unique)
            if visit_hook is not None:
                for start in unique:
                    visit_hook(b, start)
            seeds.append((b, unique))
        scored = iter(score_ragged(kernel, queries, vectors, seeds).tolist())
        for b, unique in seeds:
            stats[b].distance_evaluations += len(unique)
            # zip stops at the end of `unique` without touching `scored`,
            # so the shared iterator hands each beam exactly its own run.
            for vertex, distance in zip(unique, scored):
                heapq.heappush(candidates[b], (distance, vertex))
                heapq.heappush(beams[b], (-distance, vertex))
                if results[b] is not None:
                    collect(b, vertex, distance)
            while len(beams[b]) > budget:
                heapq.heappop(beams[b])

        alive = list(range(n_queries))
        while alive:
            # Advance each live beam to its next expansion (or retire it).
            expanding: List = []
            for b in alive:
                cands = candidates[b]
                beam = beams[b]
                seen = visited[b]
                while cands:
                    distance, vertex = heapq.heappop(cands)
                    if distance > -beam[0][0] and len(beam) >= budget:
                        break
                    stats[b].hops += 1
                    fresh = [n for n in graph.neighbors(vertex) if n not in seen]
                    if not fresh:
                        continue
                    seen.update(fresh)
                    if visit_hook is not None:
                        for neighbor in fresh:
                            visit_hook(b, neighbor)
                    expanding.append((b, fresh))
                    break
            if len(expanding) < len(alive):
                if not expanding:
                    break
                alive = [b for b, _ in expanding]

            if use_pruning:
                # Sequential by nature: each neighbour's bound depends on
                # the beam the previous one left behind.
                for b, fresh in expanding:
                    beam = beams[b]
                    cands = candidates[b]
                    query = queries[b]
                    bound = -beam[0][0] if len(beam) >= budget else np.inf
                    for neighbor in fresh:
                        neighbor_distance = kernel.single(
                            query, vectors[neighbor], bound=bound
                        )
                        stats[b].distance_evaluations += 1
                        if neighbor_distance >= bound:
                            continue
                        if results[b] is not None:
                            collect(b, neighbor, float(neighbor_distance))
                        heapq.heappush(cands, (neighbor_distance, neighbor))
                        heapq.heappush(beam, (-neighbor_distance, neighbor))
                        if len(beam) > budget:
                            heapq.heappop(beam)
                        bound = -beam[0][0] if len(beam) >= budget else np.inf
                continue

            scored = iter(score_ragged(kernel, queries, vectors, expanding).tolist())
            for b, fresh in expanding:
                beam = beams[b]
                cands = candidates[b]
                stats[b].distance_evaluations += len(fresh)
                track = results[b] is not None
                # Hot inner loop: a full beam is updated with one
                # heapreplace instead of push+pop.  A displacing neighbour
                # is strictly better than the root (equal distances take
                # the `continue`), so the replaced content is identical to
                # a push-then-pop.
                for neighbor, neighbor_distance in zip(fresh, scored):
                    if track:
                        collect(b, neighbor, neighbor_distance)
                    if len(beam) >= budget:
                        if neighbor_distance >= -beam[0][0]:
                            continue
                        heapq.heappush(cands, (neighbor_distance, neighbor))
                        heapq.heapreplace(beam, (-neighbor_distance, neighbor))
                    else:
                        heapq.heappush(cands, (neighbor_distance, neighbor))
                        heapq.heappush(beam, (-neighbor_distance, neighbor))

        span.set(
            hops=sum(s.hops for s in stats),
            distance_evaluations=sum(s.distance_evaluations for s in stats),
            visited=sum(len(seen) for seen in visited),
        )

    out: List[SearchResult] = []
    for b in range(n_queries):
        pool = beams[b] if results[b] is None else results[b]
        top = sorted((-d, v) for d, v in pool)[:k]
        out.append(
            SearchResult(
                ids=[int(v) for _, v in top],
                distances=[float(d) for d, _ in top],
                stats=stats[b],
            )
        )
    return out
