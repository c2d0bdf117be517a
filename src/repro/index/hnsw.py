"""Hierarchical Navigable Small World graphs (Malkov & Yashunin).

What is kept from the paper: exponentially-distributed layer assignment
from one seeded stream, the ``select_neighbors_heuristic`` diversification
rule (Algorithm 4) on every layer a node joins, and bidirectional edge
insertion with degree-bounded re-pruning, in insertion order.

Where a new node's candidates come from depends on how it arrives, and
nothing else does:

* :meth:`HnswIndex.build` has the whole corpus, so it computes what the
  insertion beam search only approximates — each member's
  ``ef_construction`` nearest *earlier* members of the layer — exactly:
  one blocked GEMM per block of rows to pre-select, ``kernel.batch_paired``
  to re-score and order (:func:`repro.index.stages.exact_top_k`), and
  Algorithm 4 over all full-width rows of a block, its occlusion table
  packed into a pass of blocks that :func:`select_saturated` scans once.
* :meth:`HnswIndex.add` has one vector and a live graph, so it searches,
  with the routines every query uses, as a batch of one:
  :meth:`HnswIndex._greedy_descend_batch` through the layers above the
  node's own, then :func:`repro.index.search.greedy_search_batch` (``k =
  budget = ef_construction``) over each layer it joins.

Both then link through :meth:`HnswIndex._link`, target-major.  A row's
history — its own selection, then a reverse edge from every later node that
selected it, re-selected down to the cap after each one past it — depends
on no other row, so ``build`` hands over a layer's reverse edges grouped by
row and each row is folded a *window* of ``m`` arrivals per gather: one
``kernel.batch_paired`` and one stacked ``kernel.matrix`` per block of rows,
then the window's events replayed in lockstep, each scanning its ranked
pool positions against the pools' packed tables.
``add`` is the one-arrival case.  Given the same distances it makes the
decisions linking node by node would, and stores the rows in the same order.

Every layer is stored once.  Layer 0 holds every node, so it *is* the
:class:`~repro.index.graph.NavigationGraph` that :meth:`HnswIndex.base_graph`
hands out and ``search_batch`` walks; the layers above are
:class:`~repro.index.graph.SparseLayer` dicts over their members.  Both read
as ``{node: row}``, which is all the link step needs, and the entry node is
the base graph's entry point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple, Union

import numpy as np

from repro.distance.kernel import DistanceKernel
from repro.errors import GraphConstructionError, SearchError
from repro.index.base import VectorIndex
from repro.index.graph import NavigationGraph, SparseLayer
from repro.index.search import greedy_search_batch, score_ragged
from repro.index.stages import (
    block_rows,
    exact_top_k,
    mrng_rule,
    occlusion_scan,
    pack_table,
    packed_words,
    pass_rows,
)
from repro.observability import trace_span
from repro.utils import derive_rng


@dataclass(frozen=True)
class HnswParams:
    """HNSW construction parameters.

    Attributes:
        m: Target out-degree on upper layers (base layer allows ``2 * m``).
        ef_construction: Candidates per new node on each layer: the beam
            width of ``add``, the exact nearest-earlier count of ``build``.
        seed: Layer-assignment seed.
    """

    m: int = 12
    ef_construction: int = 80
    seed: int = 0

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"m must be >= 2, got {self.m}")
        if self.ef_construction < self.m:
            raise ValueError(
                f"ef_construction ({self.ef_construction}) must be >= m ({self.m})"
            )


def select_heuristic_rows(
    distances: np.ndarray, pairwise: np.ndarray, m: int
) -> np.ndarray:
    """Algorithm-4 neighbour selection for ``R`` candidate rows at once.

    Args:
        distances: ``(R, W)`` owner-to-candidate distances, each row
            ascending (ties already broken by id), with ``W > m``.
        pairwise: ``(R, W, W)`` candidate-to-candidate distances per row,
            in the same candidate order.
        m: Neighbours to keep per row.

    Returns:
        ``(R, m)`` column indices in selection order: the candidates that
        are at least as close to the owner as to every earlier-selected
        one, then — when occlusion leaves a row short — the nearest
        rejected candidates, so every row comes back saturated.
    """
    return select_saturated(pack_table(mrng_rule(pairwise, distances)), m)


def select_saturated(
    packed: np.ndarray, m: int, columns: "np.ndarray | None" = None
) -> np.ndarray:
    """:func:`select_heuristic_rows` given the packed occlusion table (and
    with ``columns`` the entries each row visits, in rank order).  The scan
    is :func:`repro.index.stages.occlusion_scan`, which NSG's and Vamana's
    selection share; what is HNSW's own is the fill-up rank below."""
    selected = occlusion_scan(packed, m, columns=columns)
    width = selected.shape[1]
    # Selected columns first, then the rejected ones, each ascending: the
    # first m are every selected column plus just enough fill-ups.
    rank = np.arange(width) + width * ~selected
    return np.argsort(rank, axis=1)[:, :m]


class HnswIndex(VectorIndex):
    """Multi-layer navigation graph with heuristic neighbour selection."""

    name = "hnsw"

    def __init__(self, params: HnswParams = HnswParams()) -> None:
        super().__init__()
        self.params = params
        self._layers: List[Union[NavigationGraph, SparseLayer]] = []
        self._node_level: List[int] = []
        self._max_level: int = -1

    @property
    def _entry(self) -> int:
        """Where every descent starts: the first node of maximal level."""
        return self._layers[0].entry_points[0]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self, vectors: np.ndarray, kernel: DistanceKernel) -> None:
        start = time.perf_counter()
        self._vectors = self._corpus_matrix(vectors, kernel)
        self._kernel = kernel

        rng = derive_rng(self.params.seed, "hnsw-levels")
        level_scale = 1.0 / np.log(self.params.m)
        self._node_level = [
            int(-np.log(max(rng.random(), 1e-12)) * level_scale)
            for _ in range(self.size)
        ]
        self._max_level = max(self._node_level)
        base = NavigationGraph(self.size, max_degree=self.params.m * 2)
        # Inserting one by one promotes a node to entry point only when it
        # is strictly taller than every earlier one: the first of max level.
        base.entry_points = [self._node_level.index(self._max_level)]
        self._layers = [base] + [SparseLayer() for _ in range(self._max_level)]
        levels = np.asarray(self._node_level)
        with trace_span("hnsw-insert", nodes=self.size) as span:
            for layer in range(self._max_level, -1, -1):
                self._build_layer(layer, (levels >= layer).nonzero()[0])
            span.set(layers=self._max_level + 1)
        self.build_seconds = time.perf_counter() - start

    def _build_layer(self, layer: int, members: np.ndarray) -> None:
        """Link ``members`` (ascending node ids) into ``layer`` in that order.

        A member's candidates and the Algorithm-4 selection over them depend
        on nothing the build has linked so far, so both run block by block
        ahead of the links, and :meth:`_link` takes the layer in one call.
        """
        ef = self.params.ef_construction
        m = self.params.m * 2 if layer == 0 else self.params.m
        count = members.size
        vectors = self.vectors if count == self.size else self.vectors[members]
        rows = block_rows(ef, self.kernel.dim)
        with trace_span(
            "hnsw-candidates", layer=layer, rows=count, blocks=-(-count // rows)
        ):
            ids, distances = self._earlier_neighbors(vectors, rows)

        # Rows narrower than ef keep the single-row form (as does every row
        # when ef fits the cap and nothing is dropped); the full-width ones
        # select together.  Either way a row holds the one int object per
        # member (``nodes``), not the fresh copies ``tolist`` makes: an edge
        # then costs a pointer.
        nodes = members.tolist()
        full_from = min(ef if ef > m else count, count)
        selected: List[List[int]] = []
        with trace_span("hnsw-select", layer=layer, rows=count):
            for p in range(full_from):
                ranked = [
                    (distance, nodes[c])
                    for distance, c in zip(distances[p, :p].tolist(), ids[p, :p].tolist())
                ]
                selected.append(self._select_heuristic(ranked, m))
            for kept in self._select_passes(vectors, ids, distances, full_from, m):
                selected.extend([nodes[c] for c in row] for row in kept.tolist())

        # Every reverse edge into a row comes from a later node, so a row's
        # history is its own selection, then these, in node order — whatever
        # happens to any other row: link target-major.
        incoming: Dict[int, List[int]] = {}
        with trace_span("hnsw-link", layer=layer, rows=count) as span:
            for node, neighbors in zip(nodes, selected):
                self._layers[layer][node] = neighbors
                for neighbor in neighbors:
                    incoming.setdefault(neighbor, []).append(node)
            span.set(**self._link(layer, incoming, m))

    def _select_passes(
        self, vectors: np.ndarray, ids: np.ndarray, distances: np.ndarray, first: int, m: int
    ) -> Iterator[np.ndarray]:
        """Algorithm 4 over the full-width candidate rows from ``first`` on:
        one stacked ``kernel.matrix`` per block of rows, its table packed
        into a pass of whole blocks that fits the scratch budget, one scan
        per pass.  Yields each pass's kept candidate positions, ``(rows,
        m)`` in selection order; no pass's table outlives the selection."""
        ef = self.params.ef_construction
        rows = block_rows(ef, self.kernel.dim)
        step = max(1, pass_rows(ef) // rows) * rows
        for start in range(first, ids.shape[0], step):
            stop = min(start + step, ids.shape[0])
            packed = np.zeros((stop - start, ef, packed_words(ef)), dtype="<u8")
            for lo in range(start, stop, rows):
                chunk = ids[lo : lo + rows]
                block = vectors[chunk.ravel()].reshape(*chunk.shape, -1)
                pack_table(
                    mrng_rule(self.kernel.matrix(block, block), distances[lo : lo + rows]),
                    out=packed[lo - start : lo - start + rows],
                )
            yield np.take_along_axis(ids[start:stop], select_saturated(packed, m), axis=1)

    def _earlier_neighbors(
        self, vectors: np.ndarray, rows: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Each row's ``ef_construction`` nearest *earlier* rows of ``vectors``
        — exactly the set an insertion's beam search approximates — found
        ``rows`` rows at a time.

        Returns ``(positions, distances)``, ascending by ``(distance,
        position)``; row ``p`` has ``min(p, ef_construction)`` candidates, in
        its leading columns.
        """
        count = vectors.shape[0]
        width = min(self.params.ef_construction, count)
        positions = np.zeros((count, width), dtype=np.intp)
        distances = np.full((count, width), np.inf)
        for start in range(0, count, rows):
            stop = min(start + rows, count)
            top, top_distances = exact_top_k(
                self.kernel, vectors, start, stop, width, earlier_only=True
            )
            positions[start:stop, : top.shape[1]] = top
            distances[start:stop, : top.shape[1]] = top_distances
        return positions, distances

    def _link(self, layer: int, incoming: Dict[int, List[int]], m: int) -> Dict[str, int]:
        """Fold ``incoming[target]`` — nodes new to the target's row, in
        arrival order — into every target's row; returns the ``hnsw-link``
        counters.  ``build`` passes a layer's whole history, ``add`` one
        arrival per neighbour; nothing else differs.

        A row with room extends.  A full one takes each further arrival as
        its own event, as linking node by node would: rank the ``m + 1`` ids
        by ``(distance to the owner, id)``, prune by Algorithm 4 with
        fill-up, keep ``m`` in selection order.  Events read vectors, never
        the graph, so rows are independent: a round takes every pending
        row's next ``m`` arrivals through :meth:`_replay` — a *window*; the
        ``(m + E)^2 / E`` multiply-adds per event are fewest at ``E = m``.
        """
        rows = self._layers[layer]
        pending = []
        for target, arrivals in incoming.items():
            room = m - len(rows[target])
            rows[target].extend(arrivals[:room])
            if len(arrivals) > room:
                pending.append((target, arrivals[room:]))
        # Longest first, which a round taking m from every row preserves.
        pending.sort(key=lambda item: -len(item[1]))
        reselected = sum(len(arrivals) for _, arrivals in pending)
        stats = {"reselected_rows": reselected, "targets": len(pending), "windows": 0}
        # Rows replayed together: 280 at the defaults, whose tables filled the
        # scratch budget at a byte per entry and take a sixth of it packed.
        # Replaying more rows at once buys no speed and raises the peak.
        step = 8 * block_rows(2 * m, 2 * m)
        while pending:
            stats["windows"] += len(pending)
            for start in range(0, len(pending), step):
                group = pending[start : start + step]
                pools = [rows[target] + arrivals[:m] for target, arrivals in group]
                picks = self._replay([target for target, _ in group], pools, m)
                # By position: the kept ids stay the int objects the graph shares.
                for (target, _), pool, row in zip(group, pools, picks):
                    rows[target] = [pool[i] for i in row]
            pending = [(target, arrivals[m:]) for target, arrivals in pending if len(arrivals) > m]
        return stats

    def _replay(self, owners: List[int], pools: List[List[int]], m: int) -> List[List[int]]:
        """Run each pool — a full row's ``m`` ids, then its arrivals, longest
        pool first — through its events; returns the pool positions each row
        keeps, in selection order.

        What an event asks of two ids is computed ahead, ``block_rows`` pools
        at a time: one gather, one ``kernel.batch_paired`` and one stacked
        ``kernel.matrix`` give each pool's ``(distance, id)`` order and its
        Algorithm-4 table, packed by pool position.  The events then run in
        lockstep over all pools, each a sort of ``m + 1`` ranks and one scan
        of the pool positions they name, in rank order, against that table.
        """
        n_rows, width = len(pools), len(pools[0])
        events = np.array([len(pool) for pool in pools]) - m
        # A short pool repeats its first id: ranked beside it, never an arrival.
        ids = np.array([pool + pool[:1] * (width - len(pool)) for pool in pools], dtype=np.intp)
        order = np.empty_like(ids)
        packed = np.zeros((n_rows, width, packed_words(width)), dtype="<u8")
        step = block_rows(width, max(self.kernel.dim, width))
        for start in range(0, n_rows, step):
            chunk = ids[start : start + step]
            block = self.vectors[chunk.ravel()]
            distances = self.kernel.batch_paired(
                self.vectors[owners[start : start + step]],
                block,
                np.repeat(np.arange(chunk.shape[0]), width),
            ).reshape(chunk.shape)
            block = block.reshape(*chunk.shape, -1)
            order[start : start + step] = np.lexsort((chunk, distances))
            pack_table(
                mrng_rule(self.kernel.matrix(block, block), distances),
                out=packed[start : start + step],
            )
        row = np.arange(n_rows)[:, None]
        rank = np.argsort(order, axis=1)
        members = rank[:, :m].copy()
        for event in range(width - m):
            live = int((events > event).sum())
            ranked = np.sort(np.hstack([members[:live], rank[:live, m + event, None]]), axis=1)
            keep = select_saturated(packed[:live], m, columns=order[row[:live], ranked])
            members[:live] = ranked[row[:live], keep]
        return order[row, members].tolist()

    def _neighbors(self, layer: int, node: int) -> List[int]:
        return self._layers[layer][node]

    def _select_heuristic(
        self, candidates: List[Tuple[float, int]], m: int
    ) -> List[int]:
        """Diversified neighbour selection (Algorithm 4 of the paper).

        A candidate is kept only if it is closer to the inserted point than
        to every already-selected neighbour, which spreads edges across
        directions instead of clustering them.
        """
        if len(candidates) <= m:
            return [candidate for _, candidate in candidates]
        ids = [candidate for _, candidate in candidates]
        pairwise = self.kernel.matrix(self.vectors[ids], self.vectors[ids])
        selected_rows: List[int] = []
        for row, (distance, _) in enumerate(candidates):
            if len(selected_rows) >= m:
                break
            keep = all(pairwise[row, other] >= distance for other in selected_rows)
            if keep:
                selected_rows.append(row)
        if len(selected_rows) < m:
            chosen = set(selected_rows)
            for row in range(len(candidates)):
                if len(selected_rows) >= m:
                    break
                if row not in chosen:
                    selected_rows.append(row)
                    chosen.add(row)
        return [ids[row] for row in selected_rows]

    def _insert(self, node: int, level: int) -> None:
        """Link one new node into a built graph, finding its candidates by
        search (:meth:`build` finds them exactly instead)."""
        self._node_level.append(level)
        while len(self._layers) <= level:
            self._layers.append(SparseLayer())
        self._layers[0].add_vertex()
        # A node taller than the graph stays unlinked above the old top.
        for layer in range(1, level + 1):
            self._layers[layer][node] = []

        query = self.vectors[node][None]
        starts = [self._entry]
        for layer in range(self._max_level, level, -1):
            starts = self._greedy_descend_batch(self.kernel, query, starts, layer)

        ef = self.params.ef_construction
        for layer in range(min(level, self._max_level), -1, -1):
            found = greedy_search_batch(
                self._layers[layer], self.vectors, self.kernel, query,
                k=ef, budget=ef, entry_points=starts,
            )[0]
            m = self.params.m * 2 if layer == 0 else self.params.m
            candidates = list(zip(found.distances, found.ids))
            neighbors = self._select_heuristic(candidates, m)
            self._layers[layer][node] = neighbors
            self._link(layer, {neighbor: [node] for neighbor in neighbors}, m)
            starts = found.ids

        if level > self._max_level:
            self._layers[0].entry_points = [node]
            self._max_level = level

    def add(self, vector: np.ndarray) -> int:
        """Insert one vector (HNSW is naturally incremental): append the
        row, draw its level from the seeded per-node stream, link it."""
        node = self._append_row(vector)
        rng = derive_rng(self.params.seed, "hnsw-level-add", node)
        level = int(-np.log(max(rng.random(), 1e-12)) / np.log(self.params.m))
        self._insert(node, level)
        return node

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _greedy_descend_batch(
        self, kernel: DistanceKernel, queries: np.ndarray, currents: List[int], layer: int
    ) -> List[int]:
        """Walk every query greedily to its local minimum on one layer, in
        lockstep; ``add`` descends with it too, as a batch of one.

        Each query walks on its own — ``kernel.single`` initialisation,
        per-step argmin over its own neighbour list — but all still-walking
        queries share one scoring dispatch per step
        (:func:`repro.index.search.score_ragged`).  Not a beam: no visited
        set and no frontier, a step scores the whole row again.
        """
        currents = list(currents)
        best_distances = [
            float(kernel.single(query, self.vectors[current]))
            for query, current in zip(queries, currents)
        ]
        active = list(range(len(currents)))
        while active:
            walking = [
                (i, neighbors)
                for i in active
                if (neighbors := self._neighbors(layer, currents[i]))
            ]
            if not walking:
                break
            frontier = score_ragged(kernel, queries, self.vectors, walking)
            cursor = 0
            active = []
            for i, neighbors in walking:
                distances = frontier[cursor : cursor + len(neighbors)]
                cursor += len(neighbors)
                best = int(np.argmin(distances))
                if float(distances[best]) < best_distances[i]:
                    currents[i] = neighbors[best]
                    best_distances[i] = float(distances[best])
                    active.append(i)
        return currents

    def search_batch(
        self, queries, k: int, budget: int = 64, *, kernel=None, admit=None,
        use_pruning: bool = False,
    ):
        """Lockstep descent through the upper layers, then lockstep beam
        search over layer 0 from each query's own base entry — both under
        the call's kernel."""
        self._require_built()
        kernel = self._search_kernel(kernel)
        if k <= 0:
            raise SearchError(f"k must be positive, got {k}")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n_queries = queries.shape[0]
        if n_queries == 0:
            return []
        currents = [self._entry] * n_queries
        with trace_span(
            "hnsw-descent", top_layer=self._max_level, queries=n_queries
        ) as span:
            for layer in range(self._max_level, 0, -1):
                currents = self._greedy_descend_batch(kernel, queries, currents, layer)
            span.set(base_entries=len(set(currents)))
        return greedy_search_batch(
            self._layers[0],
            self.vectors,
            kernel,
            queries,
            k=k,
            budget=budget,
            entry_points=[[current] for current in currents],
            use_pruning=use_pruning,
            admit=admit,
        )

    # ------------------------------------------------------------------
    # structural invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify the graph's structural invariants; raise on violation.

        Checked after any interleaved add/search sequence by the property
        tests:

        * bookkeeping — one level per node, vectors row per node, layer
          count matching the max level, entry node at the max level;
        * membership — node present in layer ``l`` iff ``l <= level(node)``;
        * edges — every neighbour id valid, no self-loops, no duplicates,
          rows within the degree cap (``2m`` on layer 0, ``m`` above);
        * connectivity — for every edge ``u -> v``, either ``v -> u``
          exists or ``v``'s row is saturated at the cap (re-pruning is the
          only way a reverse edge disappears, and it always leaves exactly
          ``cap`` entries).
        """
        self._require_built()
        size = self.size
        if len(self._node_level) != size:
            raise GraphConstructionError(
                f"{len(self._node_level)} node levels for {size} vectors"
            )
        if len(self._layers) != self._max_level + 1:
            raise GraphConstructionError(
                f"{len(self._layers)} layers but max level {self._max_level}"
            )
        if not 0 <= self._entry < size:
            raise GraphConstructionError(f"entry node {self._entry} out of range")
        if self._node_level[self._entry] != self._max_level:
            raise GraphConstructionError(
                f"entry node {self._entry} has level "
                f"{self._node_level[self._entry]}, expected {self._max_level}"
            )
        for node, level in enumerate(self._node_level):
            if not 0 <= level <= self._max_level:
                raise GraphConstructionError(
                    f"node {node} level {level} outside [0, {self._max_level}]"
                )
        for layer_index, layer in enumerate(self._layers):
            cap = self.params.m * 2 if layer_index == 0 else self.params.m
            for node in range(size):
                present = node in layer
                expected = self._node_level[node] >= layer_index
                if present != expected:
                    raise GraphConstructionError(
                        f"node {node} (level {self._node_level[node]}) "
                        f"{'present' if present else 'missing'} on layer {layer_index}"
                    )
            for node, row in layer.items():
                if len(row) > cap:
                    raise GraphConstructionError(
                        f"layer {layer_index} node {node} degree {len(row)} "
                        f"exceeds cap {cap}"
                    )
                if len(set(row)) != len(row):
                    raise GraphConstructionError(
                        f"layer {layer_index} node {node} has duplicate neighbours"
                    )
                for neighbor in row:
                    if not 0 <= neighbor < size:
                        raise GraphConstructionError(
                            f"layer {layer_index} node {node} -> dangling id {neighbor}"
                        )
                    if neighbor == node:
                        raise GraphConstructionError(
                            f"layer {layer_index} node {node} has a self-loop"
                        )
                    if neighbor not in layer:
                        raise GraphConstructionError(
                            f"layer {layer_index} edge {node} -> {neighbor} "
                            f"targets a node absent from the layer"
                        )
                    back = layer[neighbor]
                    if node not in back and len(back) != cap:
                        raise GraphConstructionError(
                            f"layer {layer_index} edge {node} -> {neighbor} has no "
                            f"reverse edge and {neighbor}'s row is unsaturated "
                            f"({len(back)}/{cap})"
                        )

    def base_graph(self) -> NavigationGraph:
        """Layer 0 itself — the graph ``search_batch`` walks, not a copy."""
        self._require_built()
        return self._layers[0]
