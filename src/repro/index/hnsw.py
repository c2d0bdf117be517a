"""Hierarchical Navigable Small World graphs (Malkov & Yashunin).

What is kept from the paper: exponentially-distributed layer assignment
from one seeded stream, the ``select_neighbors_heuristic`` diversification
rule (Algorithm 4) on every layer a node joins, and bidirectional edge
insertion with degree-bounded re-pruning, in insertion order.  The degrees
are Algorithm 1's: an insert selects ``m`` neighbours on every layer,
layer 0 included, and ``Mmax0 = 2m`` on layer 0 (``m`` above) is only the
cap a row is re-selected down to once reverse edges push it past.  hnswlib
does the same; FAISS instead selects ``2M`` at level 0, which starts every
base row full, so every reverse edge re-selects.

Where a new node's candidates come from depends on how it arrives, and
nothing else does:

* :meth:`HnswIndex.build` has the whole corpus, so it computes what the
  insertion beam search only approximates — each member's
  ``ef_construction`` nearest *earlier* members of the layer — exactly,
  a pass at a time from row 0.  A pass is as many whole blocks of rows as
  one packed occlusion table fits in the scratch budget; each block's
  candidates come from a blocked GEMM to pre-select and
  ``kernel.batch_paired`` to re-score and order
  (:func:`repro.index.stages.exact_top_k`), and a row with fewer than
  ``ef`` earlier members is padded at distance ``inf``.  Only each row's
  ``m`` picks outlive the pass: there is no ``(members, ef)`` table.
* :meth:`HnswIndex.add` has one vector and a live graph, so it searches,
  with the loop every query uses, as a batch of one: at ``k = budget = 1``
  through the layers above the node's own (:meth:`HnswIndex._descend`),
  then :func:`repro.index.search.greedy_search_batch` (``k = budget =
  ef_construction``) over each layer it joins.

Both select through :meth:`HnswIndex._select_passes` — ``add`` as a pass of
one row — which runs Algorithm 4 over a pass's rows: one packed table that
:func:`select_saturated` scans once.

``build`` embeds the corpus once (``kernel.embed``: for MUST ``√w ⊙ x`` and
each row's squared norm) and every stacked block above and in the link step
gathers from that; the embedding is a local of ``build`` and goes with it.

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
the base graph's entry point.  Every row of every layer holds the base
graph's int object per node (:meth:`NavigationGraph.vertex_ids`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Union

import numpy as np

from repro.distance.kernel import DistanceKernel
from repro.errors import GraphConstructionError, SearchError
from repro.index.base import VectorIndex
from repro.index.graph import NavigationGraph, SparseLayer
from repro.index.search import beam_rounds, greedy_search_batch
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
from repro.utils import check_fields, derive_rng, param


@dataclass(frozen=True)
class HnswParams:
    """HNSW construction parameters.

    Attributes:
        m: Neighbours an insert selects on every layer (Algorithm 1's
            ``M``).  A row grows past that only by reverse edges, up to
            the cap ``Mmax0 = 2 * m`` on layer 0 and ``m`` above, and is
            re-selected down to the cap when one more arrives.  hnswlib
            does the same; FAISS selects ``2M`` at level 0.
        ef_construction: Candidates per new node on each layer: the beam
            width of ``add``, the exact nearest-earlier count of ``build``.
        seed: Layer-assignment seed.
    """

    m: int = param(12, ge=2)
    ef_construction: int = 80
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
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
        base = NavigationGraph(self.size, max_degree=self._cap(0))
        # Inserting one by one promotes a node to entry point only when it
        # is strictly taller than every earlier one: the first of max level.
        base.entry_points = [self._node_level.index(self._max_level)]
        self._layers = [base] + [SparseLayer() for _ in range(self._max_level)]
        levels = np.asarray(self._node_level)
        # The corpus as kernel.matrix takes it, for this build only: every
        # stacked block below gathers its rows and norms from here.
        embedded = kernel.embed(self._vectors)
        with trace_span("hnsw-insert", nodes=self.size) as span:
            for layer in range(self._max_level, -1, -1):
                self._build_layer(layer, (levels >= layer).nonzero()[0], embedded)
            # Re-selection can drop a node from every row that held it; the
            # repair writes each edge it adds both ways while the attached
            # row has room, so check_invariants still holds.
            base.connect_unreachable(reverse=True)
            span.set(layers=self._max_level + 1)
        self.build_seconds = time.perf_counter() - start

    def _cap(self, layer: int) -> int:
        """Algorithm 1's ``Mmax``: a row is re-selected down to ``2m`` on
        layer 0 and ``m`` above, once reverse edges push it past that."""
        return 2 * self.params.m if layer == 0 else self.params.m

    def _build_layer(self, layer: int, members: np.ndarray, embedded) -> None:
        """Link ``members`` (ascending node ids) into ``layer`` in that order.

        A member's candidates and the Algorithm-4 selection over them depend
        on nothing the build has linked so far, so both run ahead of the
        links, a pass of whole candidate blocks at a time: each pass's
        candidates are computed, selected from and dropped before the next
        pass's, and only the ``(members, m)`` selection outlives it.
        :meth:`_link` then takes the layer in one call.  ``embedded`` is
        the build's ``kernel.embed`` of the whole corpus.
        """
        ef, m = self.params.ef_construction, self.params.m
        count = members.size
        whole = count == self.size
        vectors = self.vectors if whole else self.vectors[members]
        local = embedded if whole else embedded[members]
        rows = block_rows(ef, self.kernel.dim)
        step = max(1, pass_rows(ef) // rows) * rows
        width = min(ef, count)
        # One schedule of passes of whole candidate blocks from row 0; row p
        # has min(p, width) candidates, padded past them.
        bounds = [*range(0, count, step), count]
        selected = np.empty((count, m), dtype=np.intp)
        with trace_span(
            "hnsw-select", layer=layer, rows=count, blocks=-(-count // rows),
            passes=len(bounds) - 1,
        ):
            for start, stop in zip(bounds, bounds[1:]):
                with trace_span(
                    "hnsw-candidates", rows=stop - start, blocks=-(-(stop - start) // rows),
                ):
                    ids = np.zeros((stop - start, width), dtype=np.intp)
                    distances = np.full((stop - start, width), np.inf)
                    for lo in range(start, stop, rows):
                        top, top_distances = exact_top_k(
                            self.kernel, vectors, lo, min(lo + rows, count), width,
                            earlier_only=True, embedded=local,
                        )
                        ids[lo - start : lo - start + rows, : top.shape[1]] = top
                        distances[lo - start : lo - start + rows, : top.shape[1]] = top_distances
                counts = np.minimum(np.arange(start, stop), width)
                selected[start:stop] = self._select_passes(local, ids, distances, counts)
                del ids, distances  # before the next pass's are made

        # A row holds the base graph's int object per member (``nodes``):
        # an edge costs a pointer.  Every reverse edge into a row comes from
        # a later node, so a row's history is its own selection, then
        # these, in node order — whatever happens to any other row: link
        # target-major.
        nodes = self._layers[0].vertex_ids(members)
        incoming: Dict[int, List[int]] = {}
        with trace_span("hnsw-link", layer=layer, rows=count) as span:
            for node, row in zip(nodes, selected):
                neighbors = [nodes[c] for c in row.tolist() if c >= 0]
                self._layers[layer][node] = neighbors
                for neighbor in neighbors:
                    incoming.setdefault(neighbor, []).append(node)
            del selected  # before _link's scratch
            span.set(**self._link(layer, incoming, self._cap(layer), embedded))

    def _select_passes(
        self, embedded, ids: np.ndarray, distances: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Algorithm 4 over a pass of candidate rows, ascending by ``(distance,
        id)`` in their first ``counts`` entries, padded at distance ``inf``
        (occluded, never a fill-up): one stacked ``kernel.matrix`` a block,
        gathered from ``embedded`` (the build's, or the rows), one packed
        table, one scan.  A row of at most ``m`` keeps all in rank order.
        Returns ``(rows, m)`` ids in selection order, ``-1`` past the end."""
        m = self.params.m
        n_rows, width = ids.shape
        kept = np.broadcast_to(np.arange(min(width, m)), (n_rows, min(width, m)))
        if width > m:
            rows = block_rows(width, self.kernel.dim)
            packed = np.zeros((n_rows, width, packed_words(width)), dtype="<u8")
            for lo in range(0, n_rows, rows):
                block = embedded[ids[lo : lo + rows]]
                pack_table(
                    mrng_rule(self.kernel.matrix(block, block), distances[lo : lo + rows]),
                    out=packed[lo : lo + rows],
                )
            kept = np.where(counts[:, None] > m, select_saturated(packed, m), kept)
        selected = np.full((n_rows, m), -1, dtype=np.intp)
        selected[:, : kept.shape[1]] = np.where(
            kept < counts[:, None], np.take_along_axis(ids, kept, axis=1), -1
        )
        return selected

    def _link(
        self, layer: int, incoming: Dict[int, List[int]], m: int, embedded=None
    ) -> Dict[str, int]:
        """Fold ``incoming[target]`` — nodes new to the target's row, in
        arrival order — into every target's row; returns the ``hnsw-link``
        counters.  ``build`` passes a layer's whole history and its corpus
        ``embedded``, ``add`` one arrival per neighbour and no embedding (its
        few gathers are embedded as they come); nothing else differs.

        A row with room extends.  A full one takes each further arrival as
        its own event, as linking node by node would: rank the ``m + 1`` ids
        by ``(distance to the owner, id)``, prune by Algorithm 4 with
        fill-up, keep ``m`` in selection order.  Events read vectors, never
        the graph, so rows are independent: a round takes every pending
        row's next ``m`` arrivals through :meth:`_replay` — a *window*; the
        ``(m + E)^2 / E`` multiply-adds per event are fewest at ``E = m``.
        """
        rows = self._layers[layer]
        source = self.vectors if embedded is None else embedded
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
                picks = self._replay([target for target, _ in group], pools, m, source)
                # By position: the kept ids stay the int objects the graph shares.
                for (target, _), pool, row in zip(group, pools, picks):
                    rows[target] = [pool[i] for i in row]
            pending = [(target, arrivals[m:]) for target, arrivals in pending if len(arrivals) > m]
        return stats

    def _replay(
        self, owners: List[int], pools: List[List[int]], m: int, source
    ) -> List[List[int]]:
        """Run each pool — a full row's ``m`` ids, then its arrivals, longest
        pool first — through its events; returns the pool positions each row
        keeps, in selection order.

        What an event asks of two ids is computed ahead, ``block_rows`` pools
        at a time: one ``kernel.batch_paired`` over the gathered rows and one
        stacked ``kernel.matrix`` over the same ids gathered from ``source``
        (the build's embedding, or the rows) give each pool's ``(distance,
        id)`` order and its Algorithm-4 table, packed by pool position.  The
        events then run in lockstep over all pools, each a sort of ``m + 1``
        ranks and one scan of the pool positions they name, in rank order,
        against that table.
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
            distances = self.kernel.batch_paired(
                self.vectors[owners[start : start + step]],
                self.vectors[chunk.ravel()],
                np.repeat(np.arange(chunk.shape[0]), width),
            ).reshape(chunk.shape)
            block = source[chunk]
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

    def _insert(self, node: int, level: int) -> None:
        """Link one new node into a built graph, finding its candidates by
        search (:meth:`build` finds them exactly instead)."""
        self._node_level.append(level)
        while len(self._layers) <= level:
            self._layers.append(SparseLayer())
        base = self._layers[0]
        node = base.add_vertex()
        # A node taller than the graph stays unlinked above the old top.
        for layer in range(1, level + 1):
            self._layers[layer][node] = []

        query = self.vectors[node][None]
        starts = [self._entry]
        for layer in range(self._max_level, level, -1):
            starts = self._descend(self.kernel, query, starts, layer)

        ef = self.params.ef_construction
        for layer in range(min(level, self._max_level), -1, -1):
            found = greedy_search_batch(
                self._layers[layer], self.vectors, self.kernel, query,
                k=ef, budget=ef, entry_points=starts,
            )[0]
            (row,) = self._select_passes(
                self.vectors, np.array([found.ids]), np.array([found.distances]),
                np.array([len(found.ids)]),
            )
            neighbors = base.vertex_ids(row[row >= 0].tolist())
            self._layers[layer][node] = neighbors
            self._link(layer, {neighbor: [node] for neighbor in neighbors}, self._cap(layer))
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
    def _descend(self, kernel: DistanceKernel, queries: np.ndarray, currents, layer: int):
        """Every query's greedy walk to its local minimum on one upper layer:
        the beam loop at ``k = budget = 1``, in the caller's span."""
        found, _ = beam_rounds(
            self._layers[layer], self.vectors, kernel, queries, 1, 1,
            [[current] for current in currents],
        )
        return [result.ids[0] for result in found]

    def search_batch(
        self, queries, k: int, budget: int = 64, *, kernel=None, admit=None,
    ):
        """Lockstep descent through the upper layers (the beam loop at
        ``k = budget = 1``, under the ``hnsw-descent`` span), then lockstep
        beam search over layer 0 from each query's own base entry — both
        under the call's kernel."""
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
                currents = self._descend(kernel, queries, currents, layer)
            span.set(base_entries=len(set(currents)))
        return greedy_search_batch(
            self._layers[0],
            self.vectors,
            kernel,
            queries,
            k=k,
            budget=budget,
            entry_points=[[current] for current in currents],
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
        * membership — node present in layer ``l`` iff ``l <= level(node)``,
          and no other member;
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
            cap = self._cap(layer_index)
            for node in range(size):
                present = node in layer
                expected = self._node_level[node] >= layer_index
                if present != expected:
                    raise GraphConstructionError(
                        f"node {node} (level {self._node_level[node]}) "
                        f"{'present' if present else 'missing'} on layer {layer_index}"
                    )
            members = sum(level >= layer_index for level in self._node_level)
            if len(layer) != members:
                raise GraphConstructionError(
                    f"layer {layer_index} has {len(layer)} members, "
                    f"the node levels place {members}"
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
