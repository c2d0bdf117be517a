"""The navigation-graph adjacency structure shared by all graph indexes."""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

import numpy as np

from repro.errors import GraphConstructionError


class SparseLayer(dict):
    """Neighbour rows of a *subset* of the vertices, ``{vertex: row}`` — an
    HNSW layer above the base.  The search loop walks it through the same
    :meth:`neighbors` call as a :class:`NavigationGraph`; a vertex outside
    the layer is a ``KeyError``, never a planted row."""

    __slots__ = ()
    neighbors = dict.__getitem__


class NavigationGraph(Mapping):
    """A directed graph over vertex ids ``0..n-1`` with bounded out-degree.

    Vertices correspond to objects; an edge ``u -> v`` records that ``v`` is
    among ``u``'s selected near neighbours.  The structure is deliberately
    minimal — neighbour lists plus entry points — because that is the whole
    runtime contract of a navigation graph.

    It owns the row format: one int object per vertex (a table
    :meth:`add_vertex` grows), which every row stores, so an edge costs a
    pointer.  It reads as the mapping ``{vertex: row}`` a
    :class:`SparseLayer` is, so HNSW links a dense base layer and a sparse
    upper one alike; ``graph[vertex] = row`` stores a row of
    :meth:`vertex_ids` as given.
    """

    def __init__(self, n_vertices: int, max_degree: int) -> None:
        if n_vertices <= 0:
            raise GraphConstructionError(f"graph needs >= 1 vertex, got {n_vertices}")
        if max_degree <= 0:
            raise GraphConstructionError(f"max_degree must be positive, got {max_degree}")
        self.n_vertices = n_vertices
        self.max_degree = max_degree
        self._ids: List[int] = list(range(n_vertices))
        self._neighbors: List[List[int]] = [[] for _ in range(n_vertices)]
        self.entry_points: List[int] = [0]

    def neighbors(self, vertex: int) -> List[int]:
        """Out-neighbours of ``vertex``."""
        return self._neighbors[vertex]

    __getitem__ = neighbors

    def __setitem__(self, vertex: int, row: List[int]) -> None:
        self._neighbors[vertex] = row

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def __len__(self) -> int:
        return self.n_vertices

    def __contains__(self, vertex: int) -> bool:
        return 0 <= vertex < self.n_vertices

    def vertex_ids(self, vertices: Iterable[int]) -> List[int]:
        """The graph's int object for each of ``vertices`` (valid ids)."""
        return list(map(self._ids.__getitem__, vertices))

    def add_vertex(self) -> int:
        """Grow the graph by one isolated vertex; returns its id."""
        self._ids.append(self.n_vertices)
        self._neighbors.append([])
        self.n_vertices += 1
        return self._ids[-1]

    def set_neighbors(self, vertex: int, neighbors: Sequence[int]) -> None:
        """Replace ``vertex``'s neighbour list: first occurrences of the
        valid ids other than ``vertex``, trimmed to max_degree."""
        unique = dict.fromkeys(map(int, neighbors))
        valid = [v for v in unique if v != vertex and 0 <= v < self.n_vertices]
        self._neighbors[vertex] = self.vertex_ids(valid[: self.max_degree])

    def add_edge(self, source: int, target: int) -> bool:
        """Append edge if absent and capacity remains; True when added."""
        if source == target or not 0 <= target < self.n_vertices:
            return False
        row = self._neighbors[source]
        if target in row or len(row) >= self.max_degree:
            return False
        row.append(self._ids[target])
        return True

    def set_arrays(self, offsets: np.ndarray, targets: np.ndarray) -> None:
        """Replace every row from CSR arrays (:meth:`to_arrays`' form),
        taken as given: valid, distinct ids within ``max_degree``.  Each
        row is a slice, allocated at its length."""
        flat = self.vertex_ids(targets)
        bounds = np.asarray(offsets).tolist()
        self._neighbors = [flat[start:stop] for start, stop in zip(bounds, bounds[1:])]

    @property
    def edge_count(self) -> int:
        """Total number of directed edges."""
        return sum(map(len, self._neighbors))

    @property
    def average_degree(self) -> float:
        """Mean out-degree."""
        return self.edge_count / self.n_vertices

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def _expand(self, sources: Iterable[int], reached: List[bool], order: List[int]) -> None:
        """Append to ``order``, breadth-first, what ``sources`` reach beyond
        ``reached``, marking it: calls sharing ``reached`` visit each
        vertex and edge once in all."""
        head = len(order)
        for source in sources:
            if not reached[source]:
                reached[source] = True
                order.append(self._ids[source])
        while head < len(order):
            for neighbor in self._neighbors[order[head]]:
                if not reached[neighbor]:
                    reached[neighbor] = True
                    order.append(neighbor)
            head += 1

    def reachable_from(self, sources: Iterable[int]) -> Set[int]:
        """All vertices reachable from ``sources`` by directed edges."""
        order: List[int] = []
        self._expand(sources, [False] * self.n_vertices, order)
        return set(order)

    def is_connected(self) -> bool:
        """True when every vertex is reachable from the entry points."""
        return len(self.reachable_from(self.entry_points)) == self.n_vertices

    def connect_unreachable(self) -> int:
        """Make every vertex reachable from the entry points in one linear
        pass; returns the number of edges written.

        Each vertex the entry points do not reach, in id order, gets an
        edge from the first reached vertex, in visit order, with a spare
        slot, and what it reaches is marked from it alone.  When every
        reached vertex is full, the next one in visit order gives up its
        last edge ``d -> t`` for ``d -> v``, and ``v`` takes ``t`` (in its
        last slot when full): ``v`` was on no path, so nothing reached is
        orphaned and reachability is never recomputed.
        """
        rows, ids, cap = self._neighbors, self._ids, self.max_degree
        reached = [False] * self.n_vertices
        order: List[int] = []
        self._expand(self.entry_points, reached, order)
        spare = donor = written = 0
        for vertex in range(self.n_vertices):
            if reached[vertex]:
                continue
            while spare < len(order) and len(rows[order[spare]]) >= cap:
                spare += 1
            if spare < len(order):
                rows[order[spare]].append(ids[vertex])
            else:
                source, row = rows[order[donor]], rows[vertex]
                donor += 1
                target, source[-1] = source[-1], ids[vertex]
                if target not in row:
                    row[cap - 1 :] = [target]  # appended, or the last slot when full
                    written += 1
            written += 1
            self._expand((vertex,), reached, order)
        return written

    def degree_histogram(self) -> Dict[int, int]:
        """Mapping out-degree -> vertex count (for diagnostics and tests)."""
        return dict(Counter(map(len, self._neighbors)))

    def to_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Flatten adjacency to (offsets, targets) CSR-style arrays."""
        offsets = np.cumsum([0, *map(len, self._neighbors)], dtype=np.int64)
        targets = np.fromiter(chain.from_iterable(self._neighbors), np.int64, int(offsets[-1]))
        return offsets, targets
