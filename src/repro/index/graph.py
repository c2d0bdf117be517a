"""The navigation-graph adjacency structure shared by all graph indexes."""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
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

    It also reads as the mapping ``{vertex: row}`` a :class:`SparseLayer`
    is, so HNSW links a dense base layer and a sparse upper one alike;
    ``graph[vertex] = row`` stores the list as given (shared int objects),
    :meth:`set_neighbors` dedups, range-checks and trims.
    """

    def __init__(self, n_vertices: int, max_degree: int) -> None:
        if n_vertices <= 0:
            raise GraphConstructionError(f"graph needs >= 1 vertex, got {n_vertices}")
        if max_degree <= 0:
            raise GraphConstructionError(f"max_degree must be positive, got {max_degree}")
        self.n_vertices = n_vertices
        self.max_degree = max_degree
        self._neighbors: List[List[int]] = [[] for _ in range(n_vertices)]
        self.entry_points: List[int] = [0]

    def neighbors(self, vertex: int) -> List[int]:
        """Out-neighbours of ``vertex``."""
        return self._neighbors[vertex]

    __getitem__ = neighbors

    def __setitem__(self, vertex: int, row: List[int]) -> None:
        self._neighbors[vertex] = row

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n_vertices))

    def __len__(self) -> int:
        return self.n_vertices

    def __contains__(self, vertex: int) -> bool:
        return 0 <= vertex < self.n_vertices

    def add_vertex(self) -> int:
        """Grow the graph by one isolated vertex; returns its id."""
        self._neighbors.append([])
        self.n_vertices += 1
        return self.n_vertices - 1

    def set_neighbors(self, vertex: int, neighbors: Sequence[int]) -> None:
        """Replace ``vertex``'s neighbour list (trimmed to max_degree)."""
        unique: List[int] = []
        seen: Set[int] = {vertex}
        for neighbor in neighbors:
            neighbor = int(neighbor)
            if neighbor not in seen and 0 <= neighbor < self.n_vertices:
                unique.append(neighbor)
                seen.add(neighbor)
            if len(unique) == self.max_degree:
                break
        self._neighbors[vertex] = unique

    def add_edge(self, source: int, target: int) -> bool:
        """Append edge if absent and capacity remains; True when added."""
        if source == target or not 0 <= target < self.n_vertices:
            return False
        row = self._neighbors[source]
        if target in row or len(row) >= self.max_degree:
            return False
        row.append(target)
        return True

    @property
    def edge_count(self) -> int:
        """Total number of directed edges."""
        return sum(len(row) for row in self._neighbors)

    @property
    def average_degree(self) -> float:
        """Mean out-degree."""
        return self.edge_count / self.n_vertices

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def reachable_from(self, sources: Iterable[int]) -> Set[int]:
        """All vertices reachable from ``sources`` by directed edges."""
        visited: Set[int] = set()
        queue = deque(int(s) for s in sources)
        while queue:
            vertex = queue.popleft()
            if vertex in visited:
                continue
            visited.add(vertex)
            for neighbor in self._neighbors[vertex]:
                if neighbor not in visited:
                    queue.append(neighbor)
        return visited

    def is_connected(self) -> bool:
        """True when every vertex is reachable from the entry points."""
        return len(self.reachable_from(self.entry_points)) == self.n_vertices

    def connect_unreachable(self, order: "Sequence[int] | None" = None) -> int:
        """Attach unreachable vertices so the graph becomes navigable.

        Each unreachable vertex gets an edge from a reachable vertex with
        spare capacity; when every reachable vertex is full, the most
        recently attached vertex donates its last edge slot.  Displacing an
        edge can orphan its old target, so reachability is recomputed and
        orphans are revisited in later passes until the graph is connected
        (bounded by ``n_vertices`` passes).  Returns the number of repair
        edges added.
        """
        added = 0
        donor = self.entry_points[0]
        pool = list(order) if order is not None else list(range(self.n_vertices))
        for _ in range(self.n_vertices + 1):
            reachable = self.reachable_from(self.entry_points)
            if len(reachable) == self.n_vertices:
                break
            for vertex in pool:
                if vertex in reachable:
                    continue
                spare = next(
                    (
                        u
                        for u in reachable
                        if len(self._neighbors[u]) < self.max_degree
                    ),
                    None,
                )
                if spare is None:
                    spare = donor if donor in reachable else self.entry_points[0]
                    self._neighbors[spare] = self._neighbors[spare][
                        : self.max_degree - 1
                    ]
                self._neighbors[spare].append(vertex)
                donor = vertex
                added += 1
                # Attaching the vertex exposes its own out-edges, and a
                # displacement may have orphaned an old target.
                reachable = self.reachable_from(self.entry_points)
        return added

    def degree_histogram(self) -> Dict[int, int]:
        """Mapping out-degree -> vertex count (for diagnostics and tests)."""
        histogram: Dict[int, int] = {}
        for row in self._neighbors:
            histogram[len(row)] = histogram.get(len(row), 0) + 1
        return histogram

    def to_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Flatten adjacency to (offsets, targets) CSR-style arrays."""
        offsets = np.zeros(self.n_vertices + 1, dtype=np.int64)
        for i, row in enumerate(self._neighbors):
            offsets[i + 1] = offsets[i] + len(row)
        targets = np.zeros(int(offsets[-1]), dtype=np.int64)
        for i, row in enumerate(self._neighbors):
            targets[offsets[i] : offsets[i + 1]] = row
        return offsets, targets
