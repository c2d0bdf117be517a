"""Starling-style disk-resident graph index with simulated block I/O.

Starling (Wang et al., SIGMOD 2024) stores graph segments on disk and cuts
I/O by *shuffling* vertices into blocks so that graph neighbours share
blocks — a search that hops along edges then finds many hops already paid
for.  Real NVMe hardware is unavailable here, so :class:`BlockDevice`
models the disk: vectors live in fixed-size blocks, reads are counted, and
a small LRU cache plays the role of the in-memory buffer pool.  The
experiment E4 compares block reads under the shuffled layout vs a naive
id-order layout — the paper's headline I/O-amplification effect.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.distance.kernel import DistanceKernel
from repro.errors import ConfigurationError, SearchError
from repro.index.base import SearchResult, VectorIndex
from repro.index.graph import NavigationGraph
from repro.index.search import greedy_search_batch
from repro.index.tiered import TieredParams, TieredStore
from repro.index.vamana import VamanaIndex, VamanaParams
from repro.observability import trace_span
from repro.utils import check_fields, param


class BlockDevice:
    """A counted, cached block store mapping vertices to disk blocks.

    Args:
        assignment: ``assignment[vertex]`` is the block holding that vertex.
        cache_blocks: LRU capacity in blocks (0 disables caching).
    """

    def __init__(self, assignment: List[int], cache_blocks: int = 8) -> None:
        if cache_blocks < 0:
            raise ConfigurationError(f"cache_blocks must be >= 0, got {cache_blocks}")
        self._assignment = list(assignment)
        self.cache_blocks = cache_blocks
        self._cache: "OrderedDict[int, None]" = OrderedDict()
        self._lock = threading.Lock()
        self.block_reads = 0
        self.cache_hits = 0

    @property
    def n_blocks(self) -> int:
        """Number of distinct blocks in the layout."""
        return max(self._assignment) + 1 if self._assignment else 0

    def block_of(self, vertex: int) -> int:
        """The block holding ``vertex``."""
        return self._assignment[vertex]

    def access(self, vertex: int) -> bool:
        """Record an access to ``vertex``'s block (read or cache hit).

        Returns ``True`` for a block read, ``False`` for a cache hit, so a
        caller can attribute exactly its own charges even while other
        searches share the device — reading the global counters before and
        after is wrong under concurrency.  The cache update itself runs
        under a lock for the same reason.
        """
        block = self._assignment[vertex]
        with self._lock:
            if block in self._cache:
                self.cache_hits += 1
                self._cache.move_to_end(block)
                return False
            self.block_reads += 1
            if self.cache_blocks:
                self._cache[block] = None
                if len(self._cache) > self.cache_blocks:
                    self._cache.popitem(last=False)
            return True

    def extend(self, block: int) -> None:
        """Assign a newly inserted vertex to ``block``."""
        if block < 0:
            raise ConfigurationError(f"block must be >= 0, got {block}")
        self._assignment.append(block)

    def reset(self) -> None:
        """Clear counters and cache (between measured searches)."""
        with self._lock:
            self._cache.clear()
            self.block_reads = 0
            self.cache_hits = 0


@dataclass(frozen=True)
class StarlingParams:
    """Starling layout and inner-graph parameters.

    Attributes:
        block_size: Vertices per disk block.
        cache_blocks: Buffer-pool capacity in blocks.
        shuffled: Use the neighbour-packing layout (False = naive id order,
            the ablation baseline).
        inner: Parameters for the underlying Vamana graph.
        tiered: Beyond-RAM serving mode: quantized codes resident for
            traversal, full precision memory-mapped and touched only by
            the rerank pass.  ``None`` (the default) keeps the classic
            all-in-RAM Starling behaviour, bit-identical to before the
            tiered store existed.
    """

    block_size: int = param(16, ge=1)
    cache_blocks: int = param(8, ge=0)
    shuffled: bool = True
    inner: VamanaParams = VamanaParams()
    tiered: Optional[TieredParams] = None

    def __post_init__(self) -> None:
        check_fields(self)


class StarlingIndex(VectorIndex):
    """Disk-resident navigation graph with a block-aware layout."""

    name = "starling"

    def __init__(self, params: StarlingParams = StarlingParams()) -> None:
        super().__init__()
        self.params = params
        self._inner = VamanaIndex(params.inner)
        self.insertion = self._inner.insertion
        self.device: Optional[BlockDevice] = None
        self.tiered: Optional[TieredStore] = None
        self._insert_fill = 0

    @property
    def graph(self) -> NavigationGraph:
        """The underlying navigation graph."""
        if self._inner.graph is None:
            raise SearchError("starling index has not been built")
        return self._inner.graph

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def _naive_layout(self, n: int) -> List[int]:
        return [vertex // self.params.block_size for vertex in range(n)]

    def _shuffled_layout(self, graph: NavigationGraph) -> List[int]:
        """Greedy neighbour packing: BFS from the entry point fills each
        block with a vertex and as many of its graph neighbours as fit,
        so one block read prefetches the vertices a traversal needs next.
        """
        n = graph.n_vertices
        assignment = [-1] * n
        block = 0
        filled = 0
        ordering: List[int] = []
        seen = set()
        stack = list(graph.entry_points)
        while stack or len(seen) < n:
            if not stack:
                stack.append(next(v for v in range(n) if v not in seen))
            vertex = stack.pop()
            if vertex in seen:
                continue
            seen.add(vertex)
            ordering.append(vertex)
            for neighbor in reversed(graph.neighbors(vertex)):
                if neighbor not in seen:
                    stack.append(neighbor)
        for vertex in ordering:
            assignment[vertex] = block
            filled += 1
            if filled == self.params.block_size:
                block += 1
                filled = 0
        return assignment

    # ------------------------------------------------------------------
    # VectorIndex interface
    # ------------------------------------------------------------------
    def build(self, vectors: np.ndarray, kernel: DistanceKernel) -> None:
        start = time.perf_counter()
        self._insert_fill = 0
        self.tiered = None
        self._inner.build(vectors, kernel)
        self._vectors = self._inner.vectors
        self._kernel = kernel
        graph = self._inner.graph
        assert graph is not None
        if self.params.tiered is not None:
            # Tiered mode: the spill file's row-major block layout becomes
            # THE device — traversal runs over resident codes and costs no
            # block I/O at all; only rerank reads charge it.
            self.tiered = TieredStore(self.params.tiered)
            self.tiered.build(self._inner.vectors)
            self._inner._vectors = self.tiered.vectors
            self._vectors = self.tiered.vectors
            self.device = self.tiered.device
        else:
            if self.params.shuffled:
                assignment = self._shuffled_layout(graph)
            else:
                assignment = self._naive_layout(graph.n_vertices)
            self.device = BlockDevice(
                assignment, cache_blocks=self.params.cache_blocks
            )
        self.build_seconds = time.perf_counter() - start

    def add(self, vector: np.ndarray) -> int:
        """Insert into the inner graph; new vertices fill fresh blocks.

        Tiered, the row goes to the store first and the inner graph then
        links it where it lies: the views are re-pointed (the spill file may
        have been remapped while growing), never copied, so an insert reads
        only the rows its search and prune touch.
        """
        self._require_built()
        assert self.device is not None
        if self.tiered is not None:
            vertex = self.tiered.add(vector)
            self._inner._vectors = self._vectors = self.tiered.vectors
            self._inner._link_row(vertex)
        else:
            vertex = self._inner.add(vector)
            self._vectors = self._inner.vectors
            block = self.device.n_blocks
            if self._insert_fill % self.params.block_size != 0:
                block -= 1
            self.device.extend(block)
        self._insert_fill += 1
        return vertex

    def search_batch(
        self, queries, k: int, budget: int = 64, *, kernel=None, admit=None,
        use_pruning: bool = False,
    ):
        """Lockstep search over the disk-resident graph, under the call's
        kernel on either path.

        Ids and distances of a row do not depend on the rest of the batch.
        Block accesses are charged to the shared device in lockstep
        (interleaved) order, so per-query ``block_reads``/``cache_hits``
        describe this batch's cache timeline rather than replaying each
        query against a cold interleaving — totals are exact, the split is
        attributed per beam via the visit hook.
        """
        self._require_built()
        assert self.device is not None
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n_queries = queries.shape[0]
        if n_queries == 0:
            return []
        kernel = self._search_kernel(kernel)
        if self.tiered is not None:
            return self._search_batch_tiered(
                queries, k, budget, kernel, admit, use_pruning
            )
        reads = [0] * n_queries
        hits = [0] * n_queries
        device = self.device

        # Charge through the access return value rather than reading the
        # device counters before/after: the device is shared, so deltas
        # would also swallow whatever concurrent searches charged.
        def charge(beam: int, vertex: int) -> None:
            if device.access(vertex):
                reads[beam] += 1
            else:
                hits[beam] += 1

        with trace_span(
            "block-io",
            blocks=device.n_blocks,
            layout="shuffled" if self.params.shuffled else "naive",
            queries=n_queries,
        ) as span:
            results = greedy_search_batch(
                self.graph,
                self.vectors,
                kernel,
                queries,
                k=k,
                budget=budget,
                use_pruning=use_pruning,
                visit_hook=charge,
                admit=admit,
            )
            for i, result in enumerate(results):
                result.stats.block_reads = reads[i]
                result.stats.cache_hits = hits[i]
            span.set(block_reads=sum(reads), cache_hits=sum(hits))
        return results

    def _search_batch_tiered(self, queries, k, budget, kernel, admit, use_pruning):
        """Lockstep traversal over the resident codes, then per-query exact
        rerank of the top-k' at full precision, both under ``kernel``.

        Rerank reads charge the shared mmap device query by query, so the
        device totals are exact for the batch and each query's counters
        are exactly its own rerank charges.
        """
        assert self.tiered is not None
        fetch = max(k * self.tiered.params.rerank_factor, k)
        with trace_span(
            "block-io",
            blocks=self.device.n_blocks,
            layout="tiered",
            bits=self.tiered.params.bits,
            rerank=fetch,
            queries=queries.shape[0],
        ) as span:
            results = greedy_search_batch(
                self.graph,
                self.tiered.decoded,
                kernel,
                queries,
                k=fetch,
                budget=budget,
                use_pruning=use_pruning,
                admit=admit,
            )
            total_reads = 0
            total_hits = 0
            for i, result in enumerate(results):
                ids, distances, reads, hits = self.tiered.rerank(
                    queries[i], kernel, result.ids, k
                )
                result.ids = ids
                result.distances = distances
                result.stats.block_reads = reads
                result.stats.cache_hits = hits
                total_reads += reads
                total_hits += hits
            span.set(block_reads=total_reads, cache_hits=total_hits)
        return results

    def io_amplification(self, result: SearchResult) -> float:
        """Blocks read per distance evaluation for one search."""
        if not result.stats.distance_evaluations:
            return 0.0
        return result.stats.block_reads / result.stats.distance_evaluations

    def describe(self) -> str:
        base = super().describe()
        if self.tiered is not None:
            snap = self.tiered.snapshot()
            base += (
                f", tiered sq{snap['bits']} "
                f"({snap['resident_bytes']} B resident / "
                f"{snap['full_bytes']} B spilled, rerank x{snap['rerank_factor']})"
            )
        elif self.device is not None:
            layout = "shuffled" if self.params.shuffled else "naive"
            base += (
                f", {self.device.n_blocks} blocks of {self.params.block_size} "
                f"({layout} layout, cache {self.params.cache_blocks})"
            )
        return base
