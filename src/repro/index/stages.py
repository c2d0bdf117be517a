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
* ``stage_stats`` — counters a candidate or selection stage leaves for its
  ``build-candidates`` / ``build-selection`` span, which takes them.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.errors import GraphConstructionError
from repro.index.graph import NavigationGraph
from repro.utils import derive_rng

StageFn = Callable[[Dict[str, Any]], Any]


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
        n = context["vectors"].shape[0]
        return NavigationGraph(n, max_degree=max_degree)

    return stage


def init_random_regular(max_degree: int, out_degree: int, seed: int = 0) -> StageFn:
    """Start from a random ``out_degree``-regular graph (Vamana-style)."""
    if out_degree > max_degree:
        raise GraphConstructionError(
            f"out_degree {out_degree} exceeds max_degree {max_degree}"
        )

    def stage(context: Dict[str, Any]) -> NavigationGraph:
        n = context["vectors"].shape[0]
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
#: Bytes one block of candidate rows may gather at once, and one scan pass's
#: occlusion tables may hold packed at a bit per entry.  Build scratch is
#: transient, but peak RSS is a high-water mark, so both sizes are memory
#: decisions: the ``(rows, width, dim)`` gather, its scaled copy and the
#: pairwise stack together stay around a few of these, and a pass is as
#: many whole blocks as its ``(rows, width, words)`` ``uint64`` table fits
#: (512 rows at ``width`` 80).
_SCRATCH_BYTES = 640 * 1024

#: Columns pre-selected beyond ``k`` by the GEMM distances in
#: :func:`exact_top_k`, so their rounding never decides which ``k`` survive
#: the exact re-scoring.
_PRESELECT_MARGIN = 8


def block_rows(width: int, dim: int) -> int:
    """Rows per block whose ``(rows, width, dim)`` float64 gather fits
    :data:`_SCRATCH_BYTES`."""
    return max(1, _SCRATCH_BYTES // (8 * max(1, width) * dim))


def packed_words(width: int) -> int:
    """``uint64`` words holding one bit per candidate of a ``width``-row."""
    return -(-width // 64)


def pass_rows(width: int) -> int:
    """Rows per scan pass whose packed ``(rows, width, words)`` table fits
    :data:`_SCRATCH_BYTES`."""
    return max(1, _SCRATCH_BYTES // (8 * packed_words(width) * max(1, width)))


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
        vectors = context["vectors"]
        kernel = context["kernel"]
        n, dim = vectors.shape
        neighbors_k = min(k, n - 1)
        rows = block_rows(neighbors_k, dim)
        result: List[List[int]] = []
        for start in range(0, n, rows):
            ids, _ = exact_top_k(kernel, vectors, start, min(start + rows, n), neighbors_k)
            result.extend(ids.tolist())
        context["stage_stats"] = {"blocks": -(-n // rows)}
        return result

    return stage


# ----------------------------------------------------------------------
# 3. neighbour selection
# ----------------------------------------------------------------------
def pack_table(dominated: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
    """An ``(R, W, O)`` boolean occlusion table as bits along its last axis:
    bit ``o % 64`` of little-endian word ``o // 64`` of ``out[r, j]`` is
    ``dominated[r, j, o]``.  ``out`` — ``(R, W, words)`` ``uint64``, zero
    beyond the table, e.g. a slice of a wider pass — is written and
    returned; without it a fitting one is made."""
    n_rows, width, occluders = dominated.shape
    if out is None:
        out = np.zeros((n_rows, width, packed_words(occluders)), dtype="<u8")
    bits = np.packbits(dominated, axis=-1, bitorder="little")
    out.view(np.uint8)[..., : bits.shape[-1]] = bits
    return out


def occlusion_scan(
    packed: np.ndarray,
    max_degree: int,
    eligible: "np.ndarray | None" = None,
    columns: "np.ndarray | None" = None,
) -> np.ndarray:
    """The sequential occlusion rule for ``R`` ranked candidate rows at once.

    ``packed`` is the occlusion table as :func:`pack_table` stores it: bit
    ``o`` of ``packed[r, j]`` says candidate ``j`` of row ``r`` is dropped
    once candidate ``o`` is selected; what fills it — :func:`mrng_rule` or
    :func:`alpha_rng_rule` — is all that differs between NSG's, HNSW's and
    Vamana's selection.  Row ``r`` visits its entries ``columns[r]`` ``(R,
    C)`` in that order (by default all ``W``, in order) and selects at most
    ``max_degree`` of them, none where ``eligible`` ``(R, C)`` is false.
    The rule is sequential in the candidates but not in the rows, so it
    runs column by column over all rows, each step one AND of a column's
    words against the bits selected so far: as cheap at the last column as
    at the first.  The cap is applied afterwards — a row's first
    ``max_degree`` selections do not depend on what it would select past
    them.  Returns the ``(R, C)`` mask of selected visits.
    """
    n_rows, width, words = packed.shape
    if columns is None:
        entries = packed.transpose(1, 2, 0)
        positions = np.arange(width)[:, None, None]
    else:
        entries = packed[np.arange(n_rows)[:, None], columns].transpose(1, 2, 0)
        positions = columns.T[:, None, :]
    # bit[c, w, r]: what selecting visit c of row r sets in word w.
    bit = np.where(
        positions >> 6 == np.arange(words)[:, None],
        np.left_shift(np.uint64(1), (positions & 63).astype(np.uint64)),
        np.uint64(0),
    )
    chosen = np.zeros((words, n_rows), dtype=np.uint64)
    hit = np.empty(n_rows, dtype=np.uint64)
    selected = np.empty((entries.shape[0], n_rows), dtype=bool)
    for column, entry in enumerate(entries):
        np.bitwise_and(entry[0], chosen[0], out=hit)
        for word in range(1, words):
            hit |= entry[word] & chosen[word]
        keep = np.equal(hit, 0, out=selected[column])
        if eligible is not None:
            keep &= eligible[:, column]
        np.bitwise_or(chosen, bit[column], out=chosen, where=keep)
    selected = selected.T
    # A count never exceeds the row's visits: the narrowest type holds it.
    counts = np.cumsum(selected, axis=1, dtype=np.min_scalar_type(selected.shape[1]))
    return selected & (counts <= max_degree)


def mrng_rule(pairwise: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """Monotonic-RNG occlusion (NSG, HNSW's Algorithm 4): dropped when a
    selected candidate is strictly closer to it than its owner is."""
    return pairwise < distances[:, :, None]


def alpha_rng_rule(alpha: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Vamana's occlusion: dropped when ``alpha`` times the distance to a
    selected candidate is within the owner's — ``alpha > 1`` drops fewer,
    so longer edges survive."""
    return lambda pairwise, distances: alpha * pairwise <= distances[:, :, None]


def prune_rows(
    kernel, vectors: np.ndarray, owners: np.ndarray, pools: List[List[int]],
    max_degree: int, rule,
) -> Tuple[List[List[int]], int]:
    """Occlusion-prune pool ``i`` — vertex ids, the owner's own not among
    them — for the vector ``owners[i]``, to ``max_degree`` ids, nearest first.

    Rows go widest first into blocks whose gather and pairwise stack fit
    :data:`_SCRATCH_BYTES`, each padded to its widest row.  Per block: one
    gather, one ``kernel.batch_paired`` (padding scores ``inf``), a
    ``(distance, id)`` lexsort — ties never depend on pool order, and a
    repeated id ranks beside its copy and is skipped — one stacked
    ``kernel.matrix``, its table packed into the pass.  Per pass — the
    blocks whose packed tables fit :data:`_SCRATCH_BYTES` at the width of
    the first — one :func:`occlusion_scan`.  A row's result depends on
    neither its block nor its pass.  Returns the pruned lists in input
    order and the number of blocks they took.
    """
    widths = [len(pool) for pool in pools]
    order = [i for i in sorted(range(len(pools)), key=lambda i: -widths[i]) if widths[i]]
    result: List[List[int]] = [[] for _ in pools]
    blocks = start = 0
    while start < len(order):
        # A pass's first block is its widest and fits: pass_rows >= block_rows.
        width, first = widths[order[start]], start
        rows = min(pass_rows(width), len(order) - start)
        ids = np.full((rows, width), -1, dtype=np.intp)
        packed = np.zeros((rows, width, packed_words(width)), dtype="<u8")
        # A block's arrays stay bound until the next block's replace them:
        # freed at the block's end, the heap top goes back to the system and
        # is faulted in again every block (twice the page faults at 2000 rows).
        while start < len(order):
            block_width = widths[order[start]]
            stop = start + block_rows(block_width, max(vectors.shape[1], block_width))
            members = order[start:stop]
            at = slice(start - first, start - first + len(members))
            if at.stop > rows:
                break
            start += len(members)
            blocks += 1
            padded = np.full((len(members), block_width), -1, dtype=np.intp)
            for row, member in enumerate(members):
                padded[row, : widths[member]] = pools[member]
            distances = kernel.batch_paired(
                owners[members],
                vectors[np.maximum(padded, 0).ravel()],
                np.repeat(np.arange(len(members)), block_width),
            ).reshape(padded.shape)
            distances[padded < 0] = np.inf
            rank = np.lexsort((padded, distances))
            ids[at, :block_width] = ranked_ids = np.take_along_axis(padded, rank, axis=1)
            # Gathered again in rank order rather than permuted: one
            # (rows, width, dim) copy alive at a time.
            ranked = vectors[np.maximum(ranked_ids, 0)]
            pack_table(
                rule(kernel.matrix(ranked, ranked), np.take_along_axis(distances, rank, axis=1)),
                out=packed[at, :block_width],
            )
        ids = ids[: start - first]
        eligible = ids >= 0
        eligible[:, 1:] &= ids[:, 1:] != ids[:, :-1]
        selected = occlusion_scan(packed[: start - first], max_degree, eligible)
        for member, row, keep in zip(order[first:start], ids, selected):
            result[member] = row[keep].tolist()
    return result, blocks


def robust_prune(
    query_vector: np.ndarray, pool: List[int], vectors: np.ndarray, kernel,
    max_degree: int, alpha: float = 1.2,
) -> List[int]:
    """Vamana's alpha-relaxed RNG selection over one candidate pool: the
    one-row call of :func:`prune_rows`, which incremental insertion uses."""
    owner = np.asarray(query_vector, dtype=np.float64)[None, :]
    return prune_rows(kernel, vectors, owner, [pool], max_degree, alpha_rng_rule(alpha))[0][0]


def _select(max_degree: int, rule, keep_neighbors: bool, add_reverse: bool) -> StageFn:
    """Selection in two batched phases, so the graph does not depend on
    the order vertices are processed in.  *Forward*: every vertex's pool —
    its candidates, with ``keep_neighbors`` also the neighbours it has —
    through :func:`prune_rows`.  *Reverse* (``add_reverse``): each selected
    edge ``v -> u`` that ``u`` does not return is grouped by its target; a
    target with room for all its incoming edges appends them in id order,
    any other is pruned **once** over its row plus everything incoming.
    """

    def stage(context: Dict[str, Any]) -> NavigationGraph:
        vectors = context["vectors"]
        kernel = context["kernel"]
        graph: NavigationGraph = context["graph"]
        pools = [
            [p for p in pool + (graph.neighbors(v) if keep_neighbors else []) if p != v]
            for v, pool in enumerate(context["candidates"])
        ]
        rows, blocks = prune_rows(kernel, vectors, vectors, pools, max_degree, rule)
        stats = {"forward_rows": len(rows)}
        if add_reverse:
            incoming: Dict[int, List[int]] = {}
            for vertex, row in enumerate(rows):
                for target in row:
                    if vertex not in rows[target]:
                        incoming.setdefault(target, []).append(vertex)
            merged = {t: rows[t] + sources for t, sources in incoming.items()}
            over = [t for t, row in merged.items() if len(row) > max_degree]
            pruned, reverse_blocks = prune_rows(
                kernel, vectors, vectors[over], [merged[t] for t in over], max_degree, rule
            )
            blocks += reverse_blocks
            stats["reverse_appended"] = sum(
                len(sources) for t, sources in incoming.items() if len(merged[t]) <= max_degree
            )
            stats["reverse_pruned_rows"] = len(over)
            merged.update(zip(over, pruned))
            for target, row in merged.items():
                rows[target] = row
        for vertex, row in enumerate(rows):
            graph.set_neighbors(vertex, row)
        context["stage_stats"] = {**stats, "blocks": blocks}
        return graph

    return stage


def select_mrng(max_degree: int) -> StageFn:
    """Monotonic-RNG edge selection (NSG's rule).

    A candidate is linked only if no already-selected neighbour is closer to
    it than the vertex itself, producing sparse monotonic paths.
    """
    return _select(max_degree, mrng_rule, keep_neighbors=False, add_reverse=False)


def select_alpha_rng(max_degree: int, alpha: float = 1.2, add_reverse: bool = True) -> StageFn:
    """Vamana's robust prune: relaxed RNG rule with slack ``alpha``.

    ``alpha > 1`` keeps longer-range edges than the strict RNG rule, giving
    the flatter graphs DiskANN favours for few-hop disk traversals.  The
    vertex's initial neighbours join its pool (the long edges come from
    them) and with ``add_reverse`` each selected edge is mirrored, the
    target re-pruned when over capacity — in :func:`_select`'s two phases,
    not DiskANN's vertex-by-vertex passes (see :mod:`repro.index.vamana`).
    """
    if alpha < 1.0:
        raise GraphConstructionError(f"alpha must be >= 1.0, got {alpha}")
    return _select(max_degree, alpha_rng_rule(alpha), keep_neighbors=True, add_reverse=add_reverse)


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
        graph.entry_points = [medoid_of(context["vectors"], context["kernel"])]
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
