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
* ``embedded`` — ``kernel.embed(vectors)``, made by the first stage that
  gathers stacked blocks (:func:`embedded_corpus`) and shared by the rest;
  it goes with the context when the build ends.
* ``graph`` — the evolving :class:`NavigationGraph` (after init).
* ``candidates`` — one ``(n, k)`` ``int32`` id array, row ``v`` vertex
  ``v``'s candidates, ``-1`` padding a short row (after acquisition; a stage
  that returns id lists has them padded into one).  Selection takes it out
  of the context: once its pools are made, nothing holds it.
* ``stage_stats`` — counters a candidate or selection stage leaves for its
  ``build-candidates`` / ``build-selection`` span, which takes them.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.errors import GraphConstructionError
from repro.index.graph import NavigationGraph
from repro.utils import SCRATCH_BYTES, derive_rng

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
#: occlusion tables may hold packed at a bit per entry: set-up's one scratch
#: budget, :data:`repro.utils.SCRATCH_BYTES` (the same object).  Build
#: scratch is transient, but peak RSS is a high-water mark, so both sizes
#: are memory decisions: the ``(rows, width, dim)`` gather (of the build's
#: embedding, already scaled), the ``2.0 *`` copy ``kernel.matrix``
#: multiplies and the pairwise stack together stay around a few of these,
#: and a pass is as many whole blocks as its ``(rows, width, words)``
#: ``uint64`` table fits (512 rows at ``width`` 80).
_SCRATCH_BYTES = SCRATCH_BYTES

#: Columns pre-selected beyond ``k`` by the GEMM distances in
#: :func:`exact_top_k`, so their rounding never decides which ``k`` survive
#: the exact re-scoring.
_PRESELECT_MARGIN = 8


def embedded_corpus(context: Dict[str, Any]):
    """The build's corpus as ``kernel.matrix`` takes it: embedded on first
    use, then the same object for every later stage of the build."""
    if "embedded" not in context:
        context["embedded"] = context["kernel"].embed(context["vectors"])
    return context["embedded"]


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
    kernel, vectors: np.ndarray, start: int, stop: int, k: int, earlier_only: bool = False,
    embedded=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The exact ``k`` nearest rows of ``vectors`` for each row of one block.

    Row ``i`` in ``[start, stop)`` draws its neighbours from every other
    row, or with ``earlier_only`` from the rows ``j < i`` (what an
    insertion-ordered build may link to).  One ``kernel.matrix`` over the
    block — the three-BLAS-call expansion — only *pre-selects*
    ``k + _PRESELECT_MARGIN`` columns per row; exactly those are re-scored
    with ``kernel.batch_paired`` and ranked by ``(distance, id)``, so the
    result carries the bit-stable distances ``kernel.batch`` returns and the
    GEMM's rounding decides neither membership nor order.  The GEMM reads
    the block and its columns from ``embedded`` — ``kernel.embed(vectors)``,
    made once by a caller that runs many blocks — or, without it, from the
    rows themselves, which ``kernel.matrix`` then embeds: the same bits.

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
    source = vectors if embedded is None else embedded
    approximate = kernel.matrix(source[start:stop], source[:stop] if earlier_only else source)
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
    (:func:`exact_top_k`) into one ``(n, min(k, n - 1))`` ``int32`` id
    array, each row nearest first with ties broken by id."""

    def stage(context: Dict[str, Any]) -> np.ndarray:
        vectors = context["vectors"]
        kernel = context["kernel"]
        embedded = embedded_corpus(context)
        n, dim = vectors.shape
        neighbors_k = min(k, n - 1)
        rows = block_rows(neighbors_k, dim)
        result = np.empty((n, neighbors_k), dtype=np.int32)
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            ids, _ = exact_top_k(kernel, vectors, start, stop, neighbors_k, embedded=embedded)
            result[start:stop] = ids
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


def pad_rows(rows: "Sequence[Sequence[int]] | np.ndarray") -> np.ndarray:
    """Id rows as one ``(len(rows), widest)`` ``int32`` matrix, each row
    padded at its end with ``-1``; an array is returned as it is."""
    if isinstance(rows, np.ndarray):
        return rows
    widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    out = np.full((len(rows), widths.max(initial=0)), -1, dtype=np.int32)
    out[np.arange(out.shape[1]) < widths[:, None]] = np.fromiter(
        chain.from_iterable(rows), dtype=np.int32, count=int(widths.sum())
    )
    return out


class RaggedRows(NamedTuple):
    """Id rows of different widths in one array: row ``i`` is
    ``ids[offsets[i]:offsets[i + 1]]``.  A wide row costs only its own
    width, where a padded matrix costs every row the widest one's."""

    offsets: np.ndarray
    ids: np.ndarray


def _pool_block(pools: "np.ndarray | RaggedRows", members: np.ndarray, width: int) -> np.ndarray:
    """Pools ``members`` as one ``(len(members), width)`` id block, ids
    descending so the padding goes last."""
    if isinstance(pools, RaggedRows):
        starts = pools.offsets[members]
        column = np.arange(width)
        at = np.minimum(starts[:, None] + column, len(pools.ids) - 1)
        inside = column < (pools.offsets[members + 1] - starts)[:, None]
        block = np.where(inside, pools.ids[at], -1)
    else:
        block = pools[members]
    return -np.sort(-block, axis=1)[:, :width]


def prune_rows(
    kernel, vectors: np.ndarray, owners: np.ndarray, pools: "np.ndarray | RaggedRows",
    max_degree: int, rule, embedded=None,
) -> Tuple[np.ndarray, int]:
    """Occlusion-prune pool ``i`` for owner ``i`` to ``max_degree`` ids,
    nearest first, the owner's own id not among the pool's.

    A pool comes in one of two forms: row ``i`` of an ``(R, W)`` id matrix
    whose ``-1`` entries are padding wherever they stand (id lists are
    padded first, :func:`pad_rows`), or row ``i`` of :class:`RaggedRows` —
    the form for pools whose widths differ, such as a hub's reverse edges
    beside a leaf's.  ``owners`` is the ``(R, d)`` owner rows, or ``R`` ids
    of rows of ``vectors``, gathered a block at a time.

    Rows go widest first (most ids) into blocks whose gather and pairwise
    stack fit :data:`_SCRATCH_BYTES`, each cut to its widest row with its
    ids moved ahead of its padding.  Per block: one gather, one
    ``kernel.batch_paired`` (padding scores ``inf``), a ``(distance, id)``
    lexsort — ties never depend on pool order, nor does anything else, and
    a repeated id ranks beside its copy and is skipped — one stacked
    ``kernel.matrix`` over the ranked rows gathered from ``embedded`` (the
    build's ``kernel.embed(vectors)``; without it, from ``vectors``), its
    table packed into the pass.  Per pass — the
    blocks whose packed tables fit :data:`_SCRATCH_BYTES` at the width of
    the first — one :func:`occlusion_scan`.  A row's result depends on
    neither its block nor its pass.  Returns the ``(R, max_degree)``
    ``int32`` selections in input order, each row's ids first and ``-1``
    padding its end, and the number of blocks they took.
    """
    if isinstance(pools, RaggedRows):
        widths = np.diff(pools.offsets)
    else:
        pools = pad_rows(pools)
        widths = np.count_nonzero(pools >= 0, axis=1)
    order = np.argsort(-widths, kind="stable")
    order = order[widths[order] > 0]
    result = np.full((len(widths), max_degree), -1, dtype=np.int32)
    source = vectors if embedded is None else embedded
    blocks = start = 0
    while start < len(order):
        # A pass's first block is its widest and fits: pass_rows >= block_rows.
        width, first = widths[order[start]], start
        rows = min(pass_rows(width), len(order) - start)
        ids = np.full((rows, width), -1, dtype=np.int32)
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
            padded = _pool_block(pools, members, block_width)
            distances = kernel.batch_paired(
                vectors[owners[members]] if owners.ndim == 1 else owners[members],
                vectors[np.maximum(padded, 0).ravel()],
                np.repeat(np.arange(len(members)), block_width),
            ).reshape(padded.shape)
            distances[padded < 0] = np.inf
            rank = np.lexsort((padded, distances))
            ids[at, :block_width] = ranked_ids = np.take_along_axis(padded, rank, axis=1)
            # Gathered again in rank order rather than permuted: one
            # (rows, width, dim) copy alive at a time.
            ranked = source[np.maximum(ranked_ids, 0)]
            pack_table(
                rule(kernel.matrix(ranked, ranked), np.take_along_axis(distances, rank, axis=1)),
                out=packed[at, :block_width],
            )
        ids = ids[: start - first]
        eligible = ids >= 0
        eligible[:, 1:] &= ids[:, 1:] != ids[:, :-1]
        selected = occlusion_scan(packed[: start - first], max_degree, eligible)
        counts = np.count_nonzero(selected, axis=1)
        slots = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        result[np.repeat(order[first:start], counts), slots] = ids[selected]
    return result, blocks


def robust_prune(
    query_vector: np.ndarray, pool: List[int], vectors: np.ndarray, kernel,
    max_degree: int, alpha: float = 1.2,
) -> List[int]:
    """Vamana's alpha-relaxed RNG selection over one candidate pool: the
    one-row call of :func:`prune_rows`, which incremental insertion uses."""
    owner = np.asarray(query_vector, dtype=np.float64)[None, :]
    (row,), _ = prune_rows(kernel, vectors, owner, [pool], max_degree, alpha_rng_rule(alpha))
    return row[row >= 0].tolist()


def _unreturned(rows: np.ndarray) -> np.ndarray:
    """Mask of the edges ``v -> rows[v, j]`` whose target's row does not
    hold ``v``, over an ``(n, D)`` id array padded with ``-1``: one
    ``(rows, D, D)`` gather of target rows per scratch-sized block."""
    n, width = rows.shape
    mask = np.empty(rows.shape, dtype=bool)
    step = max(1, _SCRATCH_BYTES // (rows.itemsize * width * width))
    for start in range(0, n, step):
        block = rows[start : start + step]
        sources = np.arange(start, start + len(block), dtype=rows.dtype)[:, None, None]
        returned = (rows[np.maximum(block, 0)] == sources).any(axis=2)
        mask[start : start + step] = (block >= 0) & ~returned
    return mask


def _reverse_pools(rows: np.ndarray, max_degree: int) -> Tuple[np.ndarray, RaggedRows, int]:
    """Group the edges no target returns by target and fold them into
    ``rows`` (the ``(n, max_degree)`` forward selections, ids first).

    One stable argsort on the targets lists each target's sources in id
    order.  A target with room for all of them has them appended in
    place; the rest are returned as ``(over, pools, appended)`` — the
    over-capacity targets ascending, their pools (forward row, then the
    sources) as :class:`RaggedRows`, and how many edges were appended.
    """
    n = len(rows)
    unreturned = _unreturned(rows)
    sources = np.repeat(np.arange(n, dtype=np.int32), np.count_nonzero(unreturned, axis=1))
    targets = rows[unreturned]
    del unreturned
    by_target = np.argsort(targets, kind="stable")
    sources, targets = sources[by_target], targets[by_target]
    del by_target
    incoming = np.bincount(targets, minlength=n)
    degree = np.count_nonzero(rows >= 0, axis=1)
    rank = np.arange(len(targets)) - (np.cumsum(incoming) - incoming)[targets]
    fits = degree + incoming <= max_degree
    appended = fits[targets]
    over = np.flatnonzero(~fits)
    widths = degree[over] + incoming[over]
    offsets = np.zeros(len(over) + 1, dtype=np.intp)
    np.cumsum(widths, out=offsets[1:])
    ids = np.empty(offsets[-1], dtype=np.int32)
    column = np.arange(rows.shape[1])
    head = column < degree[over][:, None]
    ids[(offsets[:-1, None] + column)[head]] = rows[over][head]
    tail = np.zeros(n, dtype=np.intp)
    tail[over] = offsets[:-1] + degree[over]
    pooled = ~appended
    ids[tail[targets[pooled]] + rank[pooled]] = sources[pooled]
    targets, rank, sources = targets[appended], rank[appended], sources[appended]
    rows[targets, degree[targets] + rank] = sources
    return over, RaggedRows(offsets, ids), len(targets)


def _select(max_degree: int, rule, keep_neighbors: bool, add_reverse: bool) -> StageFn:
    """Selection in two batched phases, so the graph does not depend on
    the order vertices are processed in.  *Forward*: every vertex's pool —
    its row of the candidate array, with ``keep_neighbors`` also the
    neighbours it has, as one padded ``int32`` id matrix — through
    :func:`prune_rows` into one ``(n, max_degree)`` ``int32`` array.
    *Reverse* (``add_reverse``): each selected edge ``v -> u`` that ``u``
    does not return is grouped by its target (:func:`_reverse_pools`); a
    target with room for all its incoming edges appends them in id order,
    any other is pruned **once** over its row plus everything incoming,
    the pools as :class:`RaggedRows` so a hub's width costs only its own
    row.  Each table goes as soon as its phase has used it; the graph takes
    the rows in one :meth:`NavigationGraph.set_arrays`, at the end.
    """

    def stage(context: Dict[str, Any]) -> NavigationGraph:
        vectors = context["vectors"]
        kernel = context["kernel"]
        embedded = embedded_corpus(context)
        graph: NavigationGraph = context["graph"]
        pools = context.pop("candidates")
        n = len(pools)
        if keep_neighbors:
            pools = np.hstack([pools, pad_rows([graph.neighbors(v) for v in range(n)])])
        pools[pools == np.arange(n)[:, None]] = -1
        rows, blocks = prune_rows(kernel, vectors, vectors, pools, max_degree, rule, embedded)
        del pools
        stats = {"forward_rows": n}
        if add_reverse:
            over, reverse, stats["reverse_appended"] = _reverse_pools(rows, max_degree)
            rows[over], reverse_blocks = prune_rows(
                kernel, vectors, over, reverse, max_degree, rule, embedded
            )
            del reverse
            blocks += reverse_blocks
            stats["reverse_pruned_rows"] = len(over)
        widths = np.count_nonzero(rows >= 0, axis=1)
        graph.set_arrays(np.concatenate([[0], np.cumsum(widths)]), rows[rows >= 0])
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
    """Attach vertices unreachable from the entry points
    (:meth:`NavigationGraph.connect_unreachable`): the pipeline runs it
    after the entry stage, so it repairs from where the search starts."""

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
