"""Tests for the bulk build of the pipeline graphs (Vamana, nav-must, Starling).

``build`` ranks every vertex's exact candidate pool and prunes whole
blocks of rows with one column scan, so:

* the scan is checked against the single-row Python loops it replaced —
  kept *here* as oracles — over a table-lookup kernel, so both sides see
  exactly the same quantised distances: ties, ``inf`` padding, ragged
  widths in one block, the degree cap hit mid-row;
* the packed scan is checked against the boolean column scan it replaced —
  kept here too — on drawn tables either side of every word boundary, and
  the link replay's ranked-subset scan against the sub-table it gathered;
* the graph must not depend on how rows fall into blocks, nor on NumPy's
  sort internals when corpus rows are duplicated;
* structure (degree, no self-loop or duplicate, reachability, one prune per
  overflowing target) holds under both kernels;
* a counting kernel pins the dispatch budget, so a regression to
  per-vertex searching or pruning fails without a stopwatch;
* recall against :func:`repro.evaluation.exact_knn` is checked at the
  benchmark's scale (scenes/2000, MUST, Starling tiered off and on).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import DatasetSpec, generate_knowledge_base
from repro.distance import (
    MultiVectorSchema,
    SingleVectorKernel,
    WeightedMultiVectorKernel,
)
from repro.encoders import build_encoder_set
from repro.evaluation import exact_knn
from repro.index import build_index, stages
from repro.index.hnsw import select_heuristic_rows, select_saturated
from repro.index.must_graph import MustGraphIndex, MustGraphParams
from repro.index.nsg import NsgIndex
from repro.index.stages import (
    _SCRATCH_BYTES,
    alpha_rng_rule,
    block_rows,
    mrng_rule,
    occlusion_scan,
    pack_table,
    pass_rows,
    prune_rows,
    robust_prune,
)
from repro.index.starling import StarlingIndex, StarlingParams
from repro.index.vamana import VamanaIndex, VamanaParams
from repro.observability.tracing import Tracer
from repro.retrieval import MustRetrieval
from tests.index.test_hnsw_batched_insert import TableKernel, _quantised_table
from tests.index.test_hnsw_bulk_build import DIM, CountingKernel, _duplicated_corpus

KERNELS = {
    "single": lambda: SingleVectorKernel(32),
    "must": lambda: WeightedMultiVectorKernel(
        MultiVectorSchema({"text": 20, "image": 12}), {"text": 0.7, "image": 1.3}
    ),
}
INDEXES = {
    "vamana": lambda: VamanaIndex(VamanaParams()),
    "nav-must": lambda: MustGraphIndex(MustGraphParams()),
    "starling": lambda: StarlingIndex(StarlingParams()),
}


def _adjacency(index):
    return [list(index.graph.neighbors(v)) for v in range(index.graph.n_vertices)]


# ----------------------------------------------------------------------
# (a) the column scan against the retired single-row loops
# ----------------------------------------------------------------------
def _ranked(distances, ids):
    return sorted(range(len(ids)), key=lambda i: (distances[i], ids[i]))


def _alpha_rng_loop(distances, pairwise, ids, max_degree, alpha):
    """``robust_prune`` as it was: a ``while`` over a shrinking list."""
    selected, remaining = [], _ranked(distances, ids)
    while remaining and len(selected) < max_degree:
        head = remaining[0]
        selected.append(head)
        remaining = [
            row for row in remaining[1:] if alpha * pairwise[row][head] > distances[row]
        ]
    return [ids[row] for row in selected]


def _mrng_loop(distances, pairwise, ids, max_degree, fill_up=False):
    """``select_mrng`` as it was (``all()`` per candidate); with ``fill_up``
    HNSW's Algorithm 4, which tops a short row up with the nearest rejects."""
    order = _ranked(distances, ids)
    selected = []
    for row in order:
        if len(selected) >= max_degree:
            break
        if all(pairwise[row][chosen] >= distances[row] for chosen in selected):
            selected.append(row)
    if fill_up:
        selected += [row for row in order if row not in selected][: max_degree - len(selected)]
    return [ids[row] for row in selected]


@pytest.mark.parametrize("seed", range(12))
def test_block_prune_equals_single_row_loops(seed):
    """Ragged pools — so one block pads its narrow rows with ``inf`` — and
    a cap most rows hit before their pool runs out."""
    rng = np.random.default_rng(seed)
    n, max_degree = 60, int(rng.integers(2, 7))
    table = _quantised_table(rng, n)
    kernel = TableKernel(table)
    vectors = np.arange(n, dtype=np.float64)[:, None]
    owners = rng.choice(n, size=int(rng.integers(2, 25)), replace=False)
    pools = [
        rng.choice(np.delete(np.arange(n), o), size=int(rng.integers(0, 30)), replace=False).tolist()
        for o in owners
    ]
    assert len({len(pool) for pool in pools}) > 1
    capped = 0
    for rule, loop in (
        (alpha_rng_rule(1.0), lambda d, p, ids: _alpha_rng_loop(d, p, ids, max_degree, 1.0)),
        (alpha_rng_rule(1.2), lambda d, p, ids: _alpha_rng_loop(d, p, ids, max_degree, 1.2)),
        (mrng_rule, lambda d, p, ids: _mrng_loop(d, p, ids, max_degree)),
    ):
        rows, blocks = prune_rows(kernel, vectors, vectors[owners], pools, max_degree, rule)
        assert blocks >= 1
        for owner, pool, row in zip(owners, pools, rows):
            expected = loop(table[owner, pool], table[np.ix_(pool, pool)], pool)
            assert row == expected
            capped += len(row) == max_degree < len(pool)
    assert capped > 0


def test_one_row_robust_prune_is_row_i_of_a_block_call():
    rng = np.random.default_rng(3)
    table = _quantised_table(rng, 40)
    kernel = TableKernel(table)
    vectors = np.arange(40, dtype=np.float64)[:, None]
    pools = [rng.choice(np.arange(1, 40), size=w, replace=False).tolist() for w in (25, 9, 17)]
    pools = [[p for p in pool if p != owner] for owner, pool in enumerate(pools)]
    rows, _ = prune_rows(kernel, vectors, vectors[:3], pools, 5, alpha_rng_rule(1.2))
    for owner, pool in enumerate(pools):
        assert robust_prune(vectors[owner], pool, vectors, kernel, 5, 1.2) == rows[owner]
    assert robust_prune(vectors[0], [], vectors, kernel, 5) == []


def test_scan_on_hand_built_arrays():
    """Row 0: nothing dominated, the cap stops it mid-row.  Row 1: column 0
    dominates every later column.  Row 2: padded after two columns, and its
    first column repeats an id so is ineligible."""
    dominated = np.zeros((3, 4, 4), dtype=bool)
    dominated[1, :, 0] = True
    dominated[2] = True  # would drop everything after the first selected...
    dominated[2, 1, 0] = False
    eligible = np.array([[1, 1, 1, 1], [1, 1, 1, 1], [0, 1, 0, 0]], dtype=bool)
    assert occlusion_scan(pack_table(dominated), 3, eligible).tolist() == [
        [True, True, True, False],
        [True, False, False, False],
        [False, True, False, False],
    ]
    # Without a mask every column is eligible (HNSW's full-width rows).
    assert occlusion_scan(pack_table(dominated[:2]), 2).tolist() == [
        [True, True, False, False],
        [True, False, False, False],
    ]


# ----------------------------------------------------------------------
# (a') the packed scan against the boolean scan it replaced
# ----------------------------------------------------------------------
def _boolean_scan(dominated, max_degree, eligible=None):
    """``occlusion_scan`` as it was before its table was packed: column by
    column over the ``(R, W, W)`` boolean table, an AND of the column's
    ``(R, column)`` prefix with the selected mask and one ``.any`` each."""
    n_rows, width = dominated.shape[:2]
    selected = np.zeros((n_rows, width), dtype=bool)
    count = np.zeros(n_rows, dtype=np.intp)
    for column in range(width):
        keep = ~(dominated[:, column, :column] & selected[:, :column]).any(axis=1)
        keep &= count < max_degree
        if eligible is not None:
            keep &= eligible[:, column]
        selected[:, column] = keep
        count += keep
    return selected


def _drawn_tables(rng, n_rows, width):
    """Tables at three densities, then all-dominated and none-dominated."""
    for density in (0.05, 0.3, 0.7):
        yield rng.random((n_rows, width, width)) < density
    yield np.ones((n_rows, width, width), dtype=bool)
    yield np.zeros((n_rows, width, width), dtype=bool)


@pytest.mark.parametrize("width", [1, 2, 63, 64, 65, 80, 128, 129])
def test_packed_scan_equals_the_boolean_scan(width):
    """Either side of a word boundary, with no mask, a drawn mask and an
    all-ineligible one: every cap from none to more than the row holds on a
    drawn table, the edge caps on every table."""
    rng = np.random.default_rng(width)
    n_rows = 5
    masks = [None, rng.random((n_rows, width)) < 0.8, np.zeros((n_rows, width), dtype=bool)]
    edge_caps = sorted({0, 1, width // 2, width, width + 1})
    for table, dominated in enumerate(_drawn_tables(rng, n_rows, width)):
        packed = pack_table(dominated)
        assert packed.shape == (n_rows, width, -(-width // 64))
        for mask, eligible in enumerate(masks):
            every_cap = table == 1 and mask < 2
            for cap in range(width + 2) if every_cap else edge_caps:
                got = occlusion_scan(packed, cap, eligible)
                assert got.tolist() == _boolean_scan(dominated, cap, eligible).tolist()


@pytest.mark.parametrize("m", [2, 12, 24, 32, 33])
def test_ranked_subset_scan_equals_the_gathered_sub_table(m):
    """HNSW's link replay scans an event's ``m + 1`` ranked pool positions
    straight against the pool's packed table; the parent gathered their
    ``(m + 1)²`` sub-table and scanned that.  A pool holds ``2m`` positions,
    so from ``m = 33`` it spans two words."""
    rng = np.random.default_rng(m)
    n_rows, width = 30, 2 * m
    row = np.arange(n_rows)[:, None]
    for dominated in _drawn_tables(rng, n_rows, width):
        packed = pack_table(dominated)
        # Distinct positions per row, in a drawn rank order.
        at = np.argsort(rng.random((n_rows, width)), axis=1)[:, : m + 1]
        table = dominated[row[:, :, None], at[:, :, None], at[:, None, :]]
        for cap in (0, 1, m, m + 1):
            got = occlusion_scan(packed, cap, columns=at)
            assert got.tolist() == _boolean_scan(table, cap).tolist()
        keep = select_saturated(packed, m, columns=at)
        assert keep.tolist() == select_saturated(pack_table(table), m).tolist()


def test_repeated_ids_in_a_pool_are_selected_once():
    table = _quantised_table(np.random.default_rng(1), 12)
    kernel = TableKernel(table)
    vectors = np.arange(12, dtype=np.float64)[:, None]
    pool = [3, 7, 3, 9, 7, 5]
    for rule in (alpha_rng_rule(1.2), mrng_rule):
        once, _ = prune_rows(kernel, vectors, vectors[:1], [sorted(set(pool))], 4, rule)
        twice, _ = prune_rows(kernel, vectors, vectors[:1], [pool], 4, rule)
        assert twice == once and len(set(twice[0])) == len(twice[0])


@pytest.mark.parametrize("seed", range(6))
def test_hnsw_fill_up_rides_on_the_same_scan(seed):
    rng = np.random.default_rng(seed)
    n_rows, width, m = 9, 12, int(rng.integers(2, 8))
    distances = np.sort(rng.integers(1, 5, size=(n_rows, width)).astype(np.float64), axis=1)
    pairwise = rng.integers(1, 5, size=(n_rows, width, width)).astype(np.float64)
    keep = select_heuristic_rows(distances, pairwise, m)
    for r in range(n_rows):
        ids = list(range(width))
        assert keep[r].tolist() == _mrng_loop(distances[r], pairwise[r], ids, m, fill_up=True)


# ----------------------------------------------------------------------
# (b) block composition, determinism, tie order
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
@pytest.mark.parametrize("index_name", ["vamana", "nav-must"])
def test_graph_does_not_depend_on_block_size(
    unit_vectors, monkeypatch, kernel_name, index_name
):
    corpus = unit_vectors[:400]

    def build():
        index = INDEXES[index_name]()
        index.build(corpus, KERNELS[kernel_name]())
        return _adjacency(index)

    reference = build()
    assert build() == reference
    default_rows = block_rows(56, 32)
    for scratch in (stages._SCRATCH_BYTES // 16, stages._SCRATCH_BYTES * 64):
        monkeypatch.setattr(stages, "_SCRATCH_BYTES", scratch)
        assert block_rows(56, 32) != default_rows
        assert build() == reference


@pytest.mark.parametrize("rule", [alpha_rng_rule(1.2), mrng_rule], ids=["alpha-rng", "mrng"])
def test_ties_rank_by_id_on_a_duplicated_corpus(rule):
    """Every distance is an exact tie of up to four.  The prune ranks by
    ``(distance, id)``, so the order a pool arrives in — all an unstable
    ``argsort`` contributes — changes nothing, and of a group of twins the
    one linked is the one with the lowest id."""
    corpus = _duplicated_corpus()
    kernel = SingleVectorKernel(DIM)
    rng = np.random.default_rng(2)
    for vertex in range(0, len(corpus), 5):
        scan = kernel.batch(corpus[vertex], corpus).tolist()
        pool = [j for _, j in sorted((d, j) for j, d in enumerate(scan) if j != vertex)[:14]]
        owner = corpus[[vertex]]
        (kept,), _ = prune_rows(kernel, corpus, owner, [pool], 6, rule)
        for arrival in (pool[::-1], rng.permutation(pool).tolist()):
            assert prune_rows(kernel, corpus, owner, [arrival], 6, rule)[0] == [kept]
        for neighbor in kept:
            if scan[neighbor] > 0:
                assert neighbor == min(j for j in pool if scan[j] == scan[neighbor])


@pytest.mark.parametrize("rule", [alpha_rng_rule(1.2), mrng_rule], ids=["alpha-rng", "mrng"])
def test_tie_group_straddling_the_degree_cap(rule):
    """Four candidates tie at distance 1 and none dominates another: a cap
    of two takes the two lowest ids, however the pool is ordered."""
    table = np.full((7, 7), 9.0)
    np.fill_diagonal(table, 0.0)
    table[0, 1:5] = table[1:5, 0] = 1.0
    table[0, 5:] = table[5:, 0] = 2.0
    kernel = TableKernel(table)
    vectors = np.arange(7, dtype=np.float64)[:, None]
    for pool in ([1, 2, 3, 4, 5, 6], [6, 4, 2, 5, 3, 1], [3, 4, 1, 2, 6, 5]):
        assert prune_rows(kernel, vectors, vectors[:1], [pool], 2, rule)[0] == [[1, 2]]
        assert prune_rows(kernel, vectors, vectors[:1], [pool], 5, rule)[0] == [[1, 2, 3, 4, 5]]


@pytest.mark.parametrize("factory", [
    lambda: VamanaIndex(VamanaParams(max_degree=6, candidate_pool=10)),
    lambda: NsgIndex(),
], ids=["vamana", "nsg"])
def test_duplicated_corpus_builds_one_graph(factory):
    first, second = factory(), factory()
    first.build(_duplicated_corpus(), SingleVectorKernel(DIM))
    second.build(_duplicated_corpus(), SingleVectorKernel(DIM))
    assert _adjacency(first) == _adjacency(second)
    assert first.graph.is_connected()


# ----------------------------------------------------------------------
# (c) structure, (d) dispatch budget, spans
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
@pytest.mark.parametrize("index_name", sorted(INDEXES))
def test_structure_at_600_rows(unit_vectors, monkeypatch, kernel_name, index_name):
    calls = []
    real = stages.prune_rows

    def spy(kernel, vectors, owners, pools, max_degree, rule):
        rows, blocks = real(kernel, vectors, owners, pools, max_degree, rule)
        calls.append((np.array(owners), [list(pool) for pool in pools], [list(r) for r in rows]))
        return rows, blocks

    monkeypatch.setattr(stages, "prune_rows", spy)
    index = INDEXES[index_name]()
    tracer = Tracer()
    with tracer.trace("index-build") as root:
        index.build(unit_vectors, KERNELS[kernel_name]())
    graph = index.graph
    for vertex in range(600):
        row = graph.neighbors(vertex)
        assert len(row) <= graph.max_degree
        assert vertex not in row and len(set(row)) == len(row)
    assert len(graph.reachable_from(graph.entry_points)) == 600
    assert graph.entry_points == [stages.medoid_of(unit_vectors, index.kernel)]

    # One forward call over every vertex, one reverse call in which each
    # overflowing target appears once, with more than its row can hold;
    # the edges that fit were appended instead.
    (forward_owners, _, forward), (reverse_owners, reverse_pools, _) = calls
    assert forward_owners.shape[0] == 600
    incoming = {}
    for vertex, row in enumerate(forward):
        for target in row:
            if vertex not in forward[target]:
                incoming.setdefault(target, []).append(vertex)
    fits = {t: len(forward[t]) + len(inc) <= graph.max_degree for t, inc in incoming.items()}
    overflowing = [t for t, fit in fits.items() if not fit]
    assert len(overflowing) > 0
    assert sorted(map(tuple, unit_vectors[overflowing])) == sorted(map(tuple, reverse_owners))
    assert sorted(reverse_pools) == sorted(forward[t] + incoming[t] for t in overflowing)
    selection = root.find("build-selection").attributes
    assert selection["forward_rows"] == 600
    assert selection["reverse_pruned_rows"] == len(overflowing)
    assert selection["reverse_appended"] == sum(
        len(inc) for t, inc in incoming.items() if fits[t]
    )


def test_build_dispatch_budget(unit_vectors, monkeypatch):
    """Searching for candidates and pruning vertex by vertex cost ~7 kernel
    entries per vertex; the bulk build costs a few per *block*, and scans
    once per *pass* of blocks whose packed tables fit the scratch budget:
    at 2000 rows the forward phase's 77 blocks are 2 scans."""
    kernel = CountingKernel(32)
    index = VamanaIndex(VamanaParams())
    index.build(unit_vectors, kernel)
    assert kernel.entries <= index.size

    calls, real_prune, real_scan = [], stages.prune_rows, stages.occlusion_scan

    def prune(kernel, vectors, owners, pools, max_degree, rule):
        calls.append([len(pools), 0, []])
        rows, blocks = real_prune(kernel, vectors, owners, pools, max_degree, rule)
        calls[-1][1] = blocks
        return rows, blocks

    def scan(packed, max_degree, eligible=None, columns=None):
        calls[-1][2].append((packed.shape, packed.nbytes))
        return real_scan(packed, max_degree, eligible, columns)

    monkeypatch.setattr(stages, "prune_rows", prune)
    monkeypatch.setattr(stages, "occlusion_scan", scan)
    rows = np.random.default_rng(8).standard_normal((2000, 32))
    VamanaIndex(VamanaParams()).build(rows / np.linalg.norm(rows, axis=1, keepdims=True), kernel)
    (_, forward_blocks, forward), (_, reverse_blocks, reverse) = calls
    # Forward pools are all 48 + 8 wide: whole blocks per pass, then the rest.
    width, per_block = 56, block_rows(56, 56)
    per_pass = pass_rows(width) // per_block * per_block
    assert forward_blocks == -(-2000 // per_block) == 77
    assert [shape[0] for shape, _ in forward] == [per_pass, 2000 - per_pass]
    assert 1 <= len(reverse) < reverse_blocks
    assert max(nbytes for _, nbytes in forward + reverse) <= _SCRATCH_BYTES


def test_build_spans_say_where_the_time_went(unit_vectors):
    tracer = Tracer()
    index = VamanaIndex(VamanaParams())
    with tracer.trace("index-build") as root:
        index.build(unit_vectors[:300], SingleVectorKernel(32))
    candidates = root.find("build-candidates").attributes
    assert candidates["vertices"] == 300
    assert candidates["candidate_edges"] == 300 * 48
    assert candidates["blocks"] == -(-300 // block_rows(48, 32))
    selection = root.find("build-selection").attributes
    assert set(selection) == {
        "algorithm", "vertices", "avg_degree",
        "forward_rows", "reverse_appended", "reverse_pruned_rows", "blocks",
    }
    # Forward rows are all 48 + 8 wide; the reverse rows add their blocks.
    assert selection["blocks"] > -(-300 // block_rows(56, 56))


# ----------------------------------------------------------------------
# add grows the index it was built as
# ----------------------------------------------------------------------
def test_add_prunes_with_the_built_index_params(unit_vectors, monkeypatch):
    seen = []
    real = stages.robust_prune

    def spy(query_vector, pool, vectors, kernel, max_degree, alpha=1.2):
        seen.append((len(pool), max_degree, alpha))
        return real(query_vector, pool, vectors, kernel, max_degree, alpha)

    monkeypatch.setattr("repro.index.pipeline_builder.robust_prune", spy)
    params = MustGraphParams(max_degree=8, alpha=1.15, candidate_pool=40, build_budget=56)
    for index, alpha, pool in (
        (MustGraphIndex(params), 1.15, 40),
        (StarlingIndex(StarlingParams(inner=VamanaParams(alpha=1.3, candidate_pool=24))), 1.3, 24),
        (NsgIndex(), 1.2, 32),
    ):
        index.build(unit_vectors[:200], SingleVectorKernel(32))
        del seen[:]
        index.add(unit_vectors[200])
        assert seen[0] == (pool, index.graph.max_degree, alpha)
        assert {a for _, _, a in seen} == {alpha}


# ----------------------------------------------------------------------
# (e) recall at the benchmark's scale
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tiered", [False, True], ids=["ram", "tiered"])
def test_recall_at_benchmark_scale(tiered):
    """scenes/2000 under MUST on Starling — the ``batch_search_tiered``
    corpus and index — against the exact-kNN oracle over 200 seeded
    queries at budget 64 (the searched pool stopped at 0.983-0.987)."""
    kb = generate_knowledge_base(DatasetSpec(domain="scenes", size=2000, seed=7))
    params = {"tiered": {"bits": 8, "rerank_factor": 4}} if tiered else {}
    must = MustRetrieval()
    must.setup(
        kb,
        build_encoder_set("clip-joint", kb, seed=3),
        lambda: build_index("starling", params),
        weights={"text": 0.8, "image": 1.2},
    )
    index = must._index
    assert isinstance(index, StarlingIndex) and index.size == 2000
    assert (index.tiered is not None) == tiered
    vectors = np.asarray(index.vectors)
    rng = np.random.default_rng(7)
    queries = vectors[rng.choice(2000, size=200, replace=False)]
    queries = queries + 0.05 * rng.normal(size=queries.shape)
    truth = exact_knn(vectors, index.kernel, queries, k=10)
    found = index.search_batch(queries, k=10, budget=64)
    recall = np.mean([len(set(f.ids) & set(t)) / 10 for f, t in zip(found, truth)])
    assert recall >= 0.995
