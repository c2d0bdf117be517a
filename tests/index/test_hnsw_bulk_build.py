"""Tests for the bulk half of HNSW construction.

``build`` finds every member's candidates exactly (blocked GEMM to
pre-select, ``batch_paired`` to order) instead of searching for them, so:

* the candidates are checked against a brute-force oracle that shares no
  code with the stage — ids and distance *bytes*, ties included;
* bulk and incremental construction must meet in one link step;
* levels, entry point and the whole graph are a function of the seed;
* a counting kernel pins the dispatch budget, so a regression to
  per-insert searching fails without a stopwatch;
* recall against :func:`repro.evaluation.exact_knn` is checked at the
  benchmark's scale (scenes/2000, MUST).
"""

from __future__ import annotations

import ast
import gc
import inspect
import textwrap
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.data import DatasetSpec, generate_knowledge_base
from repro.distance import (
    MultiVectorSchema,
    SingleVectorKernel,
    WeightedMultiVectorKernel,
)
from repro.distance.kernel import Embedding
from repro.encoders import build_encoder_set
from repro.evaluation import exact_knn
from repro.index import build_index, hnsw
from repro.index.hnsw import HnswIndex, HnswParams
from repro.index.stages import _SCRATCH_BYTES, block_rows, pass_rows
from repro.observability.tracing import Tracer
from repro.retrieval import MustRetrieval
from repro.utils import derive_rng
from tests.index.conftest import assert_one_int_per_vertex, bytes_per_edge

DIM = 16
# Seed 0 at m=6 puts the 400 rows on five layers of 400/69/12/4/1 members.
PARAMS = HnswParams(m=6, ef_construction=10, seed=0)

KERNELS = {
    "single": lambda: SingleVectorKernel(DIM),
    "must": lambda: WeightedMultiVectorKernel(
        MultiVectorSchema({"text": 10, "image": 6}), {"text": 0.6, "image": 1.4}
    ),
}


def _unit_rows(rng, n, dim=DIM):
    rows = rng.normal(size=(n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _distinct_corpus():
    return _unit_rows(np.random.default_rng(5), 400)


def _duplicated_corpus():
    """100 distinct rows, each present four times in shuffled order: every
    distance is an exact tie of up to four (fewer than the pre-selection
    margin), and with ef_construction = 10 the ties straddle the cut."""
    rng = np.random.default_rng(6)
    return np.repeat(_unit_rows(rng, 100), 4, axis=0)[rng.permutation(400)]


def _members(index: HnswIndex, layer: int) -> np.ndarray:
    return np.array(
        [node for node, level in enumerate(index._node_level) if level >= layer]
    )


def _oracle(index: HnswIndex, members: np.ndarray, p: int):
    """Brute force: one ``kernel.batch`` against the earlier members and a
    Python sort by ``(distance, id)``; the candidates are its first
    ``ef_construction`` entries."""
    earlier = members[:p]
    distances = index.kernel.batch(index.vectors[members[p]], index.vectors[earlier])
    return sorted(zip(distances.tolist(), earlier.tolist()))


def _selection_inputs(index: HnswIndex, corpus, kernel):
    """Build ``index`` and return every member's candidates as selection
    is handed them, layer by layer from the top: ``(positions,
    distances)``, positions into the layer's members, in rank order."""
    rows = []
    passes = index._select_passes

    def select_pass(embedded, ids, distances, counts):
        for row, row_distances, count in zip(ids.tolist(), distances.tolist(), counts.tolist()):
            rows.append((row[:count], row_distances[:count]))
        return passes(embedded, ids, distances, counts)

    index._select_passes = select_pass
    index.build(corpus, kernel)
    del index._select_passes
    by_layer = []
    for layer in range(len(index._layers) - 1, -1, -1):
        by_layer.append((layer, rows[: len(index._layers[layer])]))
        del rows[: len(index._layers[layer])]
    assert not rows
    return by_layer


@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
@pytest.mark.parametrize("corpus_name", ["distinct", "duplicated"])
class TestCandidatesAgainstBruteForce:
    def test_every_node_on_every_layer(self, kernel_name, corpus_name, monkeypatch):
        corpus = {"distinct": _distinct_corpus, "duplicated": _duplicated_corpus}[
            corpus_name
        ]()
        ef = PARAMS.ef_construction

        straddling = 0
        # The build's own blocks and passes (one of each at this scale), then
        # 7-row blocks in 14-row passes, so block and pass edges fall inside
        # the layer, narrow rows and full-width ones share a pass.
        for rows in (None, 7):
            if rows:
                monkeypatch.setattr(hnsw, "block_rows", lambda width, dim: rows)
                monkeypatch.setattr(hnsw, "pass_rows", lambda width: 2 * rows)
            index = HnswIndex(PARAMS)
            inputs = _selection_inputs(index, corpus, KERNELS[kernel_name]())
            assert [len(rows) for rows in index._layers] == [400, 69, 12, 4, 1]
            for layer, candidates in inputs:
                members = _members(index, layer)
                for p, (positions, distances) in enumerate(candidates):
                    ranked = _oracle(index, members, p)
                    expected = ranked[:ef]
                    width = len(expected)
                    assert width == min(p, ef) == len(positions)
                    assert members[positions].tolist() == [node for _, node in expected]
                    want = np.array([d for d, _ in expected], dtype=np.float64)
                    assert np.array(distances, dtype=np.float64).tobytes() == want.tobytes()
                    straddling += p > ef and ranked[ef - 1][0] == ranked[ef][0]
        if corpus_name == "duplicated":
            assert straddling > 100
        else:
            assert straddling == 0


def _link_calls(index: HnswIndex):
    """Record ``(layer, incoming)`` of every ``_link`` call on ``index``."""
    calls = []
    original = index._link

    def recording(layer, incoming, m, embedded=None):
        calls.append((layer, {target: list(nodes) for target, nodes in incoming.items()}))
        return original(layer, incoming, m, embedded)

    index._link = recording
    return calls


class TestOneLinkStep:
    def test_structure(self):
        """One definition folds reverse edges into rows and one re-selects
        under it; ``_build_layer`` reaches it once, outside any loop,
        ``_insert`` reaches the same one, and nothing else re-selects.  The
        forward selection (``_select_passes``) scans its packed passes
        through the same ``select_saturated`` the replay does."""
        source = {
            name: ast.parse(textwrap.dedent(inspect.getsource(member)))
            for name, member in vars(HnswIndex).items()
            if inspect.isfunction(member)
        }

        def calls(tree, method):
            return [
                node
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and method in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
            ]

        assert [n for n, tree in source.items() if calls(tree, "_replay")] == ["_link"]
        assert [n for n, tree in source.items() if calls(tree, "select_saturated")] == [
            "_select_passes",
            "_replay",
        ]
        assert sorted(n for n, tree in source.items() if calls(tree, "_link")) == [
            "_build_layer",
            "_insert",
        ]
        build_layer = source["_build_layer"]
        assert len(calls(build_layer, "_link")) == 1
        loops = (ast.For, ast.While, ast.ListComp, ast.DictComp, ast.SetComp, ast.GeneratorExp)
        for loop in (node for node in ast.walk(build_layer) if isinstance(node, loops)):
            assert not calls(loop, "_link")
        assert not calls(source["build"], "_insert")
        assert "_search_layer" not in inspect.getsource(HnswIndex._build_layer)

    @pytest.mark.parametrize("kernel_name", sorted(KERNELS))
    def test_build_and_add_link_every_node_layer_once(self, kernel_name):
        rng = np.random.default_rng(11)
        index = HnswIndex(HnswParams(m=6, ef_construction=40, seed=3))
        calls = _link_calls(index)
        index.build(_unit_rows(rng, 400), KERNELS[kernel_name]())
        index.check_invariants()
        # One call per layer, top down, holding the layer's whole history:
        # every member but the first arrives somewhere, at earlier members
        # only, and each row's arrivals are in insertion order.
        assert [layer for layer, _ in calls] == list(range(index._max_level, -1, -1))
        for layer, incoming in calls:
            members = _members(index, layer).tolist()
            arrived = {node for nodes in incoming.values() for node in nodes}
            assert arrived == set(members[1:])
            for target, nodes in incoming.items():
                assert nodes == sorted(set(nodes)) and target < nodes[0]

        del calls[:]
        for step in range(200):
            if rng.random() < 0.6:
                old_top = index._max_level
                node = index.add(_unit_rows(rng, 1)[0])
                # A node taller than the graph links from the old top down,
                # one arrival — itself — per neighbour it selected.
                first = min(index._node_level[node], old_top)
                assert [layer for layer, _ in calls] == list(range(first, -1, -1))
                for layer, incoming in calls:
                    assert incoming and set(map(tuple, incoming.values())) == {(node,)}
                    assert node not in incoming and node in index._layers[layer]
                del calls[:]
            else:
                assert len(index.search(_unit_rows(rng, 1)[0], k=5).ids) == 5
            index.check_invariants()
        assert index.size > 500


class TestLevelsEntryDeterminism:
    def test_same_seed_same_graph(self):
        corpus = _distinct_corpus()
        a, b = HnswIndex(PARAMS), HnswIndex(PARAMS)
        a.build(corpus, KERNELS["must"]())
        b.build(corpus, KERNELS["must"]())
        assert a._layers == b._layers
        assert a._node_level == b._node_level
        assert (a._entry, a._max_level) == (b._entry, b._max_level)

    @pytest.mark.parametrize("seed", range(6))
    def test_levels_follow_the_seeded_stream(self, seed):
        params = HnswParams(m=6, ef_construction=10, seed=seed)
        index = HnswIndex(params)
        index.build(_distinct_corpus(), KERNELS["single"]())
        rng = derive_rng(seed, "hnsw-levels")
        levels = [
            int(-np.log(max(rng.random(), 1e-12)) / np.log(params.m))
            for _ in range(400)
        ]
        assert index._node_level == levels
        # Inserting one by one moves the entry only to a strictly taller
        # node, which leaves it on the first node of maximal level.
        entry, top = 0, -1
        for node, level in enumerate(levels):
            if level > top:
                entry, top = node, level
        assert (index._entry, index._max_level) == (entry, top)
        for layer, rows in enumerate(index._layers):
            assert list(rows) == [n for n, level in enumerate(levels) if level >= layer]


def _float_bytes(arg) -> int:
    """float64 bytes of a kernel argument: an array, or an embedding's
    points and norms."""
    if isinstance(arg, Embedding):
        return arg.points.nbytes + arg.norms.nbytes
    return arg.nbytes if getattr(arg, "dtype", None) == np.float64 else 0


class CountingKernel(SingleVectorKernel):
    """Counts entries into the kernel, whatever their size, and keeps the
    most float64 bytes any one entry was handed and the largest stacked
    block ``matrix`` was handed (a ``(rows, width, dim)`` gather)."""

    entries = 0
    widest = 0
    widest_block = 0

    def _counted(name):
        inner = getattr(SingleVectorKernel, name)

        def method(self, *args, **kwargs):
            self.entries += 1
            self.widest = max(self.widest, sum(map(_float_bytes, args)))
            if name == "matrix":
                points = [getattr(a, "points", a) for a in args]
                stacked = [p.nbytes for p in points if np.ndim(p) == 3]
                self.widest_block = max([self.widest_block, *stacked])
            return inner(self, *args, **kwargs)

        return method

    batch, batch_many, batch_paired, matrix = map(
        _counted, ("batch", "batch_many", "batch_paired", "matrix")
    )


def test_build_dispatch_budget(monkeypatch):
    """Searching for candidates costs ~80 kernel entries per inserted row
    and re-selecting a row per reverse edge ~2.4; finding them exactly and
    folding the reverse edges in windows costs a few per *block*.  The
    forward selection scans once per *pass* of whole blocks whose packed
    tables fit the scratch budget — 4 scans for 63 blocks on layer 0 of
    2000 rows.  No block or scan outgrows the scratch budget on the way,
    and an edge stays a pointer: every layer's rows hold the base graph's
    int object per node, however often it is stored."""
    scans = []
    real = hnsw.occlusion_scan

    def spy(packed, max_degree, eligible=None, columns=None):
        scans.append((packed.shape[0], packed.nbytes, columns is None))
        return real(packed, max_degree, eligible, columns)

    monkeypatch.setattr(hnsw, "occlusion_scan", spy)
    kernel = CountingKernel(32)
    index = HnswIndex(HnswParams())
    index.build(_unit_rows(np.random.default_rng(0), 2000, 32), kernel)
    assert kernel.entries <= 1 * index.size
    assert kernel.widest <= 4 * _SCRATCH_BYTES
    assert 0 < kernel.widest_block <= _SCRATCH_BYTES
    assert max(nbytes for _, nbytes, _ in scans) <= _SCRATCH_BYTES

    ef, m = index.params.ef_construction, index.params.m
    rows = block_rows(ef, 32)
    step = pass_rows(ef) // rows * rows
    sizes = [len(layer) for layer in reversed(index._layers)]
    # Passes of whole blocks from each layer's row 0; a layer of at most m
    # members keeps every row whole and scans nothing.
    passes = [
        min(step, size - start)
        for size in sizes
        if min(ef, size) > m
        for start in range(0, size, step)
    ]
    assert [r for r, _, forward in scans if forward] == passes
    assert (len(passes), sum(-(-size // rows) for size in sizes)) == (6, 70)

    assert_one_int_per_vertex(index.base_graph(), index._layers)
    assert bytes_per_edge(index._layers) <= 16
    assert max(max(row) for row in index._layers[0].values()) > 256  # past CPython's cache
    index.check_invariants()


def _build_peak_beyond_output(rows: int) -> int:
    """Traced peak of one ``build`` under the benchmark's kernel shape
    (MUST over 64 dims, default parameters) beyond its one embedding
    (points and norms) and the graph it leaves behind."""
    corpus = _unit_rows(np.random.default_rng(8), rows, 64)
    kernel = WeightedMultiVectorKernel(
        MultiVectorSchema({"text": 32, "image": 32}), {"text": 0.8, "image": 1.2}
    )
    index = HnswIndex(HnswParams())
    tracemalloc.start()
    try:
        index.build(corpus, kernel)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - live - (corpus.nbytes + 8 * rows)


def test_build_transient_does_not_grow_with_the_corpus():
    """A layer's candidates live one pass at a time: 6 000 more rows add
    less than half of what a whole-layer candidate table of them held
    (``16 * ef`` bytes a member, 7.7 MB; with it the peak grew 10 MB).  What
    still grows is each block's GEMM row against its prefix and the link
    step's per-row lists."""
    ef = HnswParams().ef_construction
    small = _build_peak_beyond_output(2000)
    large = _build_peak_beyond_output(8000)
    assert large - small <= 16 * ef * 6000 // 2, (small, large)


class EmbedCountingKernel(WeightedMultiVectorKernel):
    """Counts the rows it embeds from raw vectors and keeps a weak
    reference to every embedding it makes."""

    def __init__(self) -> None:
        super().__init__(MultiVectorSchema({"text": 20, "image": 12}), {"text": 0.7, "image": 1.3})
        self.embedded_rows = 0
        self.made = []

    def embed(self, vectors):
        embedded = super().embed(vectors)
        if embedded is not vectors:
            self.embedded_rows += int(np.prod(np.shape(vectors)[:-1]))
            self.made.append(weakref.ref(embedded))
        return embedded


@pytest.mark.parametrize("index_name", ["hnsw", "vamana"])
def test_a_build_embeds_its_corpus_once(index_name):
    """Every stacked block of a 2000-row build gathers from one embedding
    of the corpus — no row is scaled or normed twice — and the embedding
    is the build's scratch: nothing holds it once ``build`` returns."""
    kernel = EmbedCountingKernel()
    index = build_index(index_name, {})
    index.build(_unit_rows(np.random.default_rng(4), 2000, 32), kernel)
    assert (kernel.embedded_rows, len(kernel.made)) == (index.size, 1)
    gc.collect()
    assert kernel.made[0]() is None


class TestReadsDoNotWrite:
    def test_search_leaves_layer_keys_alone(self, unit_vectors, unit_queries):
        index = HnswIndex(HnswParams(m=6, ef_construction=32))
        index.build(unit_vectors[:300], SingleVectorKernel(32))
        for row in unit_vectors[300:340]:
            index.add(row)
        before = [list(rows) for rows in index._layers]
        index.search_batch(unit_queries, k=5)
        for query in unit_queries:
            index.search(query, k=5)
        assert [list(rows) for rows in index._layers] == before
        index.check_invariants()

    def test_unknown_node_raises_instead_of_planting_a_row(self, unit_vectors):
        index = HnswIndex(HnswParams(m=6, ef_construction=32))
        index.build(unit_vectors[:100], SingleVectorKernel(32))
        top = len(index._layers) - 1
        outsider = next(n for n in range(100) if index._node_level[n] < top)
        with pytest.raises(KeyError):
            index._neighbors(top, outsider)
        assert outsider not in index._layers[top]


def test_build_spans_give_each_layer_phase_an_address(unit_vectors):
    tracer = Tracer()
    index = HnswIndex(HnswParams(m=6, ef_construction=32))
    with tracer.trace("index-build") as root:
        index.build(unit_vectors[:300], SingleVectorKernel(32))
    insert = root.find("hnsw-insert")
    assert insert.attributes == {"nodes": 300, "layers": len(index._layers)}
    phases = [child.name for child in insert.children]
    assert phases == ["hnsw-select", "hnsw-link"] * len(index._layers)
    rows = block_rows(32, 32)
    step = pass_rows(32) // rows * rows
    for span in insert.children:
        members = len(index._layers[span.attributes["layer"]])
        assert span.attributes["rows"] == members
        if span.name == "hnsw-select":
            # One candidates span per pass: passes of `step` rows from row 0,
            # each computing its own whole blocks, so every block is
            # computed once.
            bounds = [*range(0, members, step), members]
            passes = [b - a for a, b in zip(bounds, bounds[1:])]
            assert span.attributes["blocks"] == -(-members // rows)
            assert span.attributes["passes"] == len(passes)
            assert [child.name for child in span.children] == ["hnsw-candidates"] * len(passes)
            assert [c.attributes["rows"] for c in span.children] == passes
            assert sum(c.attributes["blocks"] for c in span.children) == span.attributes["blocks"]
        if span.name == "hnsw-link":
            # Rows folded, their gathers, their events: a window covers up
            # to ``m`` events of a row, so a layer with work shows fewer
            # gathers than events.
            cap = index.params.m * (2 if span.attributes["layer"] == 0 else 1)
            folded, windows, events = (
                span.attributes[key] for key in ("targets", "windows", "reselected_rows")
            )
            assert folded <= windows <= events <= windows * cap
            assert folded <= members
    base = insert.find_all("hnsw-link")[-1].attributes
    assert base["layer"] == 0 and 0 < base["windows"] < base["reselected_rows"] / 2


def test_recall_at_benchmark_scale():
    """scenes/2000 under MUST — the benchmark's corpus and framework —
    against the exact-kNN oracle over 200 seeded queries."""
    kb = generate_knowledge_base(DatasetSpec(domain="scenes", size=2000, seed=7))
    must = MustRetrieval()
    must.setup(
        kb,
        build_encoder_set("clip-joint", kb, seed=3),
        lambda: build_index("hnsw", {}),
        weights={"text": 0.8, "image": 1.2},
    )
    index = must._index
    assert isinstance(index, HnswIndex) and index.size == 2000
    rng = np.random.default_rng(7)
    queries = index.vectors[rng.choice(2000, size=200, replace=False)]
    queries = queries + 0.05 * rng.normal(size=queries.shape)
    truth = exact_knn(index.vectors, index.kernel, queries, k=10)
    found = index.search_batch(queries, k=10, budget=64)
    recall = np.mean([len(set(f.ids) & set(t)) / 10 for f, t in zip(found, truth)])
    assert recall >= 0.99
    index.check_invariants()
