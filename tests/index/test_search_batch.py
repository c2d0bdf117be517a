"""Property tests: a ``search_batch`` row does not depend on its batch.

``search_batch`` is the only search body an index has (``search`` is a
batch of one), so there is no second implementation to compare with; what
must hold instead is *batch-composition independence*: row ``i`` of a B=N
call equals the B=1 call for that row — identical result ids,
bit-identical distances, identical work counters (hops, distance
evaluations).  Hypothesis draws query subsets, ``k``, admit-filter shapes
(none / shared / per-query) and a kernel override against every index
family — every family declares the base class's options and
honours each; ``derandomize=True`` keeps CI deterministic.  The independent references
are elsewhere and unchanged: ``test_search.py`` (hand-built graphs with
known answers) and the flat-oracle recall floors.

The second half covers what only the deleted serial body used to
exercise: per-vertex visit hooks through the shared core, per-beam entry
points, and the one admit normaliser's error.
"""

from __future__ import annotations

import inspect
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Modality
from repro.distance import (
    MultiVectorSchema,
    SingleVectorKernel,
    WeightedMultiVectorKernel,
)
from repro.errors import SearchError
from repro.index import (
    FlatIndex,
    FrozenGraphIndex,
    VectorIndex,
    available_indexes,
    build_index,
    load_index,
    save_index,
)
from repro.index.hnsw import HnswIndex, HnswParams
from repro.index.ivf import IvfIndex, IvfParams
from repro.index.nsg import NsgIndex, NsgParams
from repro.index.search import greedy_search, greedy_search_batch
from repro.index.starling import StarlingIndex, StarlingParams
from repro.index.tiered import TieredParams
from repro.index.vamana import VamanaIndex, VamanaParams
from tests.index.conftest import assert_pruning_is_exact

DIM = 16
CORPUS = 220
N_QUERIES = 24
BUDGET = 48

FAST_VAMANA = VamanaParams(max_degree=10, candidate_pool=24, build_budget=32)
FAMILIES = [
    "flat", "ivf", "hnsw", "vamana", "nsg", "starling", "starling-tiered", "frozen",
]
GRAPH_FAMILIES = [name for name in FAMILIES if name not in ("flat", "ivf")]


def _kernels():
    schema = MultiVectorSchema({Modality.TEXT: DIM // 2, Modality.IMAGE: DIM // 2})
    return {
        "single": lambda: SingleVectorKernel(DIM),
        "multivector": lambda: WeightedMultiVectorKernel(schema, [1.3, 0.7]),
    }


def test_every_index_declares_the_base_signature():
    """``search_batch`` is declared once: every registered index (and the
    restored one) takes the abstract base's parameters — names, order,
    kinds, defaults — so an option exists on all of them or on none."""
    def declared(cls):
        return [
            (p.name, p.kind, p.default)
            for p in inspect.signature(cls.search_batch).parameters.values()
        ]

    classes = {name: type(build_index(name)) for name in available_indexes()}
    classes["frozen"] = FrozenGraphIndex
    assert len(classes) >= 9, "the registry lost its indexes"
    for name, cls in classes.items():
        assert declared(cls) == declared(VectorIndex), name


def _unit_rows(seed: int, n: int) -> np.ndarray:
    rows = np.random.default_rng(seed).normal(size=(n, DIM))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.fixture(scope="module")
def corpus():
    return _unit_rows(0, CORPUS)


@pytest.fixture(scope="module")
def queries():
    return _unit_rows(1, N_QUERIES)


@pytest.fixture(scope="module")
def built_indexes(corpus, tmp_path_factory):
    builders = {
        "flat": lambda: FlatIndex(),
        "ivf": lambda: IvfIndex(IvfParams(n_lists=12, nprobe=4, kmeans_iters=4)),
        "hnsw": lambda: HnswIndex(HnswParams(m=6, ef_construction=32, seed=3)),
        "vamana": lambda: VamanaIndex(FAST_VAMANA),
        "nsg": lambda: NsgIndex(NsgParams(max_degree=10, knn=24)),
        "starling": lambda: StarlingIndex(
            StarlingParams(block_size=8, cache_blocks=4, inner=FAST_VAMANA)
        ),
        "starling-tiered": lambda: StarlingIndex(
            StarlingParams(
                block_size=8, inner=FAST_VAMANA,
                tiered=TieredParams(bits=8, rerank_factor=4),
            )
        ),
    }
    built = {}
    for name, builder in builders.items():
        index = builder()
        index.build(corpus, SingleVectorKernel(DIM))
        built[name] = index
    built["frozen"] = load_index(
        save_index(built["vamana"], tmp_path_factory.mktemp("frozen"))
    )
    yield built
    built["starling-tiered"].tiered.close()


def _admit_from(shape, positions):
    """None, one shared predicate, or one predicate per query."""
    if shape is None:
        return None
    if shape == "shared":
        return lambda object_id: object_id % 3 != 0
    return [
        (lambda m: (lambda object_id: object_id % m != 0))(2 + (p % 3))
        for p in positions
    ]


def _assert_same(left, right, where):
    assert left.ids == right.ids, f"{where}: ids diverged"
    assert (
        np.asarray(left.distances).tobytes() == np.asarray(right.distances).tobytes()
    ), f"{where}: distances diverged"
    # Identical search work, not merely identical answers: a beam never
    # reads another beam's state.
    assert left.stats.hops == right.stats.hops, where
    assert left.stats.distance_evaluations == right.stats.distance_evaluations, where


@pytest.mark.parametrize("name", FAMILIES)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_search_batch_matches_serial(name, built_indexes, queries, data):
    """Row ``i`` of a B=N call equals the B=1 call for that row."""
    index = built_indexes[name]
    positions = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=N_QUERIES - 1),
            min_size=1,
            max_size=32,
        ),
        label="query positions",
    )
    k = data.draw(st.integers(min_value=1, max_value=10), label="k")
    admit = _admit_from(
        data.draw(st.sampled_from([None, "shared", "per-query"]), label="admit"),
        positions,
    )
    override = data.draw(
        st.sampled_from([None, "single", "multivector"]), label="kernel"
    )

    def kernel():  # a fresh one per call: kernels carry their own counters
        return None if override is None else _kernels()[override]()

    batched = index.search_batch(
        queries[positions], k=k, budget=BUDGET, kernel=kernel(), admit=admit,
    )
    assert len(batched) == len(positions)
    for row, (outcome, position) in enumerate(zip(batched, positions)):
        one = admit[row] if isinstance(admit, list) else admit
        alone = index.search_batch(
            queries[position][None], k=k, budget=BUDGET, kernel=kernel(), admit=one,
        )
        assert len(alone) == 1
        _assert_same(outcome, alone[0], f"{name} row {row}")


@pytest.mark.parametrize("name", FAMILIES)
def test_search_batch_single_query_equals_search(built_indexes, queries, name):
    """``search`` is the batch of one, exactly — with and without a filter."""
    index = built_indexes[name]
    for admit in (None, lambda object_id: object_id % 2 == 0):
        kwargs = {} if admit is None else {"admit": admit}
        single = index.search(queries[0], k=5, budget=BUDGET, **kwargs)
        batched = index.search_batch(queries[:1], k=5, budget=BUDGET, **kwargs)
        assert len(batched) == 1
        _assert_same(batched[0], single, name)
    assert index.search_batch(queries[:0], k=5) == []


def test_search_batch_per_query_admit_length_mismatch(built_indexes, queries):
    """One normaliser, one error type, whichever family gets the bad list."""
    for name in FAMILIES:
        with pytest.raises(SearchError, match="2 admit predicates for 3 queries"):
            built_indexes[name].search_batch(
                queries[:3], k=2, admit=[lambda i: True] * 2
            )


# ----------------------------------------------------------------------
# what only the serial body used to cover, through the shared core
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name",
    [
        # vamana keeps the id it had as the only family this ran on
        pytest.param(name, id="multivector" if name == "vamana" else f"multivector-{name}")
        for name in GRAPH_FAMILIES
    ],
)
def test_pruned_search_batch_equals_unpruned_with_less_work(built_indexes, queries, name):
    """Incremental scanning (E5) on every graph family's own work: each
    row's search, replayed in its scoring order through the bounded
    ``WeightedMultiVectorKernel.single``, keeps exactly the rows a replay
    without the bound keeps, with fewer segments computed."""
    schema = MultiVectorSchema({Modality.TEXT: DIM // 2, Modality.IMAGE: DIM // 2})
    pruned, plain = assert_pruning_is_exact(
        built_indexes[name], queries, schema, [1.3, 0.7], 5, BUDGET
    )
    assert pruned.calls == plain.calls
    assert pruned.pruned > 0
    assert pruned.segments_evaluated < pruned.segments_total
    assert plain.segments_evaluated == plain.segments_total


def test_visit_hook_sees_each_beams_own_vertices(built_indexes, corpus, queries):
    """The hook is charged once per vector access: at B=1 the vertices the
    single-argument hook always saw, at B=N the same multiset per beam."""
    graph = built_indexes["vamana"].graph
    kernel = SingleVectorKernel(DIM)
    together = []
    results = greedy_search_batch(
        graph, corpus, kernel, queries[:6], k=5, budget=BUDGET,
        visit_hook=lambda beam, vertex: together.append((beam, vertex)),
    )
    for beam, result in enumerate(results):
        alone = []
        single = greedy_search(
            graph, corpus, kernel, queries[beam], k=5, budget=BUDGET,
            visit_hook=alone.append,
        )
        _assert_same(result, single, f"beam {beam}")
        assert Counter(alone) == Counter(v for b, v in together if b == beam)
        # every accessed vector is scored exactly once, entry points included
        assert len(alone) == len(set(alone)) == single.stats.distance_evaluations
        assert set(graph.entry_points) <= set(alone)
        assert set(single.ids) <= set(alone)


def test_per_beam_entry_points(built_indexes, corpus, queries):
    """Each beam starts where it is told (HNSW hands every query its own
    base-layer entry); shared and default entry points are the same lists
    repeated."""
    graph = built_indexes["vamana"].graph
    kernel = SingleVectorKernel(DIM)
    starts = [[7], [7, 40], [199, 3, 3], [0]]
    batched = greedy_search_batch(
        graph, corpus, kernel, queries[:4], k=5, budget=12, entry_points=starts
    )
    for beam, result in enumerate(batched):
        alone = greedy_search(
            graph, corpus, kernel, queries[beam], k=5, budget=12,
            entry_points=starts[beam],
        )
        _assert_same(result, alone, f"beam {beam}")
    shared = greedy_search_batch(
        graph, corpus, kernel, queries[:4], k=5, budget=12, entry_points=[7, 40]
    )
    _assert_same(shared[1], batched[1], "shared entry points")
    default = greedy_search_batch(graph, corpus, kernel, queries[:2], k=5, budget=12)
    explicit = greedy_search_batch(
        graph, corpus, kernel, queries[:2], k=5, budget=12,
        entry_points=list(graph.entry_points),
    )
    _assert_same(default[0], explicit[0], "default entry points")
    with pytest.raises(SearchError, match="entry-point lists"):
        greedy_search_batch(
            graph, corpus, kernel, queries[:4], k=5, entry_points=starts[:3]
        )
    with pytest.raises(SearchError, match="at least one entry point"):
        greedy_search_batch(
            graph, corpus, kernel, queries[:2], k=5, entry_points=[[1], []]
        )
