"""E5 — the incremental-scanning (computational pruning) ablation.

The paper's primitive is ``WeightedMultiVectorKernel.single(query, vector,
bound=)``: scan the modalities in descending weight order and abandon the
distance once the partial sum passes ``bound``.  No search calls it — the
beam loop scores each round in one vectorised call — so this file measures
the primitive on the loop's own work: each nav-must search's visits, in the
order the loop reads them (``visit_hook``), are replayed through the bounded
``single`` with the ``budget``-th best distance so far as the bound, the
bound a pruned beam would hold at that visit.

Checked on every replayed evaluation: an early exit returns a value above
the bound, and the exact distance is above it too, so the exit dropped
nothing the beam would have kept; and the replay keeps the search's top k.
Reported: the fraction of evaluations that exit early, the fraction of
per-modality segments they skip, and the wall time of the served batched
search against the bounded scalar scoring of the same visits (the walk
itself excluded from the scalar side).
"""

from __future__ import annotations

import heapq
import time

import numpy as np
import pytest

from repro.data import DatasetSpec, generate_knowledge_base
from repro.distance import MultiVectorSchema, WeightedMultiVectorKernel
from repro.encoders import build_encoder_set
from repro.evaluation import ExperimentTable
from repro.index import MustGraphIndex, MustGraphParams, greedy_search
from repro.utils import derive_rng

from benchmarks.conftest import report

K = 10
BUDGET = 64
N_QUERIES = 30
REPEATS = 5


def build_world(spec: DatasetSpec, weights):
    """A nav-must index over the given world + its noisy query sample."""
    kb = generate_knowledge_base(spec)
    encoder_set = build_encoder_set("unimodal-strong", kb, seed=3)
    schema = MultiVectorSchema(encoder_set.dims())
    build_kernel = WeightedMultiVectorKernel(schema, weights)
    corpus = encoder_set.encode_corpus(list(kb)).matrix
    index = MustGraphIndex(
        MustGraphParams(max_degree=12, candidate_pool=32, build_budget=48)
    )
    index.build(corpus, build_kernel)
    rng = derive_rng(5, "e5-queries", spec.domain)
    query_ids = rng.choice(len(kb), size=N_QUERIES, replace=False)
    queries = corpus[query_ids] + 0.05 * rng.standard_normal(
        (N_QUERIES, corpus.shape[1])
    )
    return index, queries


@pytest.fixture(scope="module")
def two_modality_world():
    return build_world(
        DatasetSpec(domain="scenes", size=800, seed=7), weights=[1.4, 0.6]
    )


@pytest.fixture(scope="module")
def three_modality_world():
    from repro.data import Modality

    spec = DatasetSpec(
        domain="movies",
        size=400,
        seed=7,
        modalities=(Modality.TEXT, Modality.IMAGE, Modality.AUDIO),
    )
    return build_world(spec, weights=[1.5, 0.9, 0.6])


def visits_of(index, query):
    """The vertices the served search reads, in the loop's order, and its ids."""
    visits = []
    found = greedy_search(
        index.graph, index.vectors, index.kernel, query, K, budget=BUDGET,
        visit_hook=visits.append,
    )
    assert found.ids == index.search(query, k=K, budget=BUDGET).ids
    return visits, found.ids


def replay(kernel, vectors, query, visits, exact=None):
    """Score ``visits`` in order through ``kernel.single`` against the
    ``BUDGET``-th best distance so far; returns the beam's top ``K``.  Given
    ``exact`` (a second kernel), asserts at every early exit that the
    returned value and the exact distance both exceed the bound."""
    beam = []  # max-heap of (-distance, vertex)
    for vertex in visits:
        bound = -beam[0][0] if len(beam) >= BUDGET else np.inf
        exits = kernel.stats.pruned
        distance = kernel.single(query, vectors[vertex], bound=bound)
        if exact is not None and kernel.stats.pruned > exits:
            assert distance > bound
            assert exact.single(query, vectors[vertex]) > bound
        if distance < bound:
            heapq.heappush(beam, (-distance, vertex))
            if len(beam) > BUDGET:
                heapq.heappop(beam)
    return [vertex for _, vertex in sorted((-d, v) for d, v in beam)[:K]]


def measure(index, queries):
    """The world's counters, exactness and per-query wall times."""
    walks = [visits_of(index, query) for query in queries]

    def fresh():
        """The built kernel with counters of its own."""
        return index.kernel.with_weights(index.kernel.weights)

    pruning, exact = fresh(), fresh()
    kept = [
        replay(pruning, index.vectors, query, visits, exact=exact) == ids
        for query, (visits, ids) in zip(queries, walks)
    ]

    index.kernel.stats.reset()
    for query in queries:
        index.search(query, k=K, budget=BUDGET)
    batch_stats = index.kernel.stats

    def best_ms(run):
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        return 1e3 * min(times) / len(queries)

    scalar = fresh()
    batch_ms = best_ms(lambda: [index.search(query, k=K, budget=BUDGET) for query in queries])
    scalar_ms = best_ms(lambda: [
        replay(scalar, index.vectors, query, visits)
        for query, (visits, _) in zip(queries, walks)
    ])
    return {
        "pruning_rate": pruning.stats.pruning_rate,
        "work_saved": pruning.stats.work_saved,
        "identical": all(kept),
        "batch_saved": batch_stats.work_saved,
        "batch_rate": batch_stats.pruning_rate,
        "batch_ms": batch_ms,
        "scalar_ms": scalar_ms,
    }


def test_benchmark_e5(benchmark, two_modality_world, three_modality_world):
    """Regenerates the pruning table, checks exactness, times both paths."""
    table = ExperimentTable(
        f"E5: incremental-scanning pruning (budget={BUDGET})",
        ["world", "scoring", "pruning rate", "segment work saved",
         "identical results", "ms/query"],
    )
    worlds = {
        "2 modalities (n=800)": measure(*two_modality_world),
        "3 modalities (n=400)": measure(*three_modality_world),
    }
    for world, row in worlds.items():
        table.add_row([world, "bounded scalar", row["pruning_rate"], row["work_saved"],
                       "yes" if row["identical"] else "NO", row["scalar_ms"]])
        table.add_row([world, "batch (served)", row["batch_rate"], row["batch_saved"],
                       "-", row["batch_ms"]])
    report(table)

    # Pruning is exact and saves segment work in both worlds.  (Savings
    # are counted per *segment*; because early segments can be wide, the
    # FLOP saving is larger than the segment saving shown here.)  The
    # served path evaluates every segment of every pair it scores.
    two, three = worlds.values()
    assert two["identical"] and three["identical"]
    assert two["pruning_rate"] > 0.2 and two["work_saved"] > 0.05
    assert three["pruning_rate"] > 0.2 and three["work_saved"] > 0.02
    assert two["batch_saved"] == 0.0 and three["batch_saved"] == 0.0

    index, queries = two_modality_world
    benchmark(lambda: index.search(queries[0], k=K, budget=BUDGET))
