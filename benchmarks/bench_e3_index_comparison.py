"""E3 — the navigation-graph index family compared.

Builds flat, HNSW, NSG, Vamana/DiskANN, and the unified nav-must graph over
the same weighted multi-vector corpus, and reports build time, recall@10,
QPS, and per-query distance evaluations.  Expected shape: every graph index
answers with far fewer distance evaluations than the flat scan at high
recall, with the usual build-time hierarchy (NSG's O(n^2) candidates are
the most expensive per object at this scale's parameters, HNSW pays for
its layers, Vamana sits between).
"""

from __future__ import annotations

import time

import pytest

from repro.data import DatasetSpec, generate_knowledge_base
from repro.distance import MultiVectorSchema, WeightedMultiVectorKernel
from repro.encoders import build_encoder_set
from repro.evaluation import ExperimentTable, exact_knn
from repro.index import build_index
from repro.utils import derive_rng

from benchmarks.conftest import report

K = 10
BUDGET = 64
N_QUERIES = 30

INDEXES = (
    ("flat", {}),
    ("ivf", {"n_lists": 48, "nprobe": 6, "kmeans_iters": 6}),
    ("hnsw", {"m": 8, "ef_construction": 48}),
    ("nsg", {"max_degree": 12, "knn": 32}),
    ("vamana", {"max_degree": 12, "candidate_pool": 32, "build_budget": 48}),
    ("nav-must", {"max_degree": 12, "candidate_pool": 32, "build_budget": 48}),
)


@pytest.fixture(scope="module")
def vector_world():
    """A weighted multi-vector corpus + queries + exact ground truth."""
    kb = generate_knowledge_base(DatasetSpec(domain="scenes", size=1200, seed=7))
    encoder_set = build_encoder_set("clip-joint", kb, seed=3)
    schema = MultiVectorSchema(encoder_set.dims())
    kernel = WeightedMultiVectorKernel(schema, [0.8, 1.2])
    corpus = encoder_set.encode_corpus(list(kb)).matrix

    rng = derive_rng(9, "e3-queries")
    query_ids = rng.choice(len(kb), size=N_QUERIES, replace=False)
    queries = corpus[query_ids] + 0.05 * rng.standard_normal(
        (N_QUERIES, corpus.shape[1])
    )
    truth = exact_knn(corpus, kernel.with_weights([0.8, 1.2]), queries, k=K)
    return schema, corpus, queries, truth


def test_benchmark_e3(benchmark, vector_world):
    """Regenerates the index-comparison table and times HNSW search."""
    schema, corpus, queries, truth = vector_world
    table = ExperimentTable(
        f"E3: index comparison (n={corpus.shape[0]}, dim={corpus.shape[1]}, "
        f"recall@{K}, budget={BUDGET})",
        ["index", "build s", "recall", "qps", "dist evals/query"],
    )
    measured = {}
    hnsw_index = None
    for name, params in INDEXES:
        kernel = WeightedMultiVectorKernel(schema, [0.8, 1.2])
        index = build_index(name, params)
        index.build(corpus, kernel)
        recall_total = 0.0
        eval_total = 0
        start = time.perf_counter()
        for query, gt in zip(queries, truth):
            result = index.search(query, k=K, budget=BUDGET)
            recall_total += len(set(result.ids) & set(gt)) / K
            eval_total += result.stats.distance_evaluations
        elapsed = time.perf_counter() - start
        recall = recall_total / len(queries)
        qps = len(queries) / elapsed
        evals = eval_total / len(queries)
        table.add_row([name, index.build_seconds, recall, round(qps, 1), evals])
        measured[name] = (recall, qps, evals)
        if name == "hnsw":
            hnsw_index = index
    report(table)

    flat_recall, flat_qps, flat_evals = measured["flat"]
    assert flat_recall == 1.0
    for name in ("hnsw", "nsg", "vamana", "nav-must"):
        recall, qps, evals = measured[name]
        assert recall >= 0.8, name
        assert evals < flat_evals * 0.5, name  # sublinear work
    # The clustering baseline is honest competition on this concept-
    # structured corpus, but the best graph still reaches at least its
    # recall with fewer distance evaluations.
    ivf_recall, _, ivf_evals = measured["ivf"]
    best_graph_evals = min(
        measured[name][2] for name in ("hnsw", "nsg", "vamana", "nav-must")
    )
    best_graph_recall = max(
        measured[name][0] for name in ("hnsw", "nsg", "vamana", "nav-must")
    )
    assert best_graph_recall >= ivf_recall
    assert best_graph_evals < ivf_evals

    benchmark(lambda: hnsw_index.search(queries[0], k=K, budget=BUDGET))
