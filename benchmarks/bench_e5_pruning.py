"""E5 — the incremental-scanning (computational pruning) ablation.

Runs the same nav-must graph searches under the built kernel and under a
``prune=True`` copy of it handed over as ``kernel=`` (pruning is the
kernel's switch), and reports the fraction of per-modality segment
evaluations the early exit avoids.
Correctness requirement: pruning is exact — both modes return identical
results on every query.
"""

from __future__ import annotations

import pytest

from repro.data import DatasetSpec, generate_knowledge_base
from repro.distance import MultiVectorSchema, WeightedMultiVectorKernel
from repro.encoders import build_encoder_set
from repro.evaluation import ExperimentTable
from repro.index import MustGraphIndex, MustGraphParams
from repro.utils import derive_rng

from benchmarks.conftest import report

K = 10
BUDGET = 64
N_QUERIES = 30


def build_world(spec: DatasetSpec, weights):
    """A nav-must index over the given world + query sample, and a pruning
    kernel under the index's own weights."""
    kb = generate_knowledge_base(spec)
    encoder_set = build_encoder_set("unimodal-strong", kb, seed=3)
    schema = MultiVectorSchema(encoder_set.dims())
    build_kernel = WeightedMultiVectorKernel(schema, weights)
    corpus = build_kernel.stack_corpus(encoder_set.encode_corpus(list(kb)))
    index = MustGraphIndex(
        MustGraphParams(max_degree=12, candidate_pool=32, build_budget=48)
    )
    index.build(corpus, build_kernel)
    rng = derive_rng(5, "e5-queries", spec.domain)
    query_ids = rng.choice(len(kb), size=N_QUERIES, replace=False)
    queries = corpus[query_ids] + 0.05 * rng.standard_normal(
        (N_QUERIES, corpus.shape[1])
    )
    return WeightedMultiVectorKernel(schema, weights, prune=True), index, queries


@pytest.fixture(scope="module")
def pruning_world():
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


def run_mode(index, queries, kernel):
    kernel.stats.reset()
    results = [
        index.search(query, k=K, budget=BUDGET, kernel=kernel).ids
        for query in queries
    ]
    return results, kernel.stats.pruning_rate, kernel.stats.work_saved


def test_benchmark_e5(benchmark, pruning_world, three_modality_world):
    """Regenerates the pruning table, checks exactness, times pruned search."""
    pruning, index, queries = pruning_world
    pruned_results, pruning_rate, work_saved = run_mode(index, queries, pruning)
    full_results, full_rate, full_saved = run_mode(index, queries, index.kernel)
    pruning3, index3, queries3 = three_modality_world
    pruned3, rate3, saved3 = run_mode(index3, queries3, pruning3)
    full3, _, _ = run_mode(index3, queries3, index3.kernel)

    table = ExperimentTable(
        f"E5: incremental-scanning pruning (budget={BUDGET})",
        ["world", "mode", "pruning rate", "segment work saved", "identical results"],
    )
    identical = pruned_results == full_results
    identical3 = pruned3 == full3
    table.add_row(
        ["2 modalities (n=800)", "pruned", pruning_rate, work_saved,
         "yes" if identical else "NO"]
    )
    table.add_row(["2 modalities (n=800)", "full", full_rate, full_saved, "-"])
    table.add_row(
        ["3 modalities (n=400)", "pruned", rate3, saved3,
         "yes" if identical3 else "NO"]
    )
    report(table)

    # Pruning is exact and actually saves work in both worlds.  (Savings
    # are counted per *segment*; because early segments can be wide, the
    # FLOP saving is larger than the segment saving shown here.)
    assert identical and identical3
    assert pruning_rate > 0.2
    assert work_saved > 0.05
    assert full_saved == 0.0
    assert rate3 > 0.2 and saved3 > 0.02

    benchmark(
        lambda: index.search(queries[0], k=K, budget=BUDGET, kernel=pruning)
    )
