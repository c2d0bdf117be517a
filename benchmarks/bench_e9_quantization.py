"""E9 — scalar-quantization ablation (memory vs accuracy).

Disk-resident serving (E4/Starling territory) pays per-byte; scalar
quantization shrinks vector storage ~8x (SQ8) or ~16x (SQ4) at some
accuracy cost.  This ablation builds the unified multi-vector index over
original, SQ8-decoded, and SQ4-decoded vectors and measures recall against
the full-precision ground truth.  Expected shape: SQ8 is near-lossless,
SQ4 visibly degrades — the standard trade vector databases expose.
"""

from __future__ import annotations

import pytest

from repro.data import DatasetSpec, generate_knowledge_base
from repro.distance import MultiVectorSchema, WeightedMultiVectorKernel
from repro.encoders import build_encoder_set
from repro.evaluation import ExperimentTable, exact_knn
from repro.index import MustGraphIndex, MustGraphParams, ScalarQuantizer
from repro.utils import derive_rng

from benchmarks.conftest import report

K = 10
N_QUERIES = 30


@pytest.fixture(scope="module")
def quantization_sweep():
    kb = generate_knowledge_base(DatasetSpec(domain="scenes", size=800, seed=7))
    encoder_set = build_encoder_set("clip-joint", kb, seed=3)
    schema = MultiVectorSchema(encoder_set.dims())
    kernel = WeightedMultiVectorKernel(schema, [0.9, 1.1])
    corpus = encoder_set.encode_corpus(list(kb)).matrix

    rng = derive_rng(13, "e9-queries")
    query_ids = rng.choice(len(kb), size=N_QUERIES, replace=False)
    queries = corpus[query_ids] + 0.05 * rng.standard_normal(
        (N_QUERIES, corpus.shape[1])
    )
    truth = exact_knn(corpus, kernel.with_weights([0.9, 1.1]), queries, k=K)

    rows = []
    indexes = {}
    for label, bits in (("float64", None), ("sq8", 8), ("sq4", 4)):
        if bits is None:
            stored = corpus
            ratio = 1.0
            error = 0.0
        else:
            quantizer = ScalarQuantizer(bits).fit(corpus)
            stored = quantizer.decode(quantizer.encode(corpus))
            quant_report = quantizer.report(corpus)
            ratio = quant_report.compression_ratio
            error = quant_report.mean_reconstruction_error
        index = MustGraphIndex(
            MustGraphParams(max_degree=12, candidate_pool=32, build_budget=48)
        )
        index.build(stored, kernel.with_weights([0.9, 1.1]))
        recall = 0.0
        for query, gt in zip(queries, truth):
            result = index.search(query, k=K, budget=64)
            recall += len(set(result.ids) & set(gt)) / K
        rows.append((label, ratio, error, recall / N_QUERIES))
        indexes[label] = index
    return rows, indexes, queries


def test_benchmark_e9(benchmark, quantization_sweep):
    """Regenerates the compression sweep and times a search on SQ8 data."""
    rows, indexes, queries = quantization_sweep
    table = ExperimentTable(
        f"E9: scalar-quantization ablation (scenes n=800, unified index, recall@{K})",
        ["storage", "compression", "reconstruction err", "recall vs fp ground truth"],
    )
    for row in rows:
        table.add_row(list(row))
    report(table)

    recalls = {label: recall for label, _, _, recall in rows}
    # SQ8 must be near-lossless; SQ4 coarser than SQ8.
    assert recalls["sq8"] >= recalls["float64"] - 0.05
    assert recalls["sq4"] <= recalls["sq8"] + 0.02
    errors = {label: error for label, _, error, _ in rows}
    assert errors["sq4"] > errors["sq8"] > 0.0

    sq8 = indexes["sq8"]
    benchmark(lambda: sq8.search(queries[0], k=K, budget=64))
