"""Per-query weights are answered by the index, under those weights.

``MustRetrieval.retrieve(..., weights=w)`` hands ``kernel.with_weights(w)``
to ``search_batch``; every index takes the override, so the answer is the
index's answer *under the requested weights* — not its answer under the
built weights, re-ordered.  The oracle is the brute-force top-k of the
re-weighted kernel over the stacked corpus: the exact index must return it
to the bit, the graph indexes must find it, and IVF (whose cells were cut
under the built weights) must lose no more to a re-weighting than a few
points of its own recall at the built weights.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import DatasetSpec, generate_knowledge_base
from repro.distance import SingleVectorKernel, WeightedMultiVectorKernel
from repro.encoders import build_encoder_set
from repro.errors import SearchError
from repro.evaluation import composed_queries
from repro.index import build_index
from repro.retrieval import MustRetrieval

K = 10
BUDGET = 64
BUILT = {"text": 0.78, "image": 1.22}
WEIGHTINGS = {
    "text-heavy": {"text": 1.8, "image": 0.2},
    "image-heavy": {"text": 0.2, "image": 1.8},
    "equal": {"text": 1.0, "image": 1.0},
}
TIERED = {"tiered": {"bits": 8, "rerank_factor": 4, "mmap_cache_blocks": 32}}
INDEXES = {
    "flat": ("flat", {}),
    "hnsw": ("hnsw", {}),
    "ivf": ("ivf", {}),
    "starling": ("starling", {}),
    "starling-tiered": ("starling", TIERED),
    "nav-must": ("nav-must", {}),
}


@pytest.fixture(scope="module")
def kb():
    return generate_knowledge_base(DatasetSpec(domain="scenes", size=400, seed=7))


@pytest.fixture(scope="module")
def encoders(kb):
    return build_encoder_set("clip-joint", kb, seed=3)


@pytest.fixture(scope="module")
def queries(kb):
    return [query.raw for query in composed_queries(kb, 40, k=K, seed=1)]


@pytest.fixture(scope="module")
def frameworks(kb, encoders):
    built = {}
    for label, (name, params) in INDEXES.items():
        framework = MustRetrieval()
        framework.setup(
            kb, encoders, lambda: build_index(name, dict(params)), weights=BUILT
        )
        built[label] = framework
    yield built
    built["starling-tiered"]._index.tiered.close()


@pytest.fixture(scope="module")
def oracle(frameworks, queries):
    """``{weighting: (ids, distances)}`` — the exact top-k under each
    weighting (``None`` = the built weights), ties broken by id."""
    flat = frameworks["flat"]
    matrix = flat._index.vectors
    concatenated = np.stack([
        flat.schema.concat(vectors)
        for vectors in flat.encoder_set.encode_query_batch(queries)
    ])
    ids = np.arange(matrix.shape[0])[None, :].repeat(len(queries), axis=0)
    exact = {}
    for label, weights in {None: BUILT, **WEIGHTINGS}.items():
        distances = flat._kernel.with_weights(weights).batch_many(concatenated, matrix)
        top = np.lexsort((ids, distances), axis=1)[:, :K]
        exact[label] = (top, np.take_along_axis(distances, top, axis=1))
    return exact


def _recall(framework, queries, exact, weights):
    found = [
        len(set(framework.retrieve(query, k=K, budget=BUDGET, weights=weights).ids)
            & set(want.tolist())) / K
        for query, want in zip(queries, exact[0])
    ]
    return sum(found) / len(found)


@pytest.mark.parametrize("weighting", sorted(WEIGHTINGS))
def test_flat_returns_the_reweighted_oracle_to_the_bit(
    frameworks, queries, oracle, weighting
):
    want_ids, want_distances = oracle[weighting]
    for row, query in enumerate(queries):
        response = frameworks["flat"].retrieve(
            query, k=K, budget=BUDGET, weights=WEIGHTINGS[weighting]
        )
        assert response.ids == want_ids[row].tolist(), f"read {row}"
        scores = np.asarray([item.score for item in response.items])
        assert scores.tobytes() == want_distances[row].tobytes(), f"read {row}"


@pytest.mark.parametrize("weighting", sorted(WEIGHTINGS))
@pytest.mark.parametrize("name", ["hnsw", "starling", "starling-tiered", "nav-must"])
def test_graph_indexes_find_the_reweighted_oracle(
    frameworks, queries, oracle, name, weighting
):
    recall = _recall(frameworks[name], queries, oracle[weighting], WEIGHTINGS[weighting])
    assert recall >= 0.95, f"{name} {weighting}: recall@{K} {recall:.3f}"


@pytest.mark.parametrize("weighting", sorted(WEIGHTINGS))
def test_ivf_loses_little_to_a_reweighting(frameworks, queries, oracle, weighting):
    built = _recall(frameworks["ivf"], queries, oracle[None], None)
    recall = _recall(frameworks["ivf"], queries, oracle[weighting], WEIGHTINGS[weighting])
    assert recall >= built - 0.05, f"{weighting}: {recall:.3f} vs {built:.3f} built"


@pytest.mark.parametrize("name", sorted(INDEXES))
def test_a_wrong_width_override_is_refused(frameworks, name):
    index = frameworks[name]._index
    query = np.zeros(index.kernel.dim)
    with pytest.raises(SearchError, match="override kernel dim 8 != index dim"):
        index.search(query, k=K, kernel=SingleVectorKernel(8))


@pytest.mark.parametrize("name", ["hnsw", "starling"])
def test_incremental_scanning_reaches_every_graph_index(frameworks, queries, name):
    """A ``prune=True`` kernel handed to MUST's default index prunes too:
    same ids as the built kernel, with early exits counted."""
    framework = frameworks[name]
    concatenated = np.stack([
        framework.schema.concat(vectors)
        for vectors in framework.encoder_set.encode_query_batch(queries)
    ])
    plain = WeightedMultiVectorKernel(framework.schema, BUILT)
    pruned = WeightedMultiVectorKernel(framework.schema, BUILT, prune=True)
    want = framework._index.search_batch(concatenated, k=K, budget=BUDGET, kernel=plain)
    got = framework._index.search_batch(concatenated, k=K, budget=BUDGET, kernel=pruned)
    assert [result.ids for result in got] == [result.ids for result in want]
    assert plain.stats.pruned == 0
    assert pruned.stats.pruned > 0
    assert pruned.stats.segments_evaluated < plain.stats.segments_evaluated
