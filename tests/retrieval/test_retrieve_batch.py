"""Property tests: a ``retrieve_batch`` response does not depend on its batch.

``retrieve_batch`` is the only retrieval body a framework has
(``retrieve`` is a batch of one), so the property is batch-composition
independence: element ``i`` of a B=N call equals the B=1 call for that
query.  Covers all three frameworks over the shared scenes system: MR
(per-stream batched searches + per-query fusion), JE (one fused batched
search), and MUST (one lockstep traversal of the unified graph, with
per-query rerank and post-filter paths).  Hypothesis draws query subsets
up to the batch cap, per-call modality weights, and result filters; every
response must carry identical ids, bit-identical scores, and identical
search-work counters to the query retrieved alone.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.objects import RawQuery

MAX_BATCH = 32
K = 5
BUDGET = 48

WEIGHT_CHOICES = st.sampled_from(
    [None, {"text": 2.0, "image": 0.5}, {"text": 0.4, "image": 1.6}]
)
FILTER_CHOICES = st.sampled_from([None, 2, 3])


def _queries_for(kb):
    """A deterministic pool of mixed-modality queries over the corpus."""
    pool = []
    for position, obj in enumerate(list(kb)[:40]):
        if position % 3 == 0:
            pool.append(RawQuery.from_text(str(obj.get("text"))))
        else:
            pool.append(
                RawQuery.from_text_and_image(
                    str(obj.get("text")), obj.get("image")
                )
            )
    return pool


def _filter_fn(modulus):
    if modulus is None:
        return None
    return lambda object_id: object_id % modulus != 0


def _assert_equal(framework, queries, kwargs):
    alone = []
    for query in queries:
        (response,) = framework.retrieve_batch([query], k=K, budget=BUDGET, **kwargs)
        alone.append(response)
    batched = framework.retrieve_batch(queries, k=K, budget=BUDGET, **kwargs)
    assert len(batched) == len(alone)
    for position, (left, right) in enumerate(zip(alone, batched)):
        assert left.ids == right.ids, f"query {position} ids diverged"
        left_scores = np.asarray([item.score for item in left.items])
        right_scores = np.asarray([item.score for item in right.items])
        assert left_scores.tobytes() == right_scores.tobytes(), (
            f"query {position} scores diverged"
        )
        assert [item.rank for item in right.items] == list(range(len(right.items)))
        assert left.stats.hops == right.stats.hops
        assert (
            left.stats.distance_evaluations == right.stats.distance_evaluations
        )
        assert left.per_modality_ids == right.per_modality_ids


@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_mr_retrieve_batch_matches_serial(mr, scenes_kb, data):
    pool = _queries_for(scenes_kb)
    positions = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(pool) - 1),
            min_size=1,
            max_size=MAX_BATCH,
        )
    )
    weights = data.draw(WEIGHT_CHOICES)
    modulus = data.draw(FILTER_CHOICES)
    kwargs = {}
    if weights is not None:
        kwargs["weights"] = weights
    if modulus is not None:
        kwargs["filter_fn"] = _filter_fn(modulus)
    _assert_equal(mr, [pool[p] for p in positions], kwargs)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_je_retrieve_batch_matches_serial(je, scenes_kb, data):
    pool = _queries_for(scenes_kb)
    positions = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(pool) - 1),
            min_size=1,
            max_size=MAX_BATCH,
        )
    )
    modulus = data.draw(FILTER_CHOICES)
    kwargs = {}
    if modulus is not None:
        kwargs["filter_fn"] = _filter_fn(modulus)
    _assert_equal(je, [pool[p] for p in positions], kwargs)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_must_retrieve_batch_matches_serial(must, scenes_kb, data):
    pool = _queries_for(scenes_kb)
    positions = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(pool) - 1),
            min_size=1,
            max_size=MAX_BATCH,
        )
    )
    weights = data.draw(WEIGHT_CHOICES)
    modulus = data.draw(FILTER_CHOICES)
    kwargs = {}
    if weights is not None:
        kwargs["weights"] = weights
    if modulus is not None:
        kwargs["filter_fn"] = _filter_fn(modulus)
    _assert_equal(must, [pool[p] for p in positions], kwargs)


def test_retrieve_batch_empty_and_retrieve_is_a_batch_of_one(mr, je, must, scenes_kb):
    query = _queries_for(scenes_kb)[1]
    for framework in (mr, je, must):
        assert framework.retrieve_batch([], k=K) == []
        single = framework.retrieve(query, k=K, budget=BUDGET)
        (batched,) = framework.retrieve_batch([query], k=K, budget=BUDGET)
        assert single.ids == batched.ids
        assert [i.score for i in single.items] == [i.score for i in batched.items]
        assert single.stats == batched.stats
