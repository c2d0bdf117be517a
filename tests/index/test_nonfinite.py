"""A NaN or an infinity never enters an index.

A non-finite distance compares as neither near nor far.  At ``d312f80`` one
NaN row made ``HnswIndex.build`` its own candidate and the link step append
to the row it was iterating until the process ran out of memory; IVF
answered ``[]`` and Vamana / Starling lost the exact match of a stored row;
``add`` took the vector on every index.  Both doors now refuse it — ``build``
in the one prologue (``VectorIndex._corpus_matrix``), ``add`` in
``_append_row`` — with the typed error each index raises for a bad corpus,
and a refused ``add`` leaves the index as it was.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MQAConfig, MQASystem
from repro.data import Modality, RawQuery
from repro.distance import SingleVectorKernel
from repro.encoders import build_encoder_set
from repro.errors import EncodingError, MQAError
from repro.index import available_indexes, build_index
from repro.retrieval import MustRetrieval

DIM = 8
CASES = {name: {} for name in available_indexes()}
CASES["starling-tiered"] = {"tiered": {}}


def _index(case: str):
    return build_index(case.split("-tiered")[0], CASES[case])


def _corpus() -> np.ndarray:
    return np.random.default_rng(0).standard_normal((50, DIM))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", sorted(CASES))
class TestNonFiniteIsRefused:
    def test_build(self, case, bad):
        corpus = _corpus()
        corpus[17, 3] = bad
        index = _index(case)
        with pytest.raises(MQAError, match="non-finite row.*first at 17"):
            index.build(corpus, SingleVectorKernel(DIM))
        assert not index.is_built

    def test_add(self, case, bad):
        corpus = _corpus()
        index = _index(case)
        index.build(corpus, SingleVectorKernel(DIM))
        vector = corpus[3] + 0.01
        vector[5] = bad
        with pytest.raises(MQAError, match="NaN or an infinity"):
            index.add(vector)
        assert index.size == 50
        assert index.search(corpus[3], k=1).ids == [3]
        assert index.add(corpus[3] + 0.01) == 50


@pytest.fixture(scope="module")
def system(scenes_kb):
    config = MQAConfig(
        weight_learning={"steps": 12, "batch_size": 8, "n_negatives": 4},
        index_params={"m": 6, "ef_construction": 32},
    )
    return MQASystem.from_knowledge_base(scenes_kb, config)


@pytest.fixture(scope="module")
def must(scenes_kb):
    retrieval = MustRetrieval()
    retrieval.setup(scenes_kb, build_encoder_set("clip-joint", scenes_kb, seed=3),
                    lambda: build_index("hnsw", {}))
    return retrieval


def _image(scenes_kb, bad: float) -> np.ndarray:
    image = np.array(scenes_kb.get(2).get(Modality.IMAGE), dtype=np.float64)
    image[...] = bad
    return image


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
class TestNonFiniteQueryIsRefused:
    """A query is checked where it is encoded: an all-NaN or ±inf image
    used to come back as a full answer with NaN scores."""

    def test_ask(self, system, scenes_kb, bad):
        rounds = system.session.round_count
        with pytest.raises(EncodingError, match="query image holds a NaN or an infinity"):
            system.ask("sky", image=_image(scenes_kb, bad))
        assert system.session.round_count == rounds
        answer = system.ask("sky", image=scenes_kb.get(2).get(Modality.IMAGE))
        assert answer.items and np.isfinite([item.score for item in answer.items]).all()

    def test_retrieve(self, must, scenes_kb, bad):
        with pytest.raises(EncodingError, match="query image holds a NaN or an infinity"):
            must.retrieve(RawQuery.from_text_and_image("sky", _image(scenes_kb, bad)), k=10)
        image = scenes_kb.get(2).get(Modality.IMAGE)
        found = must.retrieve(RawQuery.from_text_and_image("sky", image), k=10)
        assert np.isfinite([item.score for item in found.items]).all()
