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

from repro.distance import SingleVectorKernel
from repro.errors import MQAError
from repro.index import available_indexes, build_index

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
