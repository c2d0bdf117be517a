"""The pipeline graphs' candidates are one id array.

NSG, Vamana, nav-must and Starling acquire candidates with
``candidates_exact_knn``, which writes each block's exact top-``k`` into
one ``(n, k)`` ``intp`` array; selection reads pools from it as a padded id
matrix.  No per-vertex list of candidate ids is built: 2 000 lists of 48
fresh ints were 4.4 MB live through a build.  Checked against a test-local
exact oracle (a full scan per row, ranked by ``(distance, id)``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distance import MultiVectorSchema, SingleVectorKernel, WeightedMultiVectorKernel
from repro.index import stages
from repro.index.must_graph import MustGraphParams, must_graph_spec
from repro.index.nsg import NsgParams, nsg_spec
from repro.index.starling import StarlingIndex, StarlingParams
from repro.index.vamana import VamanaParams, vamana_spec

SPECS = {
    "nsg": (lambda: nsg_spec(NsgParams()), 50),
    "vamana": (lambda: vamana_spec(VamanaParams()), 48),
    "nav-must": (lambda: must_graph_spec(MustGraphParams()), 48),
    "starling": (lambda: StarlingIndex(StarlingParams())._inner.spec, 48),
}
KERNELS = {
    "single": lambda: SingleVectorKernel(32),
    "must": lambda: WeightedMultiVectorKernel(
        MultiVectorSchema({"text": 20, "image": 12}), {"text": 0.7, "image": 1.3}
    ),
}


def _exact_oracle(vectors, kernel, k):
    rows = []
    for vertex in range(len(vectors)):
        scan = kernel.batch(vectors[vertex], vectors).tolist()
        ranked = sorted((d, j) for j, d in enumerate(scan) if j != vertex)[:k]
        rows.append([j for _, j in ranked])
    return np.array(rows, dtype=np.intp)


def _is_per_vertex_lists(value):
    return isinstance(value, (list, tuple)) and bool(value) and isinstance(value[0], list)


@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
@pytest.mark.parametrize("name", sorted(SPECS))
def test_candidates_are_one_id_array(unit_vectors, monkeypatch, name, kernel_name):
    make_spec, k = SPECS[name]
    kernel = KERNELS[kernel_name]()
    pools = []
    real = stages.prune_rows

    def spy(kernel, vectors, owners, pools_, max_degree, rule, embedded=None):
        pools.append(pools_)
        return real(kernel, vectors, owners, pools_, max_degree, rule, embedded)

    monkeypatch.setattr(stages, "prune_rows", spy)
    context, _ = make_spec().to_pipeline().run({"vectors": unit_vectors, "kernel": kernel})

    candidates = context["candidates"]
    assert isinstance(candidates, np.ndarray) and candidates.dtype == np.intp
    assert candidates.shape == (len(unit_vectors), k)
    assert np.array_equal(candidates, _exact_oracle(unit_vectors, kernel, k))
    assert not [key for key, value in context.items() if _is_per_vertex_lists(value)]
    # Selection hands its pools on as padded id matrices too: the forward
    # phase one row per vertex, the reverse phase (where there is one) one
    # row per overflowing target.
    assert pools and all(isinstance(p, np.ndarray) and p.dtype == np.intp for p in pools)
    assert len(pools[0]) == len(unit_vectors)


def test_a_stage_returning_id_lists_is_padded_into_one_array(unit_vectors):
    """A custom candidate stage may still return lists; the pipeline pads
    them (``-1``) into the one array selection reads."""
    spec = vamana_spec(VamanaParams(max_degree=6, candidate_pool=10))
    exact = spec.candidates
    spec.candidates = lambda context: [
        row[: 6 + v % 5].tolist() for v, row in enumerate(exact(context))
    ]
    context, _ = spec.to_pipeline().run(
        {"vectors": unit_vectors[:100], "kernel": SingleVectorKernel(32)}
    )
    candidates = context["candidates"]
    assert isinstance(candidates, np.ndarray) and candidates.shape == (100, 10)
    assert (candidates[:, 6:] == -1).sum() == sum(4 - v % 5 for v in range(100))
    graph = context["graph"]
    assert all(len(graph.neighbors(v)) <= 6 and v not in graph.neighbors(v) for v in range(100))
