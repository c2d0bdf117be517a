"""The pipeline graphs' candidates are one id array, consumed by selection.

NSG, Vamana, nav-must and Starling acquire candidates with
``candidates_exact_knn``, which writes each block's exact top-``k`` into
one ``(n, k)`` ``int32`` array; selection reads its forward pools from it
as one ``int32`` id matrix, hands over-capacity reverse pools on ragged
(``RaggedRows``), and takes the array out of the pipeline context, so it is
freed before the pruning starts.  No per-vertex list of candidate ids is
built: 2 000 lists of 48 fresh ints were 4.4 MB live through a build.
Checked against a test-local exact oracle (a full scan per row, ranked by
``(distance, id)``).
"""

from __future__ import annotations

import weakref

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
    spec = make_spec()
    acquire, made, calls = spec.candidates, [], []

    def candidates(context):
        candidates = acquire(context)
        assert isinstance(candidates, np.ndarray) and candidates.dtype == np.int32
        assert candidates.shape == (len(unit_vectors), k)
        assert np.array_equal(candidates, _exact_oracle(unit_vectors, kernel, k))
        made.append(weakref.ref(candidates))
        return candidates

    real = stages.prune_rows

    def spy(kernel, vectors, owners, pools, max_degree, rule, embedded=None):
        if isinstance(pools, stages.RaggedRows):
            # Reverse: ragged int32 pools, one per overflowing target, each
            # exactly its ids.
            assert pools.ids.dtype == np.int32 and (pools.ids >= 0).all()
            assert pools.offsets[-1] == len(pools.ids) and (np.diff(pools.offsets) > 0).all()
            calls.append(("ragged", len(pools.offsets) - 1, made[0]() is None))
        else:
            assert isinstance(pools, np.ndarray) and pools.dtype == np.int32
            calls.append(("matrix", len(pools), made[0]() is None))
        return real(kernel, vectors, owners, pools, max_degree, rule, embedded)

    spec.candidates = candidates
    monkeypatch.setattr(stages, "prune_rows", spy)
    context, _ = spec.to_pipeline().run({"vectors": unit_vectors, "kernel": kernel})

    # Selection took the candidates out of the context: nothing holds them.
    assert len(made) == 1 and made[0]() is None
    assert "candidates" not in context
    assert not [key for key, value in context.items() if _is_per_vertex_lists(value)]
    # Forward: one int32 id matrix, one row per vertex — for the specs that
    # keep their initial neighbours a new one, the candidates already freed
    # (NSG prunes the candidate array itself).  Reverse, where there is one:
    # ragged pools.
    keeps_neighbors = name != "nsg"
    assert calls[0] == ("matrix", len(unit_vectors), keeps_neighbors)
    assert [kind for kind, _, _ in calls[1:]] == ["ragged"] * keeps_neighbors
    assert all(rows > 0 and freed for _, rows, freed in calls[1:])

def test_a_stage_returning_id_lists_is_padded_into_one_array(unit_vectors):
    """A custom candidate stage may still return lists; the pipeline pads
    them (``-1``) into the one ``int32`` array selection reads."""
    spec = vamana_spec(VamanaParams(max_degree=6, candidate_pool=10))
    exact, select, seen = spec.candidates, spec.selection, []
    spec.candidates = lambda context: [
        row[: 6 + v % 5].tolist() for v, row in enumerate(exact(context))
    ]

    def selection(context):
        seen.append(context["candidates"])
        return select(context)

    spec.selection = selection
    context, _ = spec.to_pipeline().run(
        {"vectors": unit_vectors[:100], "kernel": SingleVectorKernel(32)}
    )
    (candidates,) = seen
    assert isinstance(candidates, np.ndarray) and candidates.shape == (100, 10)
    assert candidates.dtype == np.int32
    assert (candidates[:, 6:] == -1).sum() == sum(4 - v % 5 for v in range(100))
    graph = context["graph"]
    assert all(len(graph.neighbors(v)) <= 6 and v not in graph.neighbors(v) for v in range(100))
