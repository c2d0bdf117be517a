"""``HnswIndex.build`` is Malkov & Yashunin's Algorithm 1, node by node.

The oracle below shares nothing with the index but the kernel.  It inserts
the nodes one at a time in id order, each on every layer up to its level:

* candidates — the ``ef_construction`` nearest *earlier* members of the
  layer by ``(distance, id)``, found exactly (what the build's blocked GEMM
  pre-selection and ``batch_paired`` re-scoring compute);
* forward edges — Algorithm 4 with fill-up, selecting ``m`` on *every*
  layer, layer 0 included;
* reverse edges — appended to each selected neighbour's row, which is
  re-selected by the same rule down to its cap ``Mmax`` (``2m`` on layer 0,
  ``m`` above) whenever the arrival pushes it past.

Every layer of ``build`` must equal the oracle's, rows in stored order, on a
corpus without ties and on one where every row has three exact copies.  A
build that selected ``2m`` at layer 0 (FAISS's choice) fails here.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

from repro.index.hnsw import HnswIndex, HnswParams
from tests.index.test_hnsw_bulk_build import KERNELS, _distinct_corpus, _duplicated_corpus

CORPORA = {"distinct": _distinct_corpus, "duplicated": _duplicated_corpus}
PARAMS = {
    "narrow": HnswParams(m=6, ef_construction=10, seed=0),
    "wide": HnswParams(m=6, ef_construction=40, seed=3),
}


def _select(vectors, kernel, ranked: List[Tuple[float, int]], count: int) -> List[int]:
    """Algorithm 4 over ``ranked`` ``(distance, id)`` pairs, ascending: keep
    a candidate unless a kept one is strictly closer to it than the owner
    is, stop at ``count``, then fill up with the nearest rejected ones."""
    ids = [node for _, node in ranked]
    if len(ids) <= count:
        return ids
    pairwise = kernel.matrix(vectors[ids], vectors[ids])
    kept: List[int] = []
    for i, (distance, _) in enumerate(ranked):
        if len(kept) == count:
            break
        if all(pairwise[i, j] >= distance for j in kept):
            kept.append(i)
    kept += [i for i in range(len(ids)) if i not in kept][: count - len(kept)]
    return [ids[i] for i in kept]


def _ranked(vectors, kernel, owner: int, nodes: List[int]) -> List[Tuple[float, int]]:
    distances = kernel.batch(vectors[owner], vectors[nodes])
    return sorted(zip(distances.tolist(), nodes))


def algorithm1(
    vectors, kernel, levels: List[int], params: HnswParams
) -> List[Dict[int, List[int]]]:
    """Insert node after node; returns every layer as ``{node: row}``."""
    m, ef = params.m, params.ef_construction
    layers: List[Dict[int, List[int]]] = [{} for _ in range(max(levels) + 1)]
    for node, level in enumerate(levels):
        for layer in range(level, -1, -1):
            rows = layers[layer]
            earlier = list(rows)
            candidates = _ranked(vectors, kernel, node, earlier)[:ef] if earlier else []
            rows[node] = _select(vectors, kernel, candidates, m)
            cap = 2 * m if layer == 0 else m
            for neighbor in rows[node]:
                row = rows[neighbor] + [node]
                if len(row) > cap:
                    row = _select(vectors, kernel, _ranked(vectors, kernel, neighbor, row), cap)
                rows[neighbor] = row
    return layers


@pytest.mark.parametrize("params_name", sorted(PARAMS))
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
@pytest.mark.parametrize("corpus_name", sorted(CORPORA))
def test_build_is_algorithm_1(corpus_name, kernel_name, params_name):
    params, vectors = PARAMS[params_name], CORPORA[corpus_name]()
    index = HnswIndex(params)
    index.build(vectors, KERNELS[kernel_name]())
    expected = algorithm1(index.vectors, index.kernel, index._node_level, params)
    assert len(index._layers) == len(expected) > 1
    for layer, (got, want) in enumerate(zip(index._layers, expected)):
        assert [(node, list(row)) for node, row in got.items()] == list(want.items()), (
            f"layer {layer}"
        )
    # Layer 0 links m per insert and keeps 2m only as the cap: rows that
    # took no overflowing arrivals sit between the two.
    degrees = [len(row) for row in index._layers[0].values()]
    assert max(degrees) == 2 * params.m and min(degrees) < 2 * params.m
    index.check_invariants()
