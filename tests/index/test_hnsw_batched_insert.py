"""Tests for the HNSW link step and the insertion path around it.

* ``_link`` folds each row's reverse edges in windows; it is checked against
  the event-by-event ``kernel.batch`` + sort + ``_select_heuristic`` re-prune
  it replaced, over a table-lookup kernel so both sides see *exactly* the
  same distances — quantised, so ``(distance, id)`` ties, ``pairwise ==
  distance`` boundaries and the fill-up step all occur — with histories
  that end before, on and after a window edge;
* ``base_graph()`` is layer 0 itself, before and after ``add``;
* structural invariants and the recall@10 floor hold after ``build`` and
  after 200 interleaved ``add``/``search`` steps, under both kernels.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance import (
    MultiVectorSchema,
    SingleVectorKernel,
    WeightedMultiVectorKernel,
)
from repro.distance.kernel import DistanceKernel
from repro.index import FlatIndex, analyze_graph
from repro.index.hnsw import HnswIndex, HnswParams, select_heuristic_rows


class TableKernel(DistanceKernel):
    """Distances read from a symmetric table; a "vector" is a 1-d node id."""

    def __init__(self, table: np.ndarray) -> None:
        super().__init__()
        self.table = table

    @property
    def dim(self) -> int:
        return 1

    @staticmethod
    def _ids(vectors) -> np.ndarray:
        return np.asarray(vectors)[..., 0].astype(np.intp)

    def batch(self, query, matrix):
        return self.table[self._ids(query), self._ids(np.atleast_2d(matrix))]

    def single(self, query, vector, bound=np.inf):
        return float(self.table[self._ids(query), self._ids(vector)])

    def matrix(self, rows, cols):
        return self.table[self._ids(rows)[..., :, None], self._ids(cols)[..., None, :]]


def _table_index(table: np.ndarray, rows: dict) -> HnswIndex:
    """An index whose only layer holds ``rows``, measured by ``table``."""
    index = HnswIndex(HnswParams(m=2, ef_construction=4))
    index._kernel = TableKernel(table)
    index._vectors = np.arange(table.shape[0], dtype=np.float64)[:, None]
    index._layers = [{owner: list(row) for owner, row in rows.items()}]
    return index


def _row_by_row(index: HnswIndex, owner: int, row, arrivals, m: int) -> list:
    """The deleted per-neighbour re-prune, kept here as the oracle: one
    arrival at a time, re-selecting whenever the row passes the cap."""
    row = list(row)
    for node in arrivals:
        row.append(node)
        if len(row) > m:
            distances = index.kernel.batch(index.vectors[owner], index.vectors[row])
            ranked = sorted(zip((float(d) for d in distances), row))
            row = index._select_heuristic(ranked, m)
    return row


def _quantised_table(rng, n: int) -> np.ndarray:
    """Few distinct values: distance ties and ``pairwise == distance``."""
    table = rng.integers(1, 5, size=(n, n)).astype(np.float64)
    table = np.minimum(table, table.T)
    np.fill_diagonal(table, 0.0)
    return table


class TestBatchedReselection:
    @pytest.mark.parametrize("seed", range(24))
    def test_matches_row_by_row_on_same_distances(self, seed):
        """One call, fifteen targets: rows with no, some and ``m`` free
        slots, each taking 1, ``E - 1``, ``E``, ``E + 1`` and ``3E + 2``
        arrivals, where ``E = m`` is the window ``_link`` folds by."""
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 9))
        old, new = 40, 3 * m + 2 + 8
        table = _quantised_table(rng, old + new)
        rows, incoming = {}, {}
        for free in (0, int(rng.integers(1, m)), m):
            for count in (1, m - 1, m, m + 1, 3 * m + 2):
                target = len(rows)
                others = [v for v in range(old) if v != target]
                rows[target] = [int(v) for v in rng.choice(others, size=m - free, replace=False)]
                arrivals = np.sort(rng.choice(new, size=count, replace=False)) + old
                incoming[target] = [int(v) for v in arrivals]
        index = _table_index(table, rows)
        expected = {t: _row_by_row(index, t, rows[t], incoming[t], m) for t in rows}
        overflow = [len(incoming[t]) - (m - len(rows[t])) for t in rows]
        stats = index._link(0, incoming, m)
        assert index._layers[0] == expected
        assert stats == {
            "reselected_rows": sum(max(o, 0) for o in overflow),
            "targets": sum(o > 0 for o in overflow),
            "windows": sum(-(-o // m) for o in overflow if o > 0),
        }

    def test_a_row_with_room_only_extends(self):
        index = _table_index(_quantised_table(np.random.default_rng(0), 12), {0: [5], 1: []})
        stats = index._link(0, {0: [7, 9], 1: [8, 10, 11]}, 3)
        assert index._layers[0] == {0: [5, 7, 9], 1: [8, 10, 11]}
        assert stats == {"reselected_rows": 0, "targets": 0, "windows": 0}

    def test_fill_up_keeps_rows_saturated(self):
        """An owner far from a tight cluster: the nearest member occludes
        every other one, so all but one slot come from the fill-up step."""
        m = 4
        table = np.ones((8, 8))
        np.fill_diagonal(table, 0.0)
        table[0, 1:] = table[1:, 0] = 10.0
        index = _table_index(table, {0: [5, 3, 7, 2]})
        expected = _row_by_row(index, 0, [5, 3, 7, 2], [6], m)
        index._link(0, {0: [6]}, m)
        assert index._layers[0][0] == expected == [2, 3, 5, 6]

    def test_rule_on_hand_built_arrays(self):
        distances = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 2.0, 2.0]])
        far = np.full((4, 4), 9.0)
        near_first = far.copy()
        near_first[:, 0] = near_first[0, :] = 0.5  # column 0 occludes all others
        keep = select_heuristic_rows(distances, np.stack([far, near_first]), 3)
        # Row 0: nothing occluded, cap stops at three.  Row 1: only column
        # 0 survives the rule, columns 1 and 2 fill up in order.
        assert keep.tolist() == [[0, 1, 2], [0, 1, 2]]
        keep = select_heuristic_rows(distances, np.stack([far, near_first]), 2)
        assert keep.tolist() == [[0, 1], [0, 1]]

    def test_equal_pairwise_is_kept(self):
        """``pairwise >= distance`` keeps the candidate on equality."""
        distances = np.array([[1.0, 2.0, 3.0, 4.0]])
        pairwise = np.full((1, 4, 4), 9.0)
        pairwise[0, 1, 0] = 2.0  # ties column 1's own distance: kept
        pairwise[0, 2, 0] = 2.9  # closer to column 0 than to the owner
        assert select_heuristic_rows(distances, pairwise, 3).tolist() == [[0, 1, 3]]


class TestBaseGraphIsLayerZero:
    def test_one_object_before_and_after_adds(self, corpus, kernel_factory):
        """``base_graph()`` is layer 0's storage, so there is nothing to
        keep in step: the same object, holding the rows search walks."""
        index = HnswIndex(HnswParams(m=4, ef_construction=16))
        index.build(corpus[:64], kernel_factory())
        graph = index.base_graph()
        for row in corpus[64:264]:
            index.add(row)
        assert index.base_graph() is graph is index._layers[0]
        assert graph.n_vertices == index.size == 264
        assert graph.entry_points == [index._entry]
        for node in range(index.size):
            assert graph.neighbors(node) is index._neighbors(0, node)
        index.check_invariants()

    def test_diagnostics_read_it_after_adds(self, corpus, kernel_factory):
        index = HnswIndex(HnswParams(m=4, ef_construction=16))
        index.build(corpus[:64], kernel_factory())
        for row in corpus[64:264]:
            index.add(row)
        graph = index.base_graph()
        assert graph.is_connected()
        report = analyze_graph(graph, index.vectors, index.kernel, sample=20)
        assert report.n_vertices == 264
        assert report.max_degree_used <= 8 == graph.max_degree
        assert report.reachable_fraction == 1.0


K = 10
BUDGET = 64
RECALL_FLOOR = 0.85


def _recall(hnsw: HnswIndex, flat: FlatIndex, queries: np.ndarray) -> float:
    total = 0.0
    for query in queries:
        truth = flat.search(query, k=K).ids
        total += len(set(hnsw.search(query, k=K, budget=BUDGET).ids) & set(truth)) / K
    return total / len(queries)


def _kernels():
    schema = MultiVectorSchema({"text": 10, "image": 6})
    return {
        "single": lambda: SingleVectorKernel(16),
        "must": lambda: WeightedMultiVectorKernel(schema, {"text": 0.6, "image": 1.4}),
    }


@pytest.mark.parametrize("kernel_name", ["single", "must"])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_invariants_and_recall_through_200_steps(kernel_name, seed):
    rng = np.random.default_rng(seed)

    def unit_rows(n):
        rows = rng.normal(size=(n, 16))
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    kernel = _kernels()[kernel_name]()
    initial = unit_rows(80)
    hnsw = HnswIndex(HnswParams(m=6, ef_construction=40, seed=seed % 5))
    hnsw.build(initial, kernel)
    flat = FlatIndex()
    flat.build(initial, kernel)
    hnsw.check_invariants()
    queries = unit_rows(12)
    assert _recall(hnsw, flat, queries) >= RECALL_FLOOR

    for step in range(200):
        if rng.random() < 0.6:
            row = unit_rows(1)[0]
            assert hnsw.add(row) == flat.add(row)
        else:
            result = hnsw.search(unit_rows(1)[0], k=5, budget=BUDGET)
            assert len(set(result.ids)) == 5
        hnsw.check_invariants()
    assert hnsw.size == flat.size > 150
    assert _recall(hnsw, flat, queries) >= RECALL_FLOOR
