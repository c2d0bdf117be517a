"""Cross-module property-based tests (hypothesis).

These check structural invariants that must survive *any* input the
generators produce: graph degree/connectivity under random edits and
insertions, fusion-output invariants, and oracle consistency of the
knowledge base's ground truth.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Modality
from repro.distance import MultiVectorSchema, SingleVectorKernel, WeightedMultiVectorKernel
from repro.index import NavigationGraph, greedy_search
from repro.retrieval import FusionStrategy, fuse_rankings


class TestGraphProperties:
    @given(
        n=st.integers(min_value=2, max_value=40),
        degree=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_repair_always_connects(self, n, degree, seed):
        rng = np.random.default_rng(seed)
        graph = NavigationGraph(n, max_degree=degree)
        # random sparse edges, possibly leaving unreachable islands
        for vertex in range(n):
            count = int(rng.integers(0, degree + 1))
            graph.set_neighbors(vertex, rng.integers(0, n, size=count).tolist())
        graph.entry_points = [int(rng.integers(n))]
        graph.connect_unreachable()
        assert len(graph.reachable_from(graph.entry_points)) == n

    @given(
        n=st.integers(min_value=2, max_value=30),
        degree=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_degree_bound_invariant(self, n, degree, seed):
        rng = np.random.default_rng(seed)
        graph = NavigationGraph(n, max_degree=degree)
        for _ in range(n * 3):
            graph.add_edge(int(rng.integers(n)), int(rng.integers(n)))
        for vertex in range(n):
            graph.set_neighbors(vertex, rng.integers(0, n, size=degree * 2).tolist())
            assert len(graph.neighbors(vertex)) <= degree
            assert vertex not in graph.neighbors(vertex)

    @given(seed=st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=20, deadline=None)
    def test_greedy_search_ids_unique_and_sorted(self, seed):
        rng = np.random.default_rng(seed)
        n = 60
        vectors = rng.standard_normal((n, 8))
        graph = NavigationGraph(n, max_degree=5)
        for vertex in range(n):
            graph.set_neighbors(vertex, rng.choice(n, size=5, replace=False).tolist())
        graph.connect_unreachable()
        result = greedy_search(
            graph, vectors, SingleVectorKernel(8), rng.standard_normal(8),
            k=10, budget=20,
        )
        assert len(set(result.ids)) == len(result.ids)
        assert result.distances == sorted(result.distances)


class TestFusionProperties:
    rankings_strategy = st.lists(
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=10, unique=True),
        min_size=1,
        max_size=4,
    )

    @given(rankings=rankings_strategy, k=st.integers(min_value=1, max_value=12))
    @settings(max_examples=80, deadline=None)
    def test_fused_outputs_valid(self, rankings, k):
        distances = [[0.1 * (i + 1) for i in range(len(r))] for r in rankings]
        for strategy in FusionStrategy:
            fused = fuse_rankings(rankings, distances, k, strategy=strategy)
            ids = [object_id for object_id, _ in fused]
            # no duplicates, no inventions, bounded length
            assert len(set(ids)) == len(ids)
            universe = {x for r in rankings for x in r}
            assert set(ids) <= universe
            assert len(ids) <= k
            scores = [score for _, score in fused]
            assert scores == sorted(scores)

    @given(rankings=rankings_strategy)
    @settings(max_examples=40, deadline=None)
    def test_rrf_consensus_dominates(self, rankings):
        # An item ranked first in every stream must come out on top.
        rankings = [[99] + [x for x in r if x != 99] for r in rankings]
        distances = [[0.1 * (i + 1) for i in range(len(r))] for r in rankings]
        fused = fuse_rankings(rankings, distances, k=5, strategy=FusionStrategy.RRF)
        assert fused[0][0] == 99


class TestKernelProperties:
    @given(
        weights=st.lists(
            st.floats(min_value=0.05, max_value=5), min_size=2, max_size=2
        ),
        seed=st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_weighted_distance_symmetry_and_identity(self, weights, seed):
        schema = MultiVectorSchema({Modality.TEXT: 4, Modality.IMAGE: 4})
        kernel = WeightedMultiVectorKernel(schema, weights)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(8)
        b = rng.standard_normal(8)
        assert kernel.single(a, b) == pytest.approx(kernel.single(b, a))
        assert kernel.single(a, a) == pytest.approx(0.0, abs=1e-9)
        assert kernel.single(a, b) >= 0.0

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=30, deadline=None)
    def test_batch_argmin_matches_single_scan(self, seed):
        schema = MultiVectorSchema({Modality.TEXT: 3, Modality.IMAGE: 5})
        kernel = WeightedMultiVectorKernel(schema, [1.2, 0.8])
        rng = np.random.default_rng(seed)
        corpus = rng.standard_normal((25, 8))
        query = rng.standard_normal(8)
        batch_best = int(np.argmin(kernel.batch(query, corpus)))
        best, best_row = np.inf, -1
        for row in range(25):
            distance = kernel.single(query, corpus[row], bound=best)
            if distance < best:
                best, best_row = distance, row
        assert best_row == batch_best


class TestGroundTruthProperties:
    @given(k=st.integers(min_value=1, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_gt_prefix_consistency(self, scenes_kb, k):
        # top-k must be a prefix of top-(k+5).
        latent = scenes_kb.space.compose(["foggy", "clouds"])
        small = scenes_kb.ground_truth_neighbors(latent, k)
        large = scenes_kb.ground_truth_neighbors(latent, k + 5)
        assert large[: len(small)] == small
