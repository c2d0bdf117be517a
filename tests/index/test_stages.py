"""Tests for the construction-stage library and the pipeline builder."""

import numpy as np
import pytest

from repro.distance import SingleVectorKernel
from repro.errors import GraphConstructionError
from repro.index import GraphPipelineSpec, build_navigation_graph
from repro.index.stages import (
    candidates_exact_knn,
    connect_repair,
    entry_medoid,
    entry_random,
    exact_top_k,
    init_empty,
    init_random_regular,
    medoid_of,
    select_alpha_rng,
    select_mrng,
)


@pytest.fixture(scope="module")
def small_corpus(unit_vectors):
    return unit_vectors[:80]


@pytest.fixture(scope="module")
def kernel():
    return SingleVectorKernel(32)


def run_context(small_corpus, kernel, **extra):
    context = {"vectors": small_corpus, "kernel": kernel}
    context.update(extra)
    return context


class TestInitStages:
    def test_init_empty(self, small_corpus, kernel):
        graph = init_empty(8)(run_context(small_corpus, kernel))
        assert graph.edge_count == 0
        assert graph.n_vertices == 80

    def test_init_random_regular(self, small_corpus, kernel):
        graph = init_random_regular(8, out_degree=4, seed=0)(
            run_context(small_corpus, kernel)
        )
        histogram = graph.degree_histogram()
        assert set(histogram) == {4}

    def test_init_random_rejects_oversized_degree(self):
        with pytest.raises(GraphConstructionError):
            init_random_regular(4, out_degree=8)


class TestCandidateStages:
    def test_exact_knn_sorted_by_distance(self, small_corpus, kernel):
        lists = candidates_exact_knn(5)(run_context(small_corpus, kernel))
        assert len(lists) == 80
        for vertex, pool in enumerate(lists):
            assert vertex not in pool
            distances = kernel.batch(small_corpus[vertex], small_corpus[pool])
            assert list(distances) == sorted(distances)

    @pytest.mark.parametrize("k", [5, 200])
    def test_exact_top_k_matches_brute_force(self, small_corpus, kernel, k):
        """One block from the middle of the corpus, against a full scan and
        a Python sort by ``(distance, id)``; ``k = 200`` takes every column,
        so the row's own (excluded) column pads the end with ``inf``."""
        ids, distances = exact_top_k(kernel, small_corpus, 30, 50, k)
        for row, vertex in enumerate(range(30, 50)):
            scan = kernel.batch(small_corpus[vertex], small_corpus)
            ranked = sorted((d, j) for j, d in enumerate(scan.tolist()) if j != vertex)[:k]
            assert ids[row, : len(ranked)].tolist() == [j for _, j in ranked]
            assert distances[row, : len(ranked)].tolist() == [d for d, _ in ranked]
            assert np.isinf(distances[row, len(ranked) :]).all()


class TestSelectionStages:
    def test_mrng_bounds_degree(self, small_corpus, kernel):
        context = run_context(small_corpus, kernel)
        context["graph"] = init_empty(6)(context)
        context["candidates"] = candidates_exact_knn(20)(context)
        graph = select_mrng(6)(context)
        assert all(len(graph.neighbors(v)) <= 6 for v in range(80))
        assert graph.edge_count > 0

    def test_alpha_rng_reverse_edges(self, small_corpus, kernel):
        context = run_context(small_corpus, kernel)
        context["graph"] = init_empty(6)(context)
        context["candidates"] = candidates_exact_knn(20)(context)
        graph = select_alpha_rng(6, alpha=1.2)(context)
        # With reverse edges the graph should be roughly symmetric-ish:
        mutual = 0
        total = 0
        for vertex in range(80):
            for neighbor in graph.neighbors(vertex):
                total += 1
                if vertex in graph.neighbors(neighbor):
                    mutual += 1
        assert mutual / total > 0.4

    def test_alpha_below_one_rejected(self):
        with pytest.raises(GraphConstructionError):
            select_alpha_rng(6, alpha=0.9)

    def test_larger_alpha_keeps_more_edges(self, small_corpus, kernel):
        def build(alpha):
            context = run_context(small_corpus, kernel)
            context["graph"] = init_empty(10)(context)
            context["candidates"] = candidates_exact_knn(30)(context)
            return select_alpha_rng(10, alpha=alpha, add_reverse=False)(context)

        strict = build(1.0)
        relaxed = build(2.0)
        assert relaxed.edge_count >= strict.edge_count


class TestEntryAndConnectivity:
    def test_medoid_is_central(self, small_corpus, kernel):
        medoid = medoid_of(small_corpus, kernel)
        centroid = small_corpus.mean(axis=0)
        distances = kernel.batch(centroid, small_corpus)
        assert medoid == int(np.argmin(distances))

    def test_entry_random_count(self, small_corpus, kernel):
        context = run_context(small_corpus, kernel)
        context["graph"] = init_random_regular(8, out_degree=4)(context)
        entries = entry_random(count=3, seed=1)(context)
        assert len(entries) == 3
        assert len(set(entries)) == 3

    def test_entry_random_bad_count(self):
        with pytest.raises(GraphConstructionError):
            entry_random(count=0)

    def test_connect_repair_stage(self, small_corpus, kernel):
        context = run_context(small_corpus, kernel)
        context["graph"] = init_empty(4)(context)
        graph = connect_repair()(context)
        assert len(graph.reachable_from(graph.entry_points)) == 80


class TestPipelineBuilder:
    def test_custom_spec_builds(self, small_corpus, kernel):
        spec = GraphPipelineSpec(
            name="custom-test",
            init=init_random_regular(8, out_degree=4, seed=0),
            candidates=candidates_exact_knn(16),
            selection=select_mrng(8),
            connectivity=connect_repair(),
            entry=entry_medoid(),
        )
        graph, reports = build_navigation_graph(spec, small_corpus, kernel)
        assert graph.is_connected()
        assert [r.name for r in reports] == [
            "init", "candidates", "selection", "entry", "connectivity",
        ]

    def test_empty_corpus_rejected(self, kernel):
        spec = GraphPipelineSpec(
            name="x",
            init=init_empty(4),
            candidates=candidates_exact_knn(4),
            selection=select_mrng(4),
            connectivity=connect_repair(),
            entry=entry_medoid(),
        )
        with pytest.raises(GraphConstructionError):
            build_navigation_graph(spec, np.zeros((0, 32)), kernel)
