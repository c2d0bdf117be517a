"""Tests for the IVF index and the graph diagnostics."""

import numpy as np
import pytest

from repro.errors import GraphConstructionError, SearchError
from repro.index import (
    GraphReport,
    HnswIndex,
    HnswParams,
    IvfIndex,
    IvfParams,
    analyze_graph,
    build_index,
)

from tests.index.conftest import mean_recall


@pytest.fixture(scope="module")
def built_ivf(corpus, kernel_factory):
    index = IvfIndex(IvfParams(n_lists=16, nprobe=4, kmeans_iters=6))
    index.build(corpus, kernel_factory())
    return index


class TestIvf:
    def test_recall_reasonable(self, built_ivf, queries, ground_truth):
        assert mean_recall(built_ivf, queries, ground_truth, budget=64) >= 0.6

    def test_budget_raises_probes_and_recall(self, built_ivf, queries, ground_truth):
        low = mean_recall(built_ivf, queries, ground_truth, budget=16)
        high = mean_recall(built_ivf, queries, ground_truth, budget=256)
        assert high >= low

    def test_all_vectors_assigned(self, built_ivf, corpus):
        assigned = sorted(v for cell in built_ivf._lists for v in cell)
        assert assigned == list(range(len(corpus)))

    def test_self_query_found(self, built_ivf, corpus):
        assert built_ivf.search(corpus[7], k=1).ids[0] == 7

    def test_add_assigns_to_cell(self, built_ivf):
        rng = np.random.default_rng(1)
        vector = rng.standard_normal(32)
        vector /= np.linalg.norm(vector)
        new_id = built_ivf.add(vector)
        assert built_ivf.search(vector, k=1, budget=256).ids[0] == new_id

    def test_admit_filter(self, built_ivf, corpus):
        result = built_ivf.search(corpus[0], k=5, budget=256, admit=lambda i: i % 2 == 0)
        assert all(i % 2 == 0 for i in result.ids)

    def test_registry_entry(self):
        index = build_index("ivf", {"n_lists": 8})
        assert isinstance(index, IvfIndex)
        assert index.params.n_lists == 8

    def test_describe_mentions_cells(self, built_ivf):
        assert "cells" in built_ivf.describe()

    def test_param_validation(self):
        with pytest.raises(ValueError):
            IvfParams(n_lists=0)
        with pytest.raises(ValueError):
            IvfParams(nprobe=0)
        for bad in ({"nprobe": True}, {"n_lists": 2.5}, {"kmeans_iters": 1.0}):
            with pytest.raises(ValueError):
                IvfParams(**bad)

    def test_empty_corpus_rejected(self, kernel_factory):
        with pytest.raises(GraphConstructionError):
            IvfIndex().build(np.zeros((0, 32)), kernel_factory())

    def test_bad_k(self, built_ivf, corpus):
        with pytest.raises(SearchError):
            built_ivf.search(corpus[0], k=0)


class TestDiagnostics:
    def test_healthy_graph_report(self, corpus, kernel_factory):
        index = HnswIndex(HnswParams(m=8, ef_construction=48))
        index.build(corpus, kernel_factory())
        graph = index.base_graph()
        report = analyze_graph(graph, corpus, index.kernel, sample=30)
        assert isinstance(report, GraphReport)
        assert report.n_vertices == len(corpus)
        assert report.reachable_fraction >= 0.99
        assert report.greedy_hit_rate >= 0.8  # self-queries should mostly land
        assert report.average_degree > 1.0
        assert sum(report.degree_histogram.values()) == len(corpus)

    def test_broken_graph_detected(self, corpus, kernel_factory):
        from repro.index import NavigationGraph

        graph = NavigationGraph(len(corpus), max_degree=4)  # edgeless
        report = analyze_graph(graph, corpus, kernel_factory(), sample=20)
        assert report.reachable_fraction < 0.1
        assert report.edge_count == 0

    def test_render(self, corpus, kernel_factory):
        from repro.index import NavigationGraph

        graph = NavigationGraph(len(corpus), max_degree=4)
        report = analyze_graph(graph, corpus, kernel_factory(), sample=5)
        text = report.render()
        assert "vertices" in text
        assert "%" in text
