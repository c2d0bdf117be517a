"""Tests for the pipeline-based indexes: NSG, Vamana, nav-must."""

import numpy as np
import pytest

from repro.data import Modality
from repro.distance import MultiVectorSchema, WeightedMultiVectorKernel
from repro.errors import GraphConstructionError
from repro.index import (
    MustGraphIndex,
    MustGraphParams,
    NsgIndex,
    NsgParams,
    VamanaIndex,
    VamanaParams,
)
from repro.pipeline import NodeStatus

from tests.index.conftest import assert_pruning_is_exact, mean_recall


@pytest.fixture(
    scope="module",
    params=[
        lambda: NsgIndex(NsgParams(max_degree=10, knn=24)),
        lambda: VamanaIndex(VamanaParams(max_degree=10, candidate_pool=24, build_budget=32)),
        lambda: MustGraphIndex(MustGraphParams(max_degree=10, candidate_pool=24, build_budget=32)),
    ],
    ids=["nsg", "vamana", "nav-must"],
)
def built(request, corpus, kernel_factory):
    index = request.param()
    index.build(corpus, kernel_factory())
    return index


class TestPipelineIndexes:
    def test_recall(self, built, queries, ground_truth):
        assert mean_recall(built, queries, ground_truth, budget=48) >= 0.75

    def test_graph_connected(self, built):
        graph = built.graph
        reachable = graph.reachable_from(graph.entry_points)
        assert len(reachable) == graph.n_vertices

    def test_degree_bounded(self, built):
        graph = built.graph
        assert all(
            len(graph.neighbors(v)) <= graph.max_degree
            for v in range(graph.n_vertices)
        )

    def test_five_stage_reports(self, built):
        names = [report.name for report in built.stage_reports]
        assert names == ["init", "candidates", "selection", "entry", "connectivity"]
        assert all(r.status is NodeStatus.DONE for r in built.stage_reports)

    def test_describe_mentions_degree(self, built):
        assert "avg degree" in built.describe()

    def test_pruning_flag_preserves_results(self, built, queries):
        """Pruning is no flag now but a bound: each search's scored rows,
        replayed through the bounded ``single`` (E5), keep exactly the rows
        a replay without the bound keeps, and the search under the recording
        kernel returns the plain kernel's ids."""
        schema = MultiVectorSchema({Modality.TEXT: 16, Modality.IMAGE: 16})
        pruned, _ = assert_pruning_is_exact(built, queries[:3], schema, None, 5, 32)
        assert pruned.pruned > 0


class TestMustGraphMultiVector:
    def test_builds_over_weighted_kernel(self):
        schema = MultiVectorSchema({Modality.TEXT: 16, Modality.IMAGE: 16})
        rng = np.random.default_rng(0)
        corpus = rng.standard_normal((150, 32))
        kernel = WeightedMultiVectorKernel(schema, [1.5, 0.5])
        index = MustGraphIndex(MustGraphParams(max_degree=8, candidate_pool=16, build_budget=24))
        index.build(corpus, kernel)
        result = index.search(corpus[3], k=3, budget=24)
        assert result.ids[0] == 3

    def test_param_validation(self):
        with pytest.raises(ValueError):
            MustGraphParams(max_degree=1)
        with pytest.raises(ValueError):
            MustGraphParams(alpha=0.5)
        with pytest.raises(ValueError):
            NsgParams(max_degree=8, knn=4)
        with pytest.raises(ValueError):
            VamanaParams(candidate_pool=4, max_degree=8)
