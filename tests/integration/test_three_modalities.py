"""Integration: the full stack over a three-modality knowledge base.

The paper's data-preprocessing example stores a movie's film (audio stands
in), poster, and synopsis as one object; these tests run MUST and MR over
text+image+audio and check the weight learner handles three modalities.
"""

import numpy as np
import pytest

from repro.data import DatasetSpec, Modality, RawQuery, generate_knowledge_base
from repro.encoders import build_encoder_set
from repro.evaluation import text_queries, evaluate_framework
from repro.index import build_index
from repro.retrieval import build_framework
from repro.weights import VectorWeightLearner, WeightLearningConfig


@pytest.fixture(scope="module")
def movie_world():
    spec = DatasetSpec(
        domain="movies",
        size=150,
        seed=5,
        modalities=(Modality.TEXT, Modality.IMAGE, Modality.AUDIO),
    )
    kb = generate_knowledge_base(spec)
    encoder_set = build_encoder_set("unimodal-strong", kb, seed=3)
    return kb, encoder_set


class TestThreeModalities:
    def test_weight_learning_over_three(self, movie_world):
        kb, encoder_set = movie_world
        config = WeightLearningConfig(steps=15, batch_size=8, n_negatives=4)
        report = VectorWeightLearner(config).fit(kb, encoder_set)
        assert len(report.weights) == 3
        assert sum(report.weights.values()) == pytest.approx(3.0)
        # Audio is rendered with smoothing + the most noise; it should not
        # come out as the single most trusted modality.
        assert report.weights[Modality.AUDIO] < max(report.weights.values())

    def test_must_retrieves_over_three(self, movie_world):
        kb, encoder_set = movie_world
        framework = build_framework("must")
        framework.setup(
            kb, encoder_set, lambda: build_index("hnsw", {"m": 6, "ef_construction": 32})
        )
        assert framework.schema.total_dim == sum(encoder_set.dims().values())
        workload = text_queries(kb, 10, k=5, seed=1)
        score = evaluate_framework(framework, workload, k=5)
        assert score.recall > 0.2

    def test_mr_runs_three_streams(self, movie_world):
        kb, encoder_set = movie_world
        framework = build_framework("mr")
        framework.setup(kb, encoder_set, lambda: build_index("flat"))
        obj = kb.get(0)
        query = RawQuery(
            content={
                Modality.TEXT: obj.get(Modality.TEXT),
                Modality.IMAGE: obj.get(Modality.IMAGE),
                Modality.AUDIO: obj.get(Modality.AUDIO),
            }
        )
        response = framework.retrieve(query, k=5, budget=64)
        assert set(response.per_modality_ids) == {
            Modality.TEXT, Modality.IMAGE, Modality.AUDIO,
        }
        assert response.ids[0] == 0  # all three streams agree on the source

    def test_pruning_saves_more_with_three_segments(self, movie_world):
        from repro.distance import MultiVectorSchema, WeightedMultiVectorKernel

        kb, encoder_set = movie_world
        matrix = encoder_set.encode_corpus(list(kb)).matrix
        kernel = WeightedMultiVectorKernel(MultiVectorSchema(encoder_set.dims()))
        query = matrix[0]
        best = np.inf
        for row in range(matrix.shape[0]):
            distance = kernel.single(query, matrix[row], bound=best)
            best = min(best, distance)
        assert kernel.stats.work_saved > 0.2
