"""Tests for the contrastive vector-weight learner."""

import numpy as np
import pytest

from repro.data import DatasetSpec, Modality, generate_knowledge_base
from repro.encoders import build_encoder_set
from repro.weights import VectorWeightLearner, WeightLearningConfig

FAST = WeightLearningConfig(steps=25, batch_size=12, n_negatives=4)


class TestConfigValidation:
    def test_bad_steps(self):
        with pytest.raises(ValueError):
            WeightLearningConfig(steps=0)

    @pytest.mark.parametrize("name", ["steps", "batch_size", "n_negatives"])
    @pytest.mark.parametrize("value", [0, -1, 2.5, "many", True, None])
    def test_counts_are_positive_integers(self, name, value):
        with pytest.raises(ValueError, match=name):
            WeightLearningConfig(**{name: value})

    def test_numpy_integers_are_integers(self):
        assert WeightLearningConfig(steps=np.int64(3)).steps == 3

    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            WeightLearningConfig(learning_rate=0)

    def test_bad_momentum(self):
        with pytest.raises(ValueError):
            WeightLearningConfig(momentum=1.0)

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            WeightLearningConfig(temperature=0)

    def test_bad_uniform_pull(self):
        with pytest.raises(ValueError):
            WeightLearningConfig(uniform_pull=-0.1)

    @pytest.mark.parametrize(
        "name", ["learning_rate", "momentum", "temperature", "uniform_pull"]
    )
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), True, False, "0.1", None]
    )
    def test_rates_are_finite_reals(self, name, value):
        """A NaN rate used to pass every ``<=`` check and fail only at the
        indexing node ("modality weights must be finite")."""
        with pytest.raises(ValueError, match=name):
            WeightLearningConfig(**{name: value})

    @pytest.mark.parametrize("value", [1.5, True, "3", None])
    def test_seed_is_an_integer(self, value):
        with pytest.raises(ValueError, match="seed"):
            WeightLearningConfig(seed=value)

    def test_numpy_reals_are_reals(self):
        config = WeightLearningConfig(learning_rate=np.float64(0.1), temperature=np.float32(0.5))
        assert config.learning_rate == 0.1 and config.temperature == 0.5


class TestLearning:
    def test_weights_on_scaled_simplex(self, scenes_kb, uni_set):
        report = VectorWeightLearner(FAST).fit(scenes_kb, uni_set)
        values = np.array(list(report.weights.values()))
        assert (values >= 0).all()
        assert values.sum() == pytest.approx(2.0)

    def test_loss_decreases(self, scenes_kb, uni_set):
        report = VectorWeightLearner(FAST).fit(scenes_kb, uni_set)
        assert report.converged

    def test_noisy_image_world_favours_text(self):
        kb = generate_knowledge_base(
            DatasetSpec(
                domain="scenes",
                size=90,
                seed=1,
                image_noise_sigma=0.9,
                text_drop_probability=0.05,
            )
        )
        encoder_set = build_encoder_set("unimodal-strong", kb, seed=3)
        report = VectorWeightLearner(FAST).fit(kb, encoder_set)
        assert report.weights[Modality.TEXT] > report.weights[Modality.IMAGE]

    def test_noisy_text_world_favours_image(self):
        kb = generate_knowledge_base(
            DatasetSpec(
                domain="scenes",
                size=90,
                seed=1,
                image_noise_sigma=0.02,
                text_drop_probability=0.6,
            )
        )
        encoder_set = build_encoder_set("unimodal-strong", kb, seed=3)
        report = VectorWeightLearner(FAST).fit(kb, encoder_set)
        assert report.weights[Modality.IMAGE] > report.weights[Modality.TEXT]

    def test_deterministic(self, scenes_kb, uni_set):
        a = VectorWeightLearner(FAST).fit(scenes_kb, uni_set)
        b = VectorWeightLearner(FAST).fit(scenes_kb, uni_set)
        assert a.weights == b.weights

    def test_uniform_pull_keeps_interior(self, scenes_kb, uni_set):
        strong_pull = WeightLearningConfig(
            steps=25, batch_size=12, n_negatives=4, uniform_pull=5.0
        )
        report = VectorWeightLearner(strong_pull).fit(scenes_kb, uni_set)
        for weight in report.weights.values():
            assert 0.5 < weight < 1.5

    def test_report_not_converged_when_too_short(self, scenes_kb, uni_set):
        config = WeightLearningConfig(steps=2, batch_size=8, n_negatives=2)
        report = VectorWeightLearner(config).fit(scenes_kb, uni_set)
        assert not report.converged
