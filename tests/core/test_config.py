"""Tests for MQAConfig validation."""

import pytest

from repro.core import MQAConfig, WeightMode
from repro.data import DatasetSpec
from repro.errors import ConfigurationError


BAD_WEIGHT_LEARNING = [
    ({"stepz": 3}, "stepz"),
    ({"steps": "many"}, "steps"),
    ({"batch_size": 0}, "batch_size"),
    ({"n_negatives": 0}, "n_negatives"),
    ({"batch_size": 2.5}, "batch_size"),
]


class TestValidation:
    def test_defaults_valid(self):
        MQAConfig()  # must not raise

    def test_unknown_domain(self):
        with pytest.raises(ConfigurationError, match="domain"):
            MQAConfig(dataset=DatasetSpec(domain="galaxies"))

    def test_unknown_encoder_set(self):
        with pytest.raises(ConfigurationError, match="encoder"):
            MQAConfig(encoder_set="resnet-152")

    def test_unknown_index(self):
        with pytest.raises(ConfigurationError, match="index"):
            MQAConfig(index="faiss")

    def test_unknown_framework(self):
        with pytest.raises(ConfigurationError, match="framework"):
            MQAConfig(framework="colbert")

    def test_unknown_llm(self):
        with pytest.raises(ConfigurationError, match="llm"):
            MQAConfig(llm="gpt-4")

    def test_llm_none_allowed(self):
        MQAConfig(llm=None)

    def test_fixed_mode_needs_weights(self):
        with pytest.raises(ConfigurationError, match="fixed_weights"):
            MQAConfig(weight_mode="fixed")

    def test_fixed_mode_with_weights(self):
        config = MQAConfig(weight_mode="fixed", fixed_weights={"text": 1.0, "image": 1.0})
        assert config.weight_mode is WeightMode.FIXED

    def test_weight_mode_parsed_from_string(self):
        assert MQAConfig(weight_mode="equal").weight_mode is WeightMode.EQUAL

    def test_bad_weight_mode(self):
        with pytest.raises(ConfigurationError):
            MQAConfig(weight_mode="auto")

    def test_bad_result_count(self):
        with pytest.raises(ConfigurationError):
            MQAConfig(result_count=0)

    def test_bad_temperature(self):
        with pytest.raises(ConfigurationError):
            MQAConfig(temperature=5.0)

    def test_bad_budget(self):
        with pytest.raises(ConfigurationError):
            MQAConfig(search_budget=0)

    @pytest.mark.parametrize("overrides, names", BAD_WEIGHT_LEARNING)
    def test_bad_weight_learning_is_refused_before_set_up(self, overrides, names):
        # These used to validate and then kill the representation stage,
        # after the knowledge base had been generated.
        with pytest.raises(ConfigurationError, match=names):
            MQAConfig(dataset=DatasetSpec("scenes", size=50), weight_learning=overrides)

    def test_learned_weights_need_two_objects(self):
        with pytest.raises(ConfigurationError, match="at least two"):
            MQAConfig(dataset=DatasetSpec("scenes", size=1))
        for mode in ("equal", "fixed"):
            MQAConfig(
                dataset=DatasetSpec("scenes", size=1),
                weight_mode=mode,
                fixed_weights={"text": 1.0, "image": 1.0},
            )

    def test_weight_learning_is_only_read_when_learning(self):
        MQAConfig(weight_mode="equal", weight_learning={"stepz": 3})


class TestSummary:
    def test_mentions_choices(self):
        summary = MQAConfig().summary()
        assert summary["framework"] == "must"
        assert summary["index"] == "hnsw"
        assert "scenes" not in summary["knowledge base"]  # default is fashion

    def test_llm_only_mode(self):
        summary = MQAConfig(external_knowledge=False).summary()
        assert "LLM-only" in summary["knowledge base"]

    def test_no_llm(self):
        assert MQAConfig(llm=None).summary()["llm"] == "none"
