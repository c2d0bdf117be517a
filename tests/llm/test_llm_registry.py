"""Tests for the LLM registry."""

import pytest

from repro.core import MQAConfig
from repro.errors import ConfigurationError
from repro.llm import MarkovLLM, TemplateLLM, available_llms, build_llm, register_llm


class TestLlmRegistry:
    def test_builtins(self):
        assert {"template", "markov"} <= set(available_llms())

    def test_build_types(self):
        assert isinstance(build_llm("template"), TemplateLLM)
        assert isinstance(build_llm("markov"), MarkovLLM)

    def test_params_forwarded(self):
        llm = build_llm("markov", {"max_words": 15, "seed": 3})
        assert llm.max_words == 15
        assert llm.seed == 3

    def test_unknown(self):
        with pytest.raises(ConfigurationError, match="available"):
            build_llm("gpt-4")

    def test_custom(self):
        register_llm("test-llm", lambda p: TemplateLLM())
        try:
            assert isinstance(build_llm("test-llm"), TemplateLLM)
        finally:
            from repro.llm import registry

            del registry._REGISTRY["test-llm"]

    def test_empty_name(self):
        with pytest.raises(ConfigurationError):
            register_llm("", lambda p: TemplateLLM())


class TestParamsAreCheckedAtConfiguration:
    """``llm_params`` is checked against the configured model's declared
    parameters when the configuration is made, not at ``/apply`` — and an
    unknown key is refused instead of ignored."""

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"latency_ms": "x"}, "latency_ms must be in [0, 3600000], got 'x'"),
            ({"latency_ms": -5.0}, "latency_ms must be in [0, 3600000], got -5.0"),
            ({"latency_ms": float("nan")}, "latency_ms must be in [0, 3600000], got nan"),
            ({"latency_ms": 1e300}, "latency_ms must be in [0, 3600000], got 1e+300"),
            ({"seed": 2.7}, "seed must be an integer, got 2.7"),
            ({"bogus": 1}, "unknown parameters: bogus"),
        ],
        ids=["string", "negative", "nan", "huge", "fractional-seed", "unknown-key"],
    )
    def test_a_bad_value_is_a_configuration_error(self, params, message):
        with pytest.raises(ConfigurationError) as caught:
            MQAConfig(llm_params=params)
        assert str(caught.value) == f"llm 'template': {message}"

    def test_each_model_checks_its_own_parameters(self):
        with pytest.raises(ConfigurationError, match="llm 'markov': max_words must be >= 5"):
            MQAConfig(llm="markov", llm_params={"max_words": 2})
        with pytest.raises(ConfigurationError, match="llm 'markov': unknown parameters: latency_ms"):
            MQAConfig(llm="markov", llm_params={"latency_ms": 1.0})
        config = MQAConfig(llm_params={"latency_ms": 1.5, "seed": 3})
        llm = build_llm(config.llm, config.llm_params)
        assert (llm.seed, llm.latency_ms) == (3, 1.5)
        # Without a model there is nothing to check them against.
        assert MQAConfig(llm="none", llm_params={"latency_ms": 1.5}).llm is None
