"""Tests for the retrieval-framework registry."""

import pytest

from repro.errors import ConfigurationError
from repro.retrieval import (
    FusionStrategy,
    MultiStreamedRetrieval,
    MustRetrieval,
    available_frameworks,
    build_framework,
    register_framework,
)


class TestFrameworkRegistry:
    def test_builtins(self):
        assert {"mr", "je", "must"} <= set(available_frameworks())

    def test_mr_params(self):
        framework = build_framework("mr", {"fusion": "combsum", "expansion": 5})
        assert isinstance(framework, MultiStreamedRetrieval)
        assert framework.fusion is FusionStrategy.COMBSUM
        assert framework.expansion == 5

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            build_framework("colbert")

    def test_custom(self, registered):
        registered(register_framework, "test-must", lambda p: MustRetrieval())
        assert isinstance(build_framework("test-must"), MustRetrieval)

    def test_empty_name(self):
        with pytest.raises(ConfigurationError):
            register_framework("", lambda p: MustRetrieval())
