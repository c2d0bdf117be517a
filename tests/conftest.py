"""Shared fixtures.

Session-scoped knowledge bases and encoder sets keep the suite fast: the
synthetic worlds are deterministic, so sharing them across tests loses no
isolation as long as tests treat them as read-only (tests that mutate build
their own instances).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import DatasetSpec, generate_knowledge_base
from repro.encoders import build_encoder_set


@pytest.fixture(scope="session")
def scenes_kb():
    """A small scenes knowledge base (text+image), read-only."""
    return generate_knowledge_base(DatasetSpec(domain="scenes", size=120, seed=7))


@pytest.fixture(scope="session")
def fashion_kb():
    """A small fashion knowledge base (text+image), read-only."""
    return generate_knowledge_base(DatasetSpec(domain="fashion", size=100, seed=11))


@pytest.fixture(scope="session")
def audio_kb():
    """A knowledge base carrying all three modalities, read-only."""
    from repro.data import Modality

    spec = DatasetSpec(
        domain="movies",
        size=60,
        seed=5,
        modalities=(Modality.TEXT, Modality.IMAGE, Modality.AUDIO),
    )
    return generate_knowledge_base(spec)


@pytest.fixture(scope="session")
def clip_set(scenes_kb):
    """Joint CLIP encoder set over the scenes base."""
    return build_encoder_set("clip-joint", scenes_kb, seed=3)


@pytest.fixture(scope="session")
def uni_set(scenes_kb):
    """Unimodal (sequence text + patch image) encoder set."""
    return build_encoder_set("unimodal-strong", scenes_kb, seed=3)


@pytest.fixture(scope="session")
def unit_vectors():
    """600 unit-norm random vectors in 32 dimensions."""
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((600, 32))
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


@pytest.fixture(scope="session")
def unit_queries():
    """20 unit-norm query vectors in 32 dimensions."""
    rng = np.random.default_rng(1)
    matrix = rng.standard_normal((20, 32))
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


@pytest.fixture
def set_default(monkeypatch):
    """``set_default(Component, name=value, ...)`` changes the defaults of a
    constructor's parameters for one test.  A setting that is no
    configuration field is its component's own default; this is how a test
    reaches another value of it through a system built from a config."""

    def patch(component, **values):
        function = component.__init__
        code = function.__code__
        positional = code.co_varnames[: code.co_argcount]
        defaults = list(function.__defaults__ or ())
        named = positional[len(positional) - len(defaults):]
        kwdefaults = dict(function.__kwdefaults__ or {})
        for name, value in values.items():
            if name in named:
                defaults[named.index(name)] = value
            elif name in kwdefaults:
                kwdefaults[name] = value
            else:
                raise TypeError(f"{component.__qualname__} has no default for {name!r}")
        monkeypatch.setattr(function, "__defaults__", tuple(defaults))
        monkeypatch.setattr(function, "__kwdefaults__", kwdefaults or None)

    return patch
