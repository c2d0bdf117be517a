"""Pluggable retrieval-framework registry."""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Tuple

from repro.errors import ConfigurationError
from repro.retrieval.base import RetrievalFramework
from repro.retrieval.fusion import FusionStrategy
from repro.retrieval.je import JointEmbeddingRetrieval
from repro.retrieval.mr import MultiStreamedRetrieval
from repro.retrieval.must import MustRetrieval

FrameworkFactory = Callable[[Mapping[str, Any]], RetrievalFramework]

_REGISTRY: Dict[str, FrameworkFactory] = {}


def register_framework(name: str, factory: FrameworkFactory) -> None:
    """Register ``factory`` under ``name`` (overwrites an existing entry)."""
    if not name:
        raise ConfigurationError("framework name must be non-empty")
    _REGISTRY[name] = factory


def available_frameworks() -> Tuple[str, ...]:
    """Names of all registered frameworks."""
    return tuple(sorted(_REGISTRY))


def build_framework(
    name: str, params: "Mapping[str, Any] | None" = None
) -> RetrievalFramework:
    """Instantiate the framework called ``name`` with ``params``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        valid = ", ".join(available_frameworks())
        raise ConfigurationError(
            f"unknown retrieval framework {name!r}; available: {valid}"
        ) from None
    return factory(dict(params or {}))


def _build_mr(params: Mapping[str, Any]) -> MultiStreamedRetrieval:
    fusion = FusionStrategy.parse(params.get("fusion", FusionStrategy.RRF))
    expansion = int(params.get("expansion", 3))
    return MultiStreamedRetrieval(fusion=fusion, expansion=expansion)


register_framework("mr", _build_mr)
register_framework("je", lambda p: JointEmbeddingRetrieval())
register_framework("must", lambda p: MustRetrieval())
