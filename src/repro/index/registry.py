"""Pluggable index registry — the configuration panel's "index" options.

Factories take a parameter dictionary so user configurations map directly
onto index construction; custom graphs register the same way ("or initiate
custom graphs via the backend API").
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Tuple

from repro.errors import ConfigurationError
from repro.index.base import VectorIndex
from repro.index.flat import FlatIndex
from repro.index.hnsw import HnswIndex, HnswParams
from repro.index.ivf import IvfIndex, IvfParams
from repro.index.must_graph import MustGraphIndex, MustGraphParams
from repro.index.nsg import NsgIndex, NsgParams
from repro.index.starling import StarlingIndex, StarlingParams
from repro.index.tiered import TieredParams
from repro.index.vamana import VamanaIndex, VamanaParams

IndexFactory = Callable[[Mapping[str, Any]], VectorIndex]

_REGISTRY: Dict[str, IndexFactory] = {}


def register_index(name: str, factory: IndexFactory) -> None:
    """Register ``factory`` under ``name`` (overwrites an existing entry)."""
    if not name:
        raise ConfigurationError("index name must be non-empty")
    _REGISTRY[name] = factory


def available_indexes() -> Tuple[str, ...]:
    """Names of all registered index algorithms."""
    return tuple(sorted(_REGISTRY))


def build_index(name: str, params: "Mapping[str, Any] | None" = None) -> VectorIndex:
    """Instantiate (but not build) the index algorithm called ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        valid = ", ".join(available_indexes())
        raise ConfigurationError(f"unknown index {name!r}; available: {valid}") from None
    return factory(dict(params or {}))


def _params_from(mapping: Mapping[str, Any], cls):
    try:
        return cls(**mapping)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad parameters for {cls.__name__}: {exc}") from None


register_index("flat", lambda p: FlatIndex())
register_index("hnsw", lambda p: HnswIndex(_params_from(p, HnswParams)))
register_index("ivf", lambda p: IvfIndex(_params_from(p, IvfParams)))
register_index("nsg", lambda p: NsgIndex(_params_from(p, NsgParams)))
register_index("vamana", lambda p: VamanaIndex(_params_from(p, VamanaParams)))
register_index("diskann", lambda p: VamanaIndex(_params_from(p, VamanaParams)))
def _starling_params(mapping: Mapping[str, Any]) -> StarlingParams:
    """Starling parameters with the ``inner`` / ``tiered`` sub-configs
    inflated from plain mappings (how they arrive from
    ``MQAConfig.index_params`` / JSON)."""
    nested = {"inner": VamanaParams, "tiered": TieredParams}
    params = {
        key: _params_from(value, nested[key])
        if key in nested and isinstance(value, Mapping) else value
        for key, value in mapping.items()
    }
    return _params_from(params, StarlingParams)


register_index("starling", lambda p: StarlingIndex(_starling_params(p)))
register_index("nav-must", lambda p: MustGraphIndex(_params_from(p, MustGraphParams)))
