"""The one name -> factory table: every component the configuration panel
picks by name (encoder set, index, retrieval framework, LLM, partitioner) is
an entry of a :class:`Registry`, and its parameters are read by the one
reader of declared parameters."""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, MQAError
from repro.utils.checks import _rules


class Registry:
    """Named factories of one kind of component.

    ``register(name, factory, params)`` files ``factory`` with the dataclass
    ``params`` that declares its parameters; a factory that is itself a
    dataclass declares its own.  ``build(name, params)`` reads the mapping
    ``params`` into that dataclass and hands the reading to the factory (the
    reading of a dataclass factory is the component).  A factory that
    declares nothing refuses every parameter and is handed ``{}``."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, Tuple[Callable[..., Any], Optional[type]]] = {}

    def register(
        self, name: str, factory: Callable[..., Any], params: Optional[type] = None
    ) -> None:
        """File ``factory`` under ``name`` (overwrites an existing entry)."""
        if not name:
            raise ConfigurationError(f"{self.kind} name must be non-empty")
        if params is None and dataclasses.is_dataclass(factory):
            params = factory
        self._entries[name] = (factory, params)

    def names(self) -> List[str]:
        """The registered names, sorted."""
        return sorted(self._entries)

    def lookup(self, name: str) -> Tuple[Callable[..., Any], Optional[type]]:
        """``(factory, params)`` filed under ``name``."""
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; available: {', '.join(self.names())}"
            ) from None

    def build(self, name: str, params: "Mapping[str, Any] | None" = None) -> Any:
        """The component ``name`` made from ``params``; a parameter it does
        not declare, or one its declaration refuses, is a
        :class:`ConfigurationError` naming the kind and the component."""
        factory, declared = self.lookup(name)
        try:
            reading = _read(declared, params or {})
        except (TypeError, ValueError, MQAError) as exc:
            raise ConfigurationError(f"{self.kind} {name!r}: {exc}") from None
        return reading if factory is declared else factory(reading)


def _read(cls: Optional[type], params: Mapping) -> Any:
    """``params`` read into the dataclass ``cls``: a key that is no field of
    it is refused, a mapping given for a dataclass-typed field is read the
    same way, and ``cls`` is constructed, so its own checks hold.  Without a
    ``cls`` every key is refused and the reading is ``{}``."""
    kinds = {} if cls is None else {name: kind for name, _, _, _, kind, *_ in _rules(cls)}
    unknown = sorted(str(key) for key in params if key not in kinds)
    if unknown:
        raise ValueError(f"unknown parameters: {', '.join(unknown)}")
    if cls is None:
        return {}
    values = {}
    for key, value in params.items():
        if dataclasses.is_dataclass(kinds[key]) and isinstance(value, Mapping):
            try:
                value = _read(kinds[key], value)
            except (TypeError, ValueError, MQAError) as exc:
                raise ValueError(f"{key}: {exc}") from None
        values[key] = value
    return cls(**values)
