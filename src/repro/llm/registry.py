"""Pluggable LLM registry — the configuration panel's "LLM" options."""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Callable, Dict, Mapping, Tuple

from repro.errors import ConfigurationError
from repro.llm.attribute_qa import AttributeQALLM
from repro.llm.base import LanguageModel
from repro.llm.markov_llm import MarkovLLM
from repro.llm.template_llm import TemplateLLM

LLMFactory = Callable[[Mapping[str, Any]], LanguageModel]

_REGISTRY: Dict[str, LLMFactory] = {}


def register_llm(name: str, factory: LLMFactory) -> None:
    """Register ``factory`` under ``name`` (overwrites an existing entry)."""
    if not name:
        raise ConfigurationError("llm name must be non-empty")
    _REGISTRY[name] = factory


def available_llms() -> Tuple[str, ...]:
    """Names of all registered language models."""
    return tuple(sorted(_REGISTRY))


def build_llm(name: str, params: "Mapping[str, Any] | None" = None) -> LanguageModel:
    """Instantiate the language model called ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        valid = ", ".join(available_llms())
        raise ConfigurationError(f"unknown llm {name!r}; available: {valid}") from None
    return factory(dict(params or {}))


def _declared(cls: type) -> LLMFactory:
    """The factory of a model whose parameters are its declared fields: an
    unknown key or an illegal value is refused naming the model."""

    def factory(params: Mapping[str, Any]) -> LanguageModel:
        unknown = set(map(str, params)) - {spec.name for spec in fields(cls)}
        if unknown:
            raise ConfigurationError(
                f"llm {cls.name!r}: unknown parameters: {', '.join(sorted(unknown))}"
            )
        try:
            return cls(**params)
        except (ValueError, ConfigurationError) as exc:
            raise ConfigurationError(f"llm {cls.name!r}: {exc}") from None

    return factory


register_llm("template", _declared(TemplateLLM))
register_llm("attribute-qa", _declared(AttributeQALLM))
register_llm("markov", _declared(MarkovLLM))
