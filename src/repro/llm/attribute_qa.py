"""Grounded attribute question answering over retrieved context.

Retrieval-augmented QA is more than summarising: once results are on
screen, users ask *about* them — "which of these are french?", "how many
are moldy?".  This model answers such questions strictly from the retrieved
descriptions (set membership and counting are exact), and delegates
everything else to a wrapped conversational model.  Because every claim is
derived from context items, its answers always pass the grounding check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional

from repro.llm.base import GenerationRequest, GenerationResult, LanguageModel
from repro.llm.template_llm import TemplateLLM
from repro.utils import check_fields

_WHICH_PATTERN = re.compile(r"\bwhich (?:of (?:these|them|the results) )?(?:are|is|have|has)\b (.+)")
_COUNT_PATTERN = re.compile(r"\bhow many (?:of (?:these|them|the results) )?(?:are|is|have|has)?\b(.*)")


@dataclass(eq=False)
class AttributeQALLM(LanguageModel):
    """Answers attribute questions about the retrieved items.

    Args:
        fallback: Model used for non-question turns (defaults to
            :class:`TemplateLLM`).
    """

    name = "attribute-qa"

    fallback: Optional[LanguageModel] = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        self.fallback = self.fallback or TemplateLLM(seed=self.seed)

    @staticmethod
    def _attribute_terms(raw: str) -> List[str]:
        """The meaningful attribute words of a question tail."""
        stop = {"a", "an", "the", "ones", "one", "of", "these", "them", "?", ""}
        return [
            token.strip("?.,!").lower()
            for token in raw.split()
            if token.strip("?.,!").lower() not in stop
        ]

    def _matching_items(self, request: GenerationRequest, terms: List[str]):
        matches = []
        for item in request.context:
            description = item.description.lower()
            if all(term in description.split() for term in terms):
                matches.append(item)
        return matches

    def _answer_which(self, request: GenerationRequest, raw_terms: str) -> Optional[GenerationResult]:
        terms = self._attribute_terms(raw_terms)
        if not terms:
            return None
        matches = self._matching_items(request, terms)
        pretty = " ".join(terms)
        if not matches:
            text = f"None of the retrieved items mention {pretty!r}."
            return GenerationResult(text=text, cited_object_ids=(), grounded=True, model=self.name)
        listed = ", ".join(f"#{item.object_id}" for item in matches)
        text = (
            f"Of the retrieved items, {listed} "
            f"{'matches' if len(matches) == 1 else 'match'} {pretty!r}."
        )
        return GenerationResult(
            text=text,
            cited_object_ids=tuple(item.object_id for item in matches),
            grounded=True,
            model=self.name,
        )

    def _answer_count(self, request: GenerationRequest, raw_terms: str) -> Optional[GenerationResult]:
        terms = self._attribute_terms(raw_terms)
        if not terms:
            return None
        matches = self._matching_items(request, terms)
        pretty = " ".join(terms)
        cited = tuple(item.object_id for item in matches)
        listed = (
            " (" + ", ".join(f"#{i}" for i in cited) + ")" if cited else ""
        )
        text = f"{len(matches)} of the retrieved items mention {pretty!r}{listed}."
        return GenerationResult(
            text=text, cited_object_ids=cited, grounded=True, model=self.name
        )

    def generate(self, request: GenerationRequest, temperature: float = 0.0) -> GenerationResult:
        temperature = self._check_temperature(temperature)
        if request.context:
            lowered = request.user_query.lower()
            which = _WHICH_PATTERN.search(lowered)
            if which:
                result = self._answer_which(request, which.group(1))
                if result is not None:
                    return result
            count = _COUNT_PATTERN.search(lowered)
            if count and count.group(1).strip():
                result = self._answer_count(request, count.group(1))
                if result is not None:
                    return result
        return self.fallback.generate(request, temperature=temperature)
