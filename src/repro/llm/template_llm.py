"""The deterministic, fully grounded template LLM.

Composes natural-sounding replies strictly from the retrieved context:
every object it mentions is cited as ``#id`` and appears in the request's
context, so its answers always pass the grounding check.  Without context
(external knowledge disabled) it answers honestly that it is falling back
to parametric knowledge — the behaviour the paper's "LLM-only" mode needs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

from repro.errors import ConfigurationError
from repro.llm.base import GenerationRequest, GenerationResult, LanguageModel
from repro.utils import check_fields, derive_rng, param
from repro.utils.timing import MAX_SLEEP_MS

_OPENERS = (
    "Here is what I found",
    "I looked through the knowledge base",
    "Good news",
    "These results match your request",
)
_REFINE_OPENERS = (
    "Building on your selection",
    "Taking your preference into account",
    "Refining from the item you liked",
)


@dataclass(eq=False)
class TemplateLLM(LanguageModel):
    """Grounded template-based generation.

    Args:
        seed: Controls which phrasing variant a given request selects
            (temperature widens the variant pool; the choice stays a pure
            function of request + seed + temperature).
        latency_ms: Simulated per-call generation latency.  The production
            MQA demo calls a remote LLM (ChatGPT) over the network; this
            knob models that downstream wait so concurrency experiments
            exercise the regime the system actually serves in.  The sleep
            releases the GIL, exactly as a network wait would.  ``0``
            (the default) keeps generation instantaneous.
    """

    name = "template"

    seed: int = 0
    latency_ms: float = param(0.0, ge=0, le=MAX_SLEEP_MS)

    def __post_init__(self) -> None:
        check_fields(self, ConfigurationError)

    def _pick(self, options: "tuple[str, ...]", request: GenerationRequest, temperature: float) -> str:
        if temperature == 0.0:
            return options[0]
        rng = derive_rng(self.seed, "template-phrase", request.user_query, len(request.history))
        pool = max(1, min(len(options), int(1 + temperature * (len(options) - 1))))
        return options[int(rng.integers(pool))]

    def generate(self, request: GenerationRequest, temperature: float = 0.0) -> GenerationResult:
        temperature = self._check_temperature(temperature)
        if self.latency_ms > 0:
            time.sleep(self.latency_ms / 1000.0)
        if not request.context:
            text = (
                "I do not have a knowledge base attached, so this answer relies on "
                f"my own parametric knowledge and may be incomplete: regarding "
                f"{request.user_query!r}, I cannot point to any verified item."
            )
            return GenerationResult(
                text=text, cited_object_ids=(), grounded=False, model=self.name
            )

        preferred = [item for item in request.context if item.preferred]
        openers = _REFINE_OPENERS if preferred or request.history else _OPENERS
        opener = self._pick(openers, request, temperature)

        lines: List[str] = []
        image_note = " and the image you provided" if request.had_image else ""
        lines.append(
            f"{opener}: based on your request {request.user_query!r}{image_note}, "
            f"the top match is object #{request.context[0].object_id} — "
            f"\"{request.context[0].description}\"."
        )
        if len(request.context) > 1:
            others = ", ".join(f"#{item.object_id}" for item in request.context[1:4])
            lines.append(f"Close alternatives: {others}.")
        if preferred:
            marks = ", ".join(f"#{item.object_id}" for item in preferred)
            lines.append(f"(Preference markers kept from earlier rounds: {marks}.)")
        lines.append("Select any result to refine the search further.")
        cited = tuple(item.object_id for item in request.context[:4])
        return GenerationResult(
            text=" ".join(lines), cited_object_ids=cited, grounded=True, model=self.name
        )
