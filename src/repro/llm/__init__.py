"""Answer-generation substrate: simulated large language models.

Real MQA proxies GPT-4/ChatGPT over the network; offline we provide:

* :class:`TemplateLLM` — deterministic, fully grounded answers composed from
  the retrieved context (the reliable default).
* :class:`MarkovLLM` — a small word-level Markov generator with a
  temperature knob, modelling "output variability" from the configuration
  panel.
* :class:`GenerativeImageModel` — the DALL·E-2 stand-in of Figure 5:
  synthesises an image from query text alone, plausible but *not grounded*
  in any knowledge-base object.

A grounding checker verifies that answers only cite retrieved objects —
the retrieval-augmentation contract that suppresses hallucination — and the
prompt builder assembles query + context + history exactly as the paper's
answer-generation component describes.
"""

from repro.llm.agentic import (
    ClaimSynthesizer,
    claim_summary_line,
    render_subquery,
)
from repro.llm.attribute_qa import AttributeQALLM
from repro.llm.base import GenerationRequest, GenerationResult, LanguageModel
from repro.llm.generative_image import GenerativeImageModel
from repro.llm.grounding import check_grounding, extract_citations
from repro.llm.markov_llm import MarkovLLM
from repro.llm.prompts import ContextItem, PromptBuilder
from repro.llm.rewriter import QueryRewriter
from repro.llm.template_llm import TemplateLLM
from repro.utils import Registry

#: The configuration panel's "LLM" options; a model is a dataclass whose
#: fields are its parameters.
LLMS = Registry("llm")
register_llm = LLMS.register
available_llms = LLMS.names
build_llm = LLMS.build

register_llm("template", TemplateLLM)
register_llm("attribute-qa", AttributeQALLM)
register_llm("markov", MarkovLLM)

__all__ = [
    "AttributeQALLM",
    "ClaimSynthesizer",
    "ContextItem",
    "GenerationRequest",
    "GenerationResult",
    "GenerativeImageModel",
    "LLMS",
    "LanguageModel",
    "MarkovLLM",
    "PromptBuilder",
    "QueryRewriter",
    "TemplateLLM",
    "available_llms",
    "build_llm",
    "check_grounding",
    "claim_summary_line",
    "extract_citations",
    "register_llm",
    "render_subquery",
]
