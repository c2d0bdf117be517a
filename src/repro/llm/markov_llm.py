"""A tiny Markov-chain LLM with a working temperature knob.

Trains a word-bigram model on a built-in conversational corpus plus the
request's own context descriptions, then samples a reply.  Temperature
scales the transition distribution exactly the way softmax temperature does
in a real LLM: 0 degenerates to argmax (deterministic), higher values
flatten the distribution and increase variability — giving the
configuration panel's temperature slider observable behaviour.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.llm.base import GenerationRequest, GenerationResult, LanguageModel
from repro.utils import check_fields, derive_rng, param

_BASE_CORPUS = """
here are the results you asked for . i found several matching items in the
knowledge base . the best match is shown first . you can select any result
to refine the search . based on your preference i adjusted the ranking .
these items align with the image you provided . tell me if you would like
more options . the top result matches your description closely . i kept
your earlier preference in mind while ranking . feel free to add more
detail to narrow things down .
"""


@dataclass(eq=False)
class MarkovLLM(LanguageModel):
    """Word-bigram generation seeded by the retrieval context."""

    name = "markov"

    seed: int = 0
    max_words: int = param(40, ge=5)

    def __post_init__(self) -> None:
        check_fields(self)
        self._base_transitions = self._train(_BASE_CORPUS.split())

    @staticmethod
    def _train(words: List[str]) -> Dict[str, Dict[str, int]]:
        transitions: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for current, following in zip(words, words[1:]):
            transitions[current][following] += 1
        return {w: dict(f) for w, f in transitions.items()}

    def _merged_transitions(self, request: GenerationRequest) -> Dict[str, Dict[str, int]]:
        words: List[str] = []
        for item in request.context:
            words.extend(item.description.lower().split())
            words.append(".")
        if not words:
            return self._base_transitions
        merged: Dict[str, Dict[str, int]] = {
            w: dict(f) for w, f in self._base_transitions.items()
        }
        for current, following in zip(words, words[1:]):
            merged.setdefault(current, {})
            merged[current][following] = merged[current].get(following, 0) + 1
        return merged

    def _sample_next(
        self,
        followers: Dict[str, int],
        temperature: float,
        rng: np.random.Generator,
    ) -> str:
        words = sorted(followers)
        counts = np.array([followers[w] for w in words], dtype=np.float64)
        if temperature == 0.0:
            return words[int(np.argmax(counts))]
        logits = np.log(counts) / temperature
        logits -= logits.max()
        probabilities = np.exp(logits)
        probabilities /= probabilities.sum()
        return words[int(rng.choice(len(words), p=probabilities))]

    def generate(self, request: GenerationRequest, temperature: float = 0.0) -> GenerationResult:
        temperature = self._check_temperature(temperature)
        transitions = self._merged_transitions(request)
        rng = derive_rng(
            self.seed, "markov", request.user_query, len(request.history), temperature
        )
        word = "here" if "here" in transitions else sorted(transitions)[0]
        words = [word]
        for _ in range(self.max_words - 1):
            followers = transitions.get(word)
            if not followers:
                break
            word = self._sample_next(followers, temperature, rng)
            words.append(word)
            if word == "." and len(words) >= 8:
                break

        cited: Tuple[int, ...] = tuple(item.object_id for item in request.context[:3])
        prefix = ""
        if cited:
            prefix = "top matches: " + ", ".join(f"#{i}" for i in cited) + ". "
        return GenerationResult(
            text=prefix + " ".join(words),
            cited_object_ids=cited,
            grounded=bool(cited),
            model=self.name,
        )
