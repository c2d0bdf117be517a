"""LLM-guided query rewriting.

The paper's QA panel "promptly returns relevant multi-modal information,
using an optimized retrieval mechanism guided by LLM".  The guidance
implemented here is conversational query rewriting: before a refinement
query hits the index, the intent the user has built up across rounds —
concept terms from earlier requests and from the items they selected — is
folded back into the query text.  A vague follow-up like "more like this
one, please" thereby retrieves against the full accumulated intent.

The rewriter is a deterministic stand-in for an LLM rewriting prompt; like
every simulated model here it only uses information a real LLM would see
(the dialogue transcript), never hidden ground truth.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.data.concepts import ConceptSpace
from repro.data.modality import Modality
from repro.data.rendering import TextRenderer
from repro.observability.tracing import trace_span


class QueryRewriter:
    """Folds dialogue history into vague follow-up queries.

    Args:
        space: Concept vocabulary used to recognise intent terms.
        max_carried: Maximum history concepts appended to a query.
        min_query_concepts: Queries already carrying at least this many
            recognised concepts are left untouched — rewriting only helps
            when the new text underspecifies the intent.
    """

    def __init__(
        self,
        space: ConceptSpace,
        max_carried: int = 3,
        min_query_concepts: int = 2,
    ) -> None:
        if max_carried < 0:
            raise ValueError(f"max_carried must be >= 0, got {max_carried}")
        if min_query_concepts < 0:
            raise ValueError(
                f"min_query_concepts must be >= 0, got {min_query_concepts}"
            )
        self.space = space
        self.max_carried = max_carried
        self.min_query_concepts = min_query_concepts

    def _concepts_in(self, text: str) -> List[str]:
        return self.space.known_tokens(TextRenderer.tokenize(text))

    def rewrite(
        self,
        text: str,
        history_texts: Sequence[str] = (),
        selected_descriptions: Sequence[str] = (),
    ) -> str:
        """Return ``text``, possibly extended with carried intent terms.

        Args:
            text: The user's current message.
            history_texts: Prior user messages, oldest first.
            selected_descriptions: Text modality of items the user selected
                (their concepts carry the strongest signal).

        Recency wins: concepts from later history override earlier ones up
        to ``max_carried``; selected-item concepts rank above plain history.
        """
        present = set(self._concepts_in(text))
        if len(present) >= self.min_query_concepts:
            return text

        carried: List[str] = []

        def take(source_texts: Iterable[str]) -> None:
            for source in reversed(list(source_texts)):  # most recent first
                for concept in self._concepts_in(source):
                    if concept not in present and concept not in carried:
                        carried.append(concept)

        take(selected_descriptions)
        take(history_texts)
        carried = carried[: self.max_carried]
        if not carried:
            return text
        return text + " " + " ".join(carried)

    def rewrite_round(self, context, kb, events) -> None:
        """The ``rewrite`` stage (``query_rewriting``): fold the dialogue's
        intent — including the ``kb`` descriptions of the items it selected
        — into a vague follow-up before it is searched; a rewrite is
        recorded in the ``events`` log."""
        user_text = context.user_text
        if not (user_text and (context.history or context.preferred_ids)):
            return
        with trace_span("rewrite") as span:
            descriptions = []
            for object_id in context.preferred_ids:
                obj = kb.get(object_id)
                if obj.has(Modality.TEXT):
                    descriptions.append(str(obj.get(Modality.TEXT)))
            rewritten = self.rewrite(
                user_text,
                history_texts=[turn.user_text for turn in context.history],
                selected_descriptions=descriptions,
            )
            span.set(rewritten=rewritten != user_text)
        if rewritten != user_text:
            events.record("generation", "execution", "rewritten-query", rewritten[:60])
            context.queries = [
                context.queries[0].with_content(Modality.TEXT, rewritten)
            ]
