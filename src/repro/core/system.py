"""The MQASystem facade — the one-import entry point.

Wraps configuration, coordinator, and a dialogue session behind the three
verbs a user needs (ask / select / refine) plus introspection helpers.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.answer import Answer
from repro.core.config import MQAConfig
from repro.core.coordinator import Coordinator
from repro.core.panels import StatusPanel
from repro.core.session import DialogueSession
from repro.data.knowledge_base import KnowledgeBase
from repro.data.modality import Modality


class MQASystem:
    """A fully assembled multi-modal query-answering system.

    Build one with :meth:`from_config` (generates a synthetic knowledge
    base) or :meth:`from_knowledge_base` (serves an existing one), then
    converse:

    >>> system = MQASystem.from_config(MQAConfig())       # doctest: +SKIP
    >>> answer = system.ask("a foggy mountain scene")     # doctest: +SKIP
    >>> system.select(0)                                  # doctest: +SKIP
    >>> answer = system.refine("more dramatic clouds")    # doctest: +SKIP
    """

    def __init__(self, coordinator: Coordinator) -> None:
        self.coordinator = coordinator
        self.session = DialogueSession(coordinator)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config: Optional[MQAConfig] = None) -> "MQASystem":
        """Generate the configured knowledge base and assemble the system."""
        coordinator = Coordinator(config or MQAConfig())
        coordinator.setup()
        return cls(coordinator)

    @classmethod
    def from_knowledge_base(
        cls, kb: KnowledgeBase, config: Optional[MQAConfig] = None
    ) -> "MQASystem":
        """Assemble the system over a prebuilt knowledge base."""
        coordinator = Coordinator(config or MQAConfig(), knowledge_base=kb)
        coordinator.setup()
        return cls(coordinator)

    # ------------------------------------------------------------------
    # conversation verbs
    # ------------------------------------------------------------------
    def ask(
        self,
        text: str,
        image: Any = None,
        k: Optional[int] = None,
        weights: Optional[dict] = None,
        where=None,
    ) -> Answer:
        """Submit a query (text, optionally with a reference image).

        ``weights`` re-weights modalities for this query only; ``where``
        filters results by a predicate over knowledge-base objects.
        """
        return self.session.ask(text, image=image, k=k, weights=weights, where=where)

    def ask_agentic(
        self,
        text: str,
        image: Any = None,
        k: Optional[int] = None,
        weights: Optional[dict] = None,
    ) -> Answer:
        """Submit a query through the multi-hop agentic path.

        With ``config.agentic`` off this is bit-identical to :meth:`ask`
        (minus ``where`` filtering, which the agentic path does not take).
        """
        return self.session.ask_agentic(text, image=image, k=k, weights=weights)

    def select(self, rank: int) -> int:
        """Mark the last answer's item at ``rank`` as preferred."""
        return self.session.select(rank)

    def reject(self, rank: int) -> int:
        """Dismiss the last answer's item at ``rank``; it never returns."""
        return self.session.reject(rank)

    def refine(
        self,
        text: str,
        k: Optional[int] = None,
        weights: Optional[dict] = None,
    ) -> Answer:
        """Refine the search using the selected result plus new text."""
        return self.session.refine(text, k=k, weights=weights)

    def ingest(self, concepts, intensities=None, metadata=None) -> int:
        """Add a new object to the live system (KB + index); returns its id."""
        return self.coordinator.ingest_object(
            concepts, intensities=intensities, metadata=metadata
        )

    def remove(self, object_id: int) -> None:
        """Tombstone an object so it never appears in results again."""
        self.coordinator.remove_object(object_id)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def kb(self) -> Optional[KnowledgeBase]:
        """The attached knowledge base (None in LLM-only mode)."""
        return self.coordinator.kb

    @property
    def weights(self) -> Dict[Modality, float]:
        """Modality weights the system is searching with."""
        return self.coordinator.weights

    def status_report(self) -> str:
        """The status-monitoring panel's current text."""
        return StatusPanel(self.coordinator.status, self.coordinator.ledger).render()

    def reset_dialogue(self) -> None:
        """Start a fresh conversation over the same indexes."""
        self.session = DialogueSession(self.coordinator)
