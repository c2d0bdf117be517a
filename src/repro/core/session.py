"""Multi-round dialogue sessions.

Implements the paper's iterative refinement loop: ask -> inspect results ->
select a preferred item -> refine with new text, where the selected item's
image augments the next query (the feedback loop of Figures 1 and 4).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, List, Optional, Set

from repro.core.answer import Answer
from repro.core.coordinator import Coordinator
from repro.core.execution import QueryExecution
from repro.data.modality import Modality
from repro.data.objects import RawQuery
from repro.errors import SessionError
from repro.llm.prompts import DialogueTurn
from repro.utils import check_integer


@dataclass
class Round:
    """One completed dialogue round.

    Attributes:
        index: Zero-based round number.
        user_text: What the user typed.
        had_image: Whether an image accompanied the query (uploaded or
            carried over from a selection).
        answer: The system's answer.
        selected_object_id: The item the user picked afterwards (None until
            :meth:`DialogueSession.select` is called).
        rejected_object_ids: Items the user dismissed ("not this one");
            excluded from all later rounds.
    """

    index: int
    user_text: str
    had_image: bool
    answer: Answer
    selected_object_id: Optional[int] = None
    rejected_object_ids: Set[int] = field(default_factory=set)


class DialogueSession:
    """Stateful conversation against one coordinator.

    Thread-safe: every verb and every transcript read runs under one
    reentrant lock, so two refines racing on the same session cannot
    interleave their history/selection reads with each other's round
    append, and ``to_dict`` never renders a half-appended round.  (The
    query engine additionally serialises verbs per session; this lock
    keeps direct library users safe too.)
    """

    def __init__(self, coordinator: Coordinator) -> None:
        self.coordinator = coordinator
        self.rounds: List[Round] = []
        self._lock = threading.RLock()

    @property
    def round_count(self) -> int:
        """Completed rounds so far."""
        with self._lock:
            return len(self.rounds)

    def rounds_snapshot(self) -> List[Round]:
        """A stable copy of the round list for lock-free iteration."""
        with self._lock:
            return list(self.rounds)

    @property
    def last_answer(self) -> Answer:
        """The most recent answer (SessionError when no round has run)."""
        with self._lock:
            if not self.rounds:
                raise SessionError("no dialogue round has run yet")
            return self.rounds[-1].answer

    def _history(self) -> List[DialogueTurn]:
        return [
            DialogueTurn(user_text=r.user_text, system_text=r.answer.text)
            for r in self.rounds
        ]

    def _preferred_ids(self) -> Set[int]:
        return {
            r.selected_object_id
            for r in self.rounds
            if r.selected_object_id is not None
        }

    def _rejected_ids(self) -> Set[int]:
        rejected: Set[int] = set()
        for round_ in self.rounds:
            rejected |= round_.rejected_object_ids
        return rejected

    # ------------------------------------------------------------------
    # the interaction verbs
    # ------------------------------------------------------------------
    def ask(
        self,
        text: str,
        image: Any = None,
        k: Optional[int] = None,
        weights: Optional[dict] = None,
        where=None,
        deadline_ms: Optional[float] = None,
    ) -> Answer:
        """Start (or continue) the dialogue with a fresh query.

        Args:
            text: The user's request.
            image: Optional uploaded reference image (scenario 4b).
            k: Result-count override for this round.
            weights: Per-query modality weights (e.g. lean on the image).
            where: Predicate over objects restricting results (metadata
                filtering, e.g. ``lambda obj: "wool" in obj.concepts``).
            deadline_ms: Per-request latency budget override (resilience
                mode only).
        """
        return self._run(
            self.coordinator.handle_query, self._fresh_query(text, image), text,
            k=k, weights=weights, where=where, deadline_ms=deadline_ms,
        )

    def ask_agentic(
        self,
        text: str,
        image: Any = None,
        k: Optional[int] = None,
        weights: Optional[dict] = None,
        deadline_ms: Optional[float] = None,
    ) -> Answer:
        """Ask through the multi-hop agentic path (``POST /ask``).

        Same dialogue-state threading as :meth:`ask` (history, preferred
        selections, rejected items, round numbering), but the round runs
        through :meth:`~repro.core.coordinator.Coordinator.answer_agentic`
        — which is the single-hop round, bit-identically, when agentic
        mode is off.  Metadata filtering (``where``) is an :meth:`ask`
        option only.
        """
        return self._run(
            self.coordinator.answer_agentic, self._fresh_query(text, image), text,
            k=k, weights=weights, deadline_ms=deadline_ms,
        )

    @staticmethod
    def _fresh_query(text: str, image: Any) -> RawQuery:
        if not text:
            raise SessionError("query text must be non-empty")
        if image is not None:
            return RawQuery.from_text_and_image(text, image)
        return RawQuery.from_text(text)

    def select(self, rank: int) -> int:
        """Mark the item at ``rank`` of the last answer as preferred.

        Returns the selected object id (the click on a result card).
        """
        with self._lock:
            object_id = self._object_at(rank)
            self.rounds[-1].selected_object_id = object_id
            return object_id

    def reject(self, rank: int) -> int:
        """Dismiss the item at ``rank`` of the last answer ("not this one").

        Rejected objects never reappear in later rounds of this session.
        Returns the rejected object id.
        """
        with self._lock:
            object_id = self._object_at(rank)
            self.rounds[-1].rejected_object_ids.add(object_id)
            return object_id

    def _object_at(self, rank: int) -> int:
        """The object id at ``rank`` of the last answer: an integer (a
        ``bool`` is not one) in range, else a :class:`SessionError`."""
        check_integer("rank", rank, error=SessionError)
        answer = self.last_answer
        if not 0 <= rank < len(answer.items):
            raise SessionError(
                f"rank {rank} out of range; last answer has "
                f"{len(answer.items)} items"
            )
        return answer.items[rank].object_id

    def refine(
        self,
        text: str,
        k: Optional[int] = None,
        weights: Optional[dict] = None,
        deadline_ms: Optional[float] = None,
    ) -> Answer:
        """Refine using the selected item of the previous round.

        The selection's image modality augments the new text query (the
        dotted arrow of Figure 2).  Requires a prior :meth:`select`.
        """
        if not text:
            raise SessionError("refinement text must be non-empty")
        with self._lock:
            if not self.rounds:
                raise SessionError("nothing to refine; call ask() first")
            selected_id = self.rounds[-1].selected_object_id
            if selected_id is None:
                raise SessionError("select a result before refining")
            selected = self.coordinator.get_object(selected_id)
            query = QueryExecution.augment_query(text, selected)
            return self._run(
                self.coordinator.handle_query, query, text,
                k=k, weights=weights, deadline_ms=deadline_ms,
            )

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The whole dialogue as a JSON-serialisable document."""
        with self._lock:
            return self._to_dict_locked()

    def _to_dict_locked(self) -> dict:
        return {
            "rounds": [
                {
                    "index": r.index,
                    "user_text": r.user_text,
                    "had_image": r.had_image,
                    "selected_object_id": r.selected_object_id,
                    "answer": {
                        "text": r.answer.text,
                        "grounded": r.answer.grounded,
                        "framework": r.answer.framework,
                        "llm": r.answer.llm,
                        "degraded": r.answer.degraded,
                        "degraded_reasons": list(r.answer.degraded_reasons),
                        "items": [
                            {
                                "object_id": item.object_id,
                                "description": item.description,
                                "score": item.score,
                                "preferred": item.preferred,
                            }
                            for item in r.answer.items
                        ],
                    },
                }
                for r in self.rounds
            ]
        }

    def export_transcript(self, path) -> None:
        """Write :meth:`to_dict` as pretty-printed JSON to ``path``."""
        import json
        from pathlib import Path

        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    def _run(self, verb, query: RawQuery, text: str, **options) -> Answer:
        """One dialogue round through ``verb`` (a coordinator entry point),
        threading history, selections and rejections in and the round out."""
        with self._lock:
            answer = verb(
                query,
                history=self._history(),
                preferred_ids=self._preferred_ids(),
                round_index=len(self.rounds),
                exclude_ids=sorted(self._rejected_ids()),
                **options,
            )
            self.rounds.append(
                Round(
                    index=len(self.rounds),
                    user_text=text,
                    had_image=query.has(Modality.IMAGE),
                    answer=answer,
                )
            )
            return answer
