"""The three frontend panels, as scriptable state machines.

The real MQA frontend is React/Remix/Mantine; here each panel is a plain
object with the same responsibilities, plus a text renderer so examples and
the FIG3 experiment can display what a user would see.  All panel actions
go through the coordinator — never directly to a backend component —
matching the architecture's single-conduit rule.
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Any, Callable, Dict, List, Optional

from repro.core.config import MQAConfig, WeightMode
from repro.core.coordinator import Coordinator
from repro.core.session import DialogueSession
from repro.core.status import MilestoneState, StatusBoard
from repro.data.datasets import DOMAINS
from repro.data.knowledge_base import KnowledgeBase
from repro.errors import ConfigurationError


class ConfigurationPanel:
    """Panel 1: choose knowledge base, encoders, weights, index, LLM.

    Holds a draft :class:`MQAConfig`; :meth:`apply` validates it, builds a
    coordinator, and returns the pop-up feedback string.
    """

    def __init__(self, config: Optional[MQAConfig] = None) -> None:
        self.config = config or MQAConfig()
        self.feedback: List[str] = []

    def options(self) -> Dict[str, List[str]]:
        """The choice lists the panel's dropdowns display: the domains, the
        weight modes, and every registry a config field draws from."""
        registered = {
            spec.name: list(spec.metadata["choices"]())
            for spec in fields(MQAConfig)
            if callable(spec.metadata["choices"])
        }
        registered["llm"].insert(0, "none")
        return {
            "knowledge_base": sorted(DOMAINS),
            "weight_mode": [mode.value for mode in WeightMode],
            **registered,
        }

    def set_option(self, option: str, value: Any) -> None:
        """Update one draft field with validation: any :class:`MQAConfig`
        field by name, or the knowledge-base domain as ``knowledge_base``.
        Another ``index`` clears ``index_params`` (they were the old one's)."""
        if option == "knowledge_base":
            updates = {"dataset": replace(self.config.dataset, domain=str(value))}
        elif option == "index" and value != self.config.index:
            updates = {"index": value, "index_params": {}}
        elif isinstance(option, str) and option in MQAConfig.__dataclass_fields__:
            updates = {option: value}
        else:
            raise ConfigurationError(f"unknown configuration option {option!r}")
        try:
            self.config = replace(self.config, **updates)
        except ConfigurationError:
            self.feedback.append(f"rejected: {option}={value!r}")
            raise
        self.feedback.append(f"set {option} = {value!r}")

    def apply(self, knowledge_base: Optional[KnowledgeBase] = None) -> Coordinator:
        """Validate, build and set up a coordinator from the draft config."""
        self.config.validate()
        coordinator = Coordinator(self.config, knowledge_base=knowledge_base)
        coordinator.setup()
        self.feedback.append("configuration applied; system ready")
        return coordinator


class StatusPanel:
    """Panel 2: live view of the backend milestones.

    Args:
        board: The coordinator's status board.
        ledger: The coordinator's by-name ledger read
            (:meth:`~repro.core.coordinator.Coordinator.ledger`); a board
            alone renders the milestones only.  Each ledger the deployment
            has adds its line — ``slo`` (health: latency/errors against
            targets), ``quality`` (streaming recall@k / MRR of sampled
            live queries), ``stats`` (queries observed, whole-query p95
            and mean distance evaluations), ``cache`` (one locked counter
            snapshot, plus the semantic totals on a semantic cache) — and
            ``trace`` appends the most recent query's span tree, the
            per-stage breakdown the milestones can't show.
    """

    TICKS = {
        MilestoneState.PENDING: " ",
        MilestoneState.RUNNING: "…",
        MilestoneState.DONE: "✓",
        MilestoneState.FAILED: "✗",
    }

    def __init__(
        self,
        board: StatusBoard,
        ledger: Callable[[str], "dict | None"] = lambda name: None,
    ) -> None:
        self.board = board
        self.ledger = ledger

    def render(self) -> str:
        """Multi-line text of ticks + details, the panel's whole content."""
        lines = ["status monitoring"]
        for milestone in self.board.milestones():
            tick = self.TICKS[milestone.state]
            detail = ", ".join(f"{k}={v}" for k, v in milestone.details.items())
            elapsed = f" [{milestone.elapsed * 1000:.0f} ms]" if milestone.elapsed else ""
            lines.append(f" [{tick}] {milestone.name}{elapsed}" + (f": {detail}" if detail else ""))
        snap = self.ledger("slo")
        if snap is not None:
            lines.append(
                f" health: {snap['state']} "
                f"(p95 {snap['window_p95_ms']:.1f}/{snap['latency_target_ms']:.0f} ms, "
                f"errors {snap['window_error_rate']:.1%}/{snap['error_rate_target']:.0%}, "
                f"window {snap['window_fill']}/{snap['window']})"
            )
        snap = self.ledger("quality")
        if snap is not None:
            lines.append(
                f" quality: recall@{snap['k']} {snap['mean_recall_at_k']:.3f}, "
                f"mrr {snap['mean_mrr']:.3f} "
                f"({snap['sampled']} scored of {snap['queries_seen']} seen)"
            )
        snap = self.ledger("stats")
        if snap is not None:
            whole = [
                group for group in snap["groups"] if group["shard"] == "-"
            ]
            if whole:
                p95 = max(g["latency_ms"]["p95"] for g in whole)
                evals = max(
                    g["distance_evaluations"]["mean"] for g in whole
                )
                lines.append(
                    f" cost: {snap['queries']} observed, "
                    f"p95 {p95:.1f} ms, "
                    f"mean {evals:.0f} distance evals "
                    f"({len(snap['exemplars'])} exemplars)"
                )
            else:
                lines.append(f" cost: {snap['queries']} observed")
        snap = self.ledger("cache")
        if snap is not None:
            line = (
                f" cache: {snap['size']} entries, "
                f"{snap['hits']} hits / {snap['misses']} misses "
                f"(rate {snap['hit_rate']:.1%}, gen {snap['generation']})"
            )
            if snap.get("semantic"):
                line += (
                    f", semantic {snap['semantic_hits']} hits / "
                    f"{snap['semantic_rejects']} rejected"
                )
            lines.append(line)
        snap = self.ledger("trace")
        if snap is not None:
            lines.append("last query trace")
            lines.extend(" " + line for line in snap["last"].splitlines())
        return "\n".join(lines)


class QAPanel:
    """Panel 3: the dialogue box — submit, inspect, click, refine."""

    def __init__(self, coordinator: Coordinator) -> None:
        self.session = DialogueSession(coordinator)

    def submit(self, text: str, image: Any = None):
        """Send a user message (optionally with an uploaded image)."""
        return self.session.ask(text, image=image)

    def click_result(self, rank: int) -> int:
        """Click a result card, marking it preferred."""
        return self.session.select(rank)

    def refine(self, text: str, weights: Optional[dict] = None):
        """Send a follow-up that builds on the clicked result."""
        return self.session.refine(text, weights=weights)

    def render_transcript(self) -> str:
        """The dialogue box's content as text."""
        lines = ["QA panel"]
        for round_ in self.session.rounds_snapshot():
            image_tag = " [image]" if round_.had_image else ""
            lines.append(f" user: {round_.user_text}{image_tag}")
            lines.append(f" mqa:  {round_.answer.text}")
            for item in round_.answer.items:
                star = "*" if item.preferred else " "
                lines.append(
                    f"   {star} #{item.object_id} {item.description} "
                    f"(score {item.score:.3f})"
                )
            if round_.selected_object_id is not None:
                lines.append(f"   -> user selected #{round_.selected_object_id}")
        return "\n".join(lines)
