"""Topological DAG execution with per-node reporting."""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import CycleError, PipelineError

NodeFn = Callable[[Dict[str, Any]], Any]


class NodeStatus(str, enum.Enum):
    """Lifecycle of one pipeline node."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    SKIPPED = "skipped"


@dataclass
class NodeReport:
    """Execution record for one node.

    Attributes:
        name: Node name.
        status: Final status after :meth:`DagPipeline.run`.
        elapsed: Wall-clock seconds spent in the node body.
        error: Stringified exception when status is FAILED.
    """

    name: str
    status: NodeStatus = NodeStatus.PENDING
    elapsed: float = 0.0
    error: Optional[str] = None


@dataclass
class _Node:
    name: str
    fn: NodeFn
    depends_on: Tuple[str, ...]


class DagPipeline:
    """A named DAG of processing stages sharing one context dictionary.

    Each node receives the context and may return a value, which is stored
    in the context under the node's name — downstream stages read their
    inputs from there.  Execution order is a deterministic topological sort
    (insertion order among ready nodes).
    """

    def __init__(self, name: str = "pipeline") -> None:
        self.name = name
        self._nodes: Dict[str, _Node] = {}

    def add_node(
        self,
        name: str,
        fn: NodeFn,
        depends_on: Sequence[str] = (),
    ) -> "DagPipeline":
        """Register a stage; returns self so calls chain."""
        if not name:
            raise PipelineError("node name must be non-empty")
        if name in self._nodes:
            raise PipelineError(f"duplicate node name {name!r} in pipeline {self.name!r}")
        self._nodes[name] = _Node(name=name, fn=fn, depends_on=tuple(depends_on))
        return self

    @property
    def node_names(self) -> Tuple[str, ...]:
        """Registered node names in insertion order."""
        return tuple(self._nodes)

    def _toposort(self) -> List[str]:
        for node in self._nodes.values():
            for dep in node.depends_on:
                if dep not in self._nodes:
                    raise PipelineError(
                        f"node {node.name!r} depends on unknown node {dep!r}"
                    )
        in_degree = {name: len(node.depends_on) for name, node in self._nodes.items()}
        dependents: Dict[str, List[str]] = {name: [] for name in self._nodes}
        for node in self._nodes.values():
            for dep in node.depends_on:
                dependents[dep].append(node.name)
        ready = [name for name, degree in in_degree.items() if degree == 0]
        order: List[str] = []
        while ready:
            current = ready.pop(0)
            order.append(current)
            for dependent in dependents[current]:
                in_degree[dependent] -= 1
                if in_degree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != len(self._nodes):
            unresolved = sorted(set(self._nodes) - set(order))
            raise CycleError(
                f"pipeline {self.name!r} has a dependency cycle involving: "
                + ", ".join(unresolved)
            )
        return order

    def run(
        self,
        context: "Dict[str, Any] | None" = None,
    ) -> "Tuple[Dict[str, Any], List[NodeReport]]":
        """Execute all nodes; returns the final context and node reports.

        On the first node failure the remaining nodes are marked SKIPPED and
        a :class:`PipelineError` is raised carrying the failing node's name.
        """
        context = dict(context or {})
        reports = {name: NodeReport(name=name) for name in self._nodes}
        order = self._toposort()
        failed: Optional[str] = None
        for name in order:
            report = reports[name]
            if failed is not None:
                report.status = NodeStatus.SKIPPED
                continue
            node = self._nodes[name]
            report.status = NodeStatus.RUNNING
            start = time.perf_counter()
            try:
                result = node.fn(context)
            except Exception as exc:  # noqa: BLE001 - reported, then re-raised
                report.status = NodeStatus.FAILED
                report.error = f"{type(exc).__name__}: {exc}"
                report.elapsed = time.perf_counter() - start
                failed = name
                continue
            report.elapsed = time.perf_counter() - start
            report.status = NodeStatus.DONE
            if result is not None:
                context[name] = result
            # The context holds the result now; a later node that pops it
            # from there must be able to free it while it runs.
            del result
        ordered_reports = [reports[name] for name in order]
        if failed is not None:
            message = reports[failed].error or "unknown error"
            raise PipelineError(
                f"pipeline {self.name!r} failed at node {failed!r}: {message}"
            )
        return context, ordered_reports
