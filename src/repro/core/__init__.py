"""The MQA system itself — the paper's primary contribution.

Mirrors Figure 2: five backend components (data preprocessing, vector
representation, index construction, query execution, answer generation)
orchestrated by a coordinator that is the sole conduit between frontend
(configuration / status / QA panels) and backend.  :class:`MQASystem` is
the one-import facade a downstream user talks to.
"""

from repro.core.agentic import AgenticAnswerer, Claim, QueryDecomposer, SubQuery
from repro.core.answer import Answer
from repro.core.config import MQAConfig, WeightMode
from repro.core.coordinator import Coordinator
from repro.core.events import Event, EventLog
from repro.core.cache import QueryCache, SemanticQueryCache
from repro.core.panels import ConfigurationPanel, QAPanel, StatusPanel
from repro.core.planning import (
    AdmissionController,
    QueryPlan,
    QueryPlanner,
)
from repro.core.resilience import (
    CircuitBreaker,
    Deadline,
    FaultInjector,
    FaultSpec,
    ResilienceManager,
    RetryPolicy,
)
from repro.core.session import DialogueSession, Round
from repro.core.status import Milestone, MilestoneState, StatusBoard
from repro.core.system import MQASystem

__all__ = [
    "AdmissionController",
    "AgenticAnswerer",
    "Answer",
    "CircuitBreaker",
    "Claim",
    "ConfigurationPanel",
    "Coordinator",
    "Deadline",
    "DialogueSession",
    "Event",
    "EventLog",
    "FaultInjector",
    "FaultSpec",
    "MQAConfig",
    "MQASystem",
    "Milestone",
    "MilestoneState",
    "QAPanel",
    "QueryCache",
    "QueryDecomposer",
    "QueryPlan",
    "QueryPlanner",
    "ResilienceManager",
    "RetryPolicy",
    "Round",
    "SubQuery",
    "SemanticQueryCache",
    "StatusBoard",
    "StatusPanel",
    "WeightMode",
]
