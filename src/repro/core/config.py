"""System configuration — the data model behind the configuration panel.

Every :class:`MQAConfig` field is declared once, through :func:`_knob`;
validation, the CLI flags (:func:`add_config_arguments` /
:func:`config_overrides`), ``run_loadgen``'s keyword forwarding and the
``POST /configure`` option set are all read off those declarations.
"""

from __future__ import annotations

import argparse
import enum
import operator
from dataclasses import Field, asdict, dataclass, field, fields
from importlib import import_module
from typing import Any, Callable, Dict, Iterable, Optional, Sequence

from repro.data.datasets import DOMAINS, DatasetSpec
from repro.data.modality import Modality
from repro.errors import ConfigurationError


class WeightMode(str, enum.Enum):
    """How modality weights are obtained."""

    EQUAL = "equal"
    LEARNED = "learned"
    FIXED = "fixed"

    @classmethod
    def parse(cls, value: "str | WeightMode") -> "WeightMode":
        """Coerce a string such as ``"learned"`` into a mode."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value.lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ConfigurationError(
                f"unknown weight mode {value!r}; expected one of: {valid}"
            ) from None


def _knob(
    default: Any,
    help: str,
    *,
    alias: Optional[str] = None,
    metavar: Optional[str] = None,
    choices: "Sequence[Any] | Callable[[], Sequence[str]] | None" = None,
    **bounds: float,
) -> Any:
    """Declare one :class:`MQAConfig` field — the only place it is described.

    Args:
        default: The default value, or a zero-argument factory for a
            mutable one.
        help: One-line description; the CLI help text.
        alias: The name the CLI and ``run_loadgen`` use where it is not the
            field name (``result_count`` is ``--k``).
        metavar: Placeholder shown in ``--help`` for the flag's value.
        choices: The legal values — a tuple, or a callable returning the
            registered names (see :func:`_registered`).
        **bounds: ``ge`` / ``gt`` / ``le``: inclusive lower, exclusive
            lower, inclusive upper bound.
    """
    metadata = {
        "help": help, "alias": alias, "metavar": metavar,
        "choices": choices, "bounds": bounds,
    }
    if callable(default):
        return field(default_factory=default, metadata=metadata)
    return field(default=default, metadata=metadata)


def _registered(module: str, function: str) -> Callable[[], Sequence[str]]:
    """A choice source looked up when it is read: the registries import this
    module (and fill lazily), so they cannot be imported while it loads."""
    return lambda: getattr(import_module(module), function)()


@dataclass
class MQAConfig:
    """Every knob the configuration panel exposes.

    The declarations below carry each field's default, legal range or
    choices, CLI spelling and one-line summary; ``Attributes`` keeps what
    takes more than a line to say.

    Attributes:
        dataset: A :class:`~repro.data.DatasetSpec`, or its ``to_dict``
            form; ignored when a prebuilt knowledge base is supplied to
            the coordinator.
        external_knowledge: The paper's toggle — False runs LLM-only mode
            with no retrieval at all.
        llm: ``None`` (spelled ``"none"`` on the CLI and the panel) is the
            no-LLM mode: answers are plain result listings.
        query_rewriting: The "retrieval guided by LLM" mechanism.
        cache_queries: The LRU response cache is invalidated on ingestion.
        tracing: A hierarchical span trace (encode / weight-inference /
            index-search / fusion / generation, with timings and
            search-work counters) for every query round.  Off by default:
            the no-op tracer adds no measurable overhead to the serving
            hot path.  Traces surface through ``GET /trace``, the status
            panel, and the CLI ``--trace`` flag.
        recorder_path: None (the default) disables recording.  A non-None
            path implies tracing — the recorder persists span trees, so
            the coordinator activates a tracer even when ``tracing`` is
            False.
        monitoring: Master switch for online quality + SLO monitoring
            (``GET /health``).  Off by default: the serving hot path then
            pays nothing.
        workers: ``1`` (the default) executes requests inline on the
            calling thread — the historical serial behaviour; ``N > 1``
            serves up to N requests concurrently under the read/write lock.
        max_batch: Upper bound on how many concurrent ``/search`` requests
            the server micro-batches into one batched retrieval.  ``1``
            (the default) disables coalescing entirely — every request runs
            alone, exactly the pre-batching behaviour.
        batch_window_ms: Only meaningful with ``max_batch > 1``.
        shards: ``None`` (the default) keeps the historical unsharded
            engine — no router exists at all; ``1`` routes through a single
            shard (a pure pass-through, bit-identical to unsharded);
            ``N > 1`` hash-partitions the corpus and merges per-shard
            top-k exactly.
        replicas: Round-robin, health-aware selection.  ``replicas > 1``
            with ``shards=None`` serves one shard from several replicas.
        partitioner: ``"hash"`` (stable id hash) or ``"concept"`` (objects
            sharing a leading concept co-locate).
        resilience: Master switch for the fault-tolerance layer.  Off by
            default: every guarded boundary then takes the exact
            pre-resilience code path.
        deadline_ms: None disables deadlines (requests may override per
            call).
        faults: Keyed by call site (or site prefix, e.g. ``"encoder"``
            covers ``encoder.text``); each value maps to
            :class:`~repro.core.resilience.FaultSpec` kwargs.  Inert
            unless ``resilience`` is on.
        cost_accounting: Attach a per-query
            :class:`~repro.observability.costs.QueryCostProfile` (kernel
            counters + per-stage wall time) to every response and
            aggregate them in the :class:`~repro.observability.stats.StatsPlane`
            behind ``GET /stats`` and ``python -m repro stats``.  Off by
            default: the disabled path costs one context-variable read
            per instrumented site and results are bit-identical either
            way.
        tiered: SQ-quantized codes stay resident for graph traversal while
            full-precision vectors spill to a memory-mapped file touched
            only by the exact rerank pass.  Off by default — results are
            then bit-identical to the classic all-in-RAM path.  Requires
            ``index="starling"``.
        rerank_factor: Traversal returns ``rerank_factor * k`` candidates
            for full-precision re-scoring.
        planner: Pick the per-query search budget (and shard fan-out under
            deadline pressure) from the live latency/recall distributions
            so the cheapest plan whose predicted p95 fits the remaining
            deadline — and whose observed recall stays at or above
            ``recall_floor`` — runs.  Off by default: queries then use
            ``search_budget`` verbatim and results are bit-identical to
            the unplanned path.
        recall_floor: Plans predicted to land below the floor are never
            chosen voluntarily.
        semantic_cache: Replace the exact-match query cache with the
            near-duplicate :class:`~repro.core.cache.SemanticQueryCache`
            (cosine matching over per-modality query embeddings, same
            generation-counter invalidation on ingest).  Off by default.
        semantic_threshold: ``0`` degenerates to exact-match behaviour
            bit-identically.
        admission: A predicted-cost token bucket plus a queue-delay EWMA
            shed or degrade requests *before* the engine saturates,
            instead of failing at the ``EngineSaturatedError`` cliff.  Off
            by default.
        agentic: Decompose the question into per-concept sub-queries,
            retrieve them as one batch, fuse the hops, synthesize
            per-claim citations, and re-retrieve for unsupported claims
            (``POST /ask`` and the ``--agentic`` CLI flag).  Off by
            default: the single-hop query path and its payloads are then
            bit-identical to the pre-agentic behaviour.
        agentic_max_hops: The original query always runs as hop 0 on top.
        agentic_refine_rounds: Refinement re-retrieves for claims whose
            citations carry no textual evidence.
    """

    dataset: DatasetSpec = _knob(DatasetSpec, "knowledge-base generation spec")
    external_knowledge: bool = _knob(True, "retrieve from the knowledge base")
    encoder_set: str = _knob(
        "clip-joint", "encoder set name",
        choices=_registered("repro.encoders", "available_encoder_sets"),
    )
    weight_mode: WeightMode = _knob(
        WeightMode.LEARNED, "how modality weights are obtained (equal/learned/fixed)"
    )
    fixed_weights: Optional[Dict[str, float]] = _knob(
        None, "modality-name -> weight mapping (fixed mode only)"
    )
    weight_learning: Dict[str, Any] = _knob(
        dict, "overrides for the contrastive learner (steps, batch_size, ...)"
    )
    index: str = _knob(
        "hnsw", "index algorithm",
        choices=_registered("repro.index", "available_indexes"),
    )
    index_params: Dict[str, Any] = _knob(
        dict, "parameters forwarded to the index factory"
    )
    framework: str = _knob(
        "must", "retrieval framework (mr/je/must)",
        choices=_registered("repro.retrieval", "available_frameworks"),
    )
    result_count: int = _knob(5, "results per round", alias="k", ge=1)
    search_budget: int = _knob(64, "beam width for graph searches", ge=1)
    llm: Optional[str] = _knob(
        "template", "llm name or 'none'",
        choices=_registered("repro.llm", "available_llms"),
    )
    llm_params: Dict[str, Any] = _knob(
        dict, "parameters forwarded to the LLM factory"
    )
    temperature: float = _knob(0.0, "LLM output variability", ge=0, le=2)
    query_rewriting: bool = _knob(
        False, "fold dialogue intent into vague follow-up queries before retrieval"
    )
    cache_queries: bool = _knob(
        True, "serve repeated queries from the exact-match query cache",
        alias="cache",
    )
    tracing: bool = _knob(
        False, "capture query traces and print the span tree after each answer",
        alias="trace",
    )
    recorder_path: Optional[str] = _knob(
        None, "persist every query to a flight-recorder JSONL file "
        "(replayable with 'repro replay PATH')",
        alias="record", metavar="PATH",
    )
    monitoring: bool = _knob(
        False, "enable online SLO + retrieval-quality monitoring (/health)",
        alias="monitor",
    )
    monitor_sample_rate: int = _knob(
        8, "score every Nth query against the latent-concept ground truth", ge=1
    )
    slo_latency_ms: float = _knob(250.0, "rolling-window p95 latency target", gt=0)
    slo_window: int = _knob(64, "requests per SLO rolling window", ge=1)
    workers: int = _knob(
        1, "query-engine worker threads (1 = serial inline execution)", ge=1
    )
    max_batch: int = _knob(
        1, "micro-batch size cap for POST /search (1 = no coalescing, the "
        "serial behaviour)",
        alias="batch", ge=1,
    )
    batch_window_ms: float = _knob(
        2.0, "how long the micro-batch collector waits for the batch to fill", ge=0
    )
    shards: Optional[int] = _knob(
        None, "partition the knowledge base across N shards behind the "
        "scatter-gather router (default: unsharded)",
        ge=1,
    )
    replicas: int = _knob(
        1, "identical replicas per shard, read round-robin among the healthy "
        "(implies the router)", ge=1
    )
    partitioner: str = _knob(
        "hash", "shard-assignment policy",
        choices=_registered("repro.core.sharding", "available_partitioners"),
    )
    rebalance_threshold: int = _knob(
        8, "live-object spread between the largest and smallest shard that "
        "triggers an ingest-time rebalance (0 = never)",
        ge=0,
    )
    resilience: bool = _knob(
        False, "enable the resilience layer (retries, deadlines, circuit "
        "breakers, graceful degradation)",
    )
    retry_attempts: int = _knob(
        1, "attempts per guarded component call (1 = no retries)", ge=1
    )
    retry_backoff_ms: float = _knob(10.0, "backoff before the first retry", ge=0)
    deadline_ms: Optional[float] = _knob(
        None, "per-request latency budget in milliseconds (on the command "
        "line it also enables the resilience layer)",
        gt=0,
    )
    breaker_threshold: int = _knob(
        5, "consecutive failures that open a site's circuit breaker", ge=1
    )
    breaker_reset_ms: float = _knob(
        1000.0, "how long an open breaker waits before half-open probe calls", gt=0
    )
    fault_seed: int = _knob(0, "seed for the deterministic fault injector")
    faults: Dict[str, Dict[str, Any]] = _knob(
        dict, "fault-injection specs keyed by call site"
    )
    cost_accounting: bool = _knob(
        False, "per-query cost profiles, aggregated behind GET /stats"
    )
    tiered: bool = _knob(
        False, "beyond-RAM serving for --index starling: quantized codes "
        "resident for traversal, full precision memory-mapped for rerank",
    )
    quantize_bits: int = _knob(
        8, "resident-tier code width (with --tiered)", choices=(4, 8)
    )
    rerank_factor: int = _knob(
        4, "full-precision rerank over-fetch multiplier (with --tiered)", ge=1
    )
    mmap_cache_blocks: int = _knob(
        32, "buffer-pool blocks in front of the mmap tier (with --tiered; "
        "0 disables caching)",
        ge=0,
    )
    planner: bool = _knob(
        False, "self-tuning query planner: pick per-query search budget "
        "and shard fan-out from live latency/recall distributions",
    )
    recall_floor: float = _knob(
        0.8, "minimum acceptable recall@k for planner and semantic-cache "
        "decisions",
        ge=0, le=1,
    )
    semantic_cache: bool = _knob(
        False, "serve near-duplicate queries from the semantic cache "
        "(cosine matching over query embeddings)",
    )
    semantic_threshold: float = _knob(
        0.9, "cosine similarity at or above which a cached near-duplicate "
        "qualifies (0 = exact-match only)",
        ge=0, le=1,
    )
    admission: bool = _knob(
        False, "admission control: shed or degrade requests before the "
        "engine saturates",
    )
    agentic: bool = _knob(
        False, "agentic answering: decompose the question into per-concept "
        "hops and compose per-claim cited answers",
    )
    agentic_max_hops: int = _knob(
        4, "maximum decomposed sub-queries per agentic question", ge=1
    )
    agentic_refine_rounds: int = _knob(
        1, "re-retrieval rounds for unsupported claims (0 disables refinement)",
        ge=0,
    )

    def __post_init__(self) -> None:
        self.weight_mode = WeightMode.parse(self.weight_mode)
        if self.llm == "none":
            self.llm = None
        if not isinstance(self.dataset, DatasetSpec):
            self.dataset = _dataset_spec(self.dataset)
        self.validate()

    @property
    def sharding_enabled(self) -> bool:
        """True when indexing should build the shard router instead of a
        bare framework (any explicit ``shards`` value, or extra replicas)."""
        return self.shards is not None or self.replicas > 1

    def validate(self) -> None:
        """Check every field against its declaration, then the rules that
        span more than one field; raises ConfigurationError."""
        if self.dataset.domain not in DOMAINS:
            valid = ", ".join(sorted(DOMAINS))
            raise ConfigurationError(
                f"unknown knowledge-base domain {self.dataset.domain!r}; "
                f"expected one of: {valid}"
            )
        for spec in fields(self):
            _check(spec, getattr(self, spec.name))
        if self.weight_mode is WeightMode.FIXED and not self.fixed_weights:
            raise ConfigurationError("weight_mode 'fixed' requires fixed_weights")
        if self.weight_mode is WeightMode.LEARNED:
            # Same idea as the fault specs below: the learner's own checks
            # run here, so a bad override is refused at configuration time
            # and not after the knowledge base has been generated.
            from repro.weights import WeightLearningConfig

            try:
                WeightLearningConfig(**self.weight_learning)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"invalid weight_learning: {exc}") from exc
            if self.external_knowledge and self.dataset.size < 2:
                raise ConfigurationError(
                    "weight_mode 'learned' contrasts objects and needs at "
                    f"least two, got dataset.size={self.dataset.size}; use "
                    "'equal' or 'fixed'"
                )
        if self.faults:
            # Reuse the injector's own validation so the config panel and
            # CLI reject bad specs at configuration time, not mid-query.
            from repro.core.resilience import FaultInjector

            FaultInjector(seed=self.fault_seed, specs=self.faults)
        if self.tiered and self.index != "starling":
            raise ConfigurationError(
                "tiered serving requires index 'starling', got "
                f"{self.index!r}"
            )

    # ------------------------------------------------------------------
    # serialisation (the flight recorder embeds the config so a replay
    # can rebuild the exact system)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready view of every field (enums become their values)."""
        data = asdict(self)
        data["weight_mode"] = self.weight_mode.value
        data["dataset"]["modalities"] = [
            m.value for m in self.dataset.modalities
        ]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MQAConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are rejected (a recording from a future version
        should fail loudly, not half-apply).
        """
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigurationError(
                f"unknown configuration keys: {', '.join(sorted(unknown))}"
            )
        return cls(**{**data, "dataset": data.get("dataset") or {}})

    def summary(self) -> Dict[str, str]:
        """Flat key -> value view for the status panel."""
        index = self.index
        if self.tiered:
            index += (
                f" (tiered sq{self.quantize_bits}, rerank x{self.rerank_factor})"
            )
        body = {
            "knowledge base": f"{self.dataset.domain} ({self.dataset.size} objects)"
            if self.external_knowledge
            else "disabled (LLM-only mode)",
            "encoder set": self.encoder_set,
            "weight mode": self.weight_mode.value,
            "index": index,
            "framework": self.framework,
            "result count": str(self.result_count),
            "search budget": str(self.search_budget),
            "llm": self.llm or "none",
            "temperature": f"{self.temperature:.2f}",
        }
        adaptive = []
        if self.planner:
            adaptive.append(f"planner (floor {self.recall_floor:.2f})")
        if self.semantic_cache:
            adaptive.append(f"semantic cache @ {self.semantic_threshold:.2f}")
        if self.admission:
            adaptive.append("admission control")
        if adaptive:
            body["planning"] = ", ".join(adaptive)
        if self.agentic:
            body["agentic"] = (
                f"multi-hop (max {self.agentic_max_hops} hops, "
                f"{self.agentic_refine_rounds} refine rounds)"
            )
        return body


def _dataset_spec(data: Dict[str, Any]) -> DatasetSpec:
    """A :class:`DatasetSpec` from its ``to_dict`` form (what a recording
    header and a ``POST /configure`` body carry)."""
    try:
        data = dict(data)
        if "modalities" in data:
            data["modalities"] = tuple(Modality.parse(m) for m in data["modalities"])
        return DatasetSpec(**data)
    except TypeError as exc:
        raise ConfigurationError(f"dataset: {exc}") from None


_COMPARISONS = {
    "ge": (operator.ge, ">="), "gt": (operator.gt, ">"), "le": (operator.le, "<="),
}


def _check(spec: Field, value: Any) -> None:
    """Raise ConfigurationError unless ``value`` is legal for the field
    ``spec`` declares; ``None`` is legal exactly for ``Optional`` fields."""
    optional = spec.type.startswith("Optional[")
    if value is None and optional:
        return
    choices, bounds = spec.metadata["choices"], spec.metadata["bounds"]
    if callable(choices):
        if value not in choices():
            raise ConfigurationError(
                f"unknown {spec.name.replace('_', ' ')} {value!r}; "
                f"available: {', '.join(choices())}"
            )
        return
    if choices is not None:
        legal, ok = " or ".join(map(str, choices)), value in choices
    else:
        legal = " and ".join(
            f"{_COMPARISONS[key][1]} {bound:g}" for key, bound in bounds.items()
        )
        try:
            ok = all(_COMPARISONS[key][0](value, b) for key, b in bounds.items())
        except TypeError:  # e.g. a string from POST /configure
            ok = False
    if not ok:
        raise ConfigurationError(
            f"{spec.name} must be {legal}{' or None' if optional else ''}, "
            f"got {value!r}"
        )


#: Every name a field answers to on the CLI and in ``run_loadgen``: its own,
#: and its declared alias.
_FIELD_NAMED = {
    name: spec
    for spec in fields(MQAConfig)
    for name in (spec.name, spec.metadata["alias"])
    if name
}
_ARGUMENT_TYPES = {
    "int": int, "float": float, "Optional[int]": int, "Optional[float]": float,
}


def add_config_arguments(parser: argparse.ArgumentParser, names: Iterable[str]) -> None:
    """Give ``parser`` one ``--flag`` per name in ``names`` (field names or
    declared aliases): type, default, choices and help come from the field's
    declaration, a bool field is a ``store_true`` switch."""
    for name in names:
        spec = _FIELD_NAMED[name]
        meta = spec.metadata
        flag = "--" + name.replace("_", "-")
        if spec.type == "bool":
            parser.add_argument(flag, dest=name, action="store_true", help=meta["help"])
            continue
        choices = meta["choices"]
        parser.add_argument(
            flag, dest=name, type=_ARGUMENT_TYPES.get(spec.type), default=spec.default,
            choices=None if callable(choices) else choices,
            metavar=meta["metavar"], help=meta["help"],
        )


def config_overrides(args: argparse.Namespace) -> Dict[str, Any]:
    """The :class:`MQAConfig` keyword arguments a parsed namespace carries:
    every dest that is a field name or alias, keyed by field name."""
    return {
        _FIELD_NAMED[dest].name: value
        for dest, value in vars(args).items()
        if dest in _FIELD_NAMED
    }
