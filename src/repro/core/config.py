"""System configuration — the data model behind the configuration panel."""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

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


@dataclass
class MQAConfig:
    """Every knob the configuration panel exposes.

    Attributes:
        dataset: Knowledge-base generation spec (ignored when a prebuilt
            knowledge base is supplied to the coordinator).
        external_knowledge: The paper's toggle — False runs LLM-only mode
            with no retrieval at all.
        encoder_set: Registered encoder-set name.
        weight_mode: equal / learned / fixed.
        fixed_weights: Modality-name -> weight mapping (fixed mode only).
        weight_learning: Overrides for the contrastive learner
            (steps, batch_size, ...).
        index: Registered index-algorithm name.
        index_params: Parameters forwarded to the index factory.
        framework: Registered retrieval-framework name (mr / je / must).
        result_count: Default top-k shown per round.
        search_budget: Beam width for graph searches.
        llm: Registered LLM name, or None for the no-LLM mode.
        llm_params: Parameters forwarded to the LLM factory.
        temperature: LLM output variability.
        query_rewriting: Fold dialogue intent into vague follow-up queries
            before retrieval (the "retrieval guided by LLM" mechanism).
        cache_queries: Serve repeated queries from an LRU response cache
            (invalidated on ingestion).
        tracing: Capture a hierarchical span trace (encode /
            weight-inference / index-search / fusion / generation, with
            timings and search-work counters) for every query round.  Off
            by default: the no-op tracer adds no measurable overhead to
            the serving hot path.  Traces surface through ``GET /trace``,
            the status panel, and the CLI ``--trace`` flag.
        recorder_path: Flight-recorder JSONL file; None (the default)
            disables recording.  A non-None path implies tracing — the
            recorder persists span trees, so the coordinator activates a
            tracer even when ``tracing`` is False.
        monitoring: Master switch for online quality + SLO monitoring
            (``GET /health``).  Off by default: the serving hot path then
            pays nothing.
        monitor_sample_rate: Score every Nth query against the
            latent-concept ground truth (1 = every query).
        slo_latency_ms: Rolling-window p95 latency target.
        slo_window: Requests per SLO rolling window.
        workers: Query-engine worker count.  ``1`` (the default) executes
            requests inline on the calling thread — the historical serial
            behaviour; ``N > 1`` serves up to N requests concurrently
            under the read/write lock.
        max_batch: Upper bound on how many concurrent ``/search`` requests
            the server micro-batches into one batched retrieval.  ``1``
            (the default) disables coalescing entirely — every request runs
            alone, exactly the pre-batching behaviour.
        batch_window_ms: How long the micro-batch collector waits for
            additional requests before flushing a partial batch.  Only
            meaningful with ``max_batch > 1``.
        shards: Partition the knowledge base across this many shards
            behind a scatter-gather router.  ``None`` (the default) keeps
            the historical unsharded engine — no router exists at all;
            ``1`` routes through a single shard (a pure pass-through,
            bit-identical to unsharded); ``N > 1`` hash-partitions the
            corpus and merges per-shard top-k exactly.
        replicas: Identical replicas per shard for read scaling
            (round-robin, health-aware selection).  ``replicas > 1`` with
            ``shards=None`` serves one shard from several replicas.
        partitioner: Shard-assignment policy: ``"hash"`` (stable id hash)
            or ``"concept"`` (objects sharing a leading concept co-locate).
        rebalance_threshold: Live-object spread between the largest and
            smallest shard that triggers an ingest-time rebalance; ``0``
            disables online rebalancing.
        shard_latency_ms: Simulated fixed per-shard-call service time in
            milliseconds (models remote shard RPC; 0 disables).
        shard_latency_ms_per_1k: Simulated service time per 1000 live
            objects on the called shard (models a remote shard scanning
            its partition; 0 disables).  When either knob is on, the
            router scatters on a thread pool so shard service times
            overlap.
        resilience: Master switch for the fault-tolerance layer (retries,
            deadlines, circuit breakers, graceful degradation).  Off by
            default: every guarded boundary then takes the exact
            pre-resilience code path.
        retry_attempts: Total tries per guarded call (1 = no retries).
        retry_backoff_ms: Backoff before the first retry.
        deadline_ms: Default per-request latency budget; None disables
            deadlines (requests may override per call).
        breaker_threshold: Consecutive failures that open a site's
            circuit breaker.
        breaker_reset_ms: How long an open breaker waits before letting
            half-open probe calls through.
        fault_seed: Master seed for the deterministic fault injector.
        faults: Fault-injection specs keyed by call site (or site prefix,
            e.g. ``"encoder"`` covers ``encoder.text``); each value maps
            to :class:`~repro.core.resilience.FaultSpec` kwargs.  Inert
            unless ``resilience`` is on.
        cost_accounting: Attach a per-query
            :class:`~repro.observability.costs.QueryCostProfile` (kernel
            counters + per-stage wall time) to every response and
            aggregate them in the :class:`~repro.observability.stats.StatsPlane`
            behind ``GET /stats`` and ``python -m repro stats``.  Off by
            default: the disabled path costs one context-variable read
            per instrumented site and results are bit-identical either
            way.
        tiered: Beyond-RAM serving for the Starling index: SQ-quantized
            codes stay resident for graph traversal while full-precision
            vectors spill to a memory-mapped file touched only by the
            exact rerank pass.  Off by default — results are then
            bit-identical to the classic all-in-RAM path.  Requires
            ``index="starling"``.
        quantize_bits: Resident-tier code width (8 or 4); only meaningful
            with ``tiered``.
        rerank_factor: Rerank over-fetch — traversal returns
            ``rerank_factor * k`` candidates for full-precision
            re-scoring; only meaningful with ``tiered``.
        mmap_cache_blocks: Buffer-pool blocks in front of the mmap tier
            (0 disables caching); only meaningful with ``tiered``.
        planner: Self-tuning query planner: pick the per-query search
            budget (and shard fan-out under deadline pressure) from the
            live latency/recall distributions so the cheapest plan whose
            predicted p95 fits the remaining deadline — and whose
            observed recall stays at or above ``recall_floor`` — runs.
            Off by default: queries then use ``search_budget`` verbatim
            and results are bit-identical to the unplanned path.
        recall_floor: Minimum acceptable recall@k for planner decisions
            and semantic-cache serving; plans predicted to land below
            the floor are never chosen voluntarily.
        semantic_cache: Replace the exact-match query cache with the
            near-duplicate :class:`~repro.core.cache.SemanticQueryCache`
            (cosine matching over per-modality query embeddings, same
            generation-counter invalidation on ingest).  Off by default.
        semantic_threshold: Cosine similarity at or above which a cached
            near-duplicate may be served; ``0`` degenerates to
            exact-match behaviour bit-identically.
        admission: Admission control at the query-engine boundary: a
            predicted-cost token bucket plus a queue-delay EWMA shed or
            degrade requests *before* the engine saturates, instead of
            failing at the ``EngineSaturatedError`` cliff.  Off by
            default.
        agentic: Agentic multi-hop answering: decompose the question into
            per-concept sub-queries, retrieve them as one batch, fuse the
            hops, synthesize per-claim citations, and re-retrieve for
            unsupported claims (``POST /ask`` and the ``--agentic`` CLI
            flag).  Off by default: the single-hop query path and its
            payloads are then bit-identical to the pre-agentic behaviour.
        agentic_max_hops: Upper bound on decomposed sub-queries per
            question (the original query always runs as hop 0 on top);
            only meaningful with ``agentic``.
        agentic_refine_rounds: Re-retrieval rounds allowed for claims
            whose citations carry no textual evidence; ``0`` disables the
            refinement pass.  Only meaningful with ``agentic``.
    """

    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    external_knowledge: bool = True
    encoder_set: str = "clip-joint"
    weight_mode: WeightMode = WeightMode.LEARNED
    fixed_weights: Optional[Dict[str, float]] = None
    weight_learning: Dict[str, Any] = field(default_factory=dict)
    index: str = "hnsw"
    index_params: Dict[str, Any] = field(default_factory=dict)
    framework: str = "must"
    result_count: int = 5
    search_budget: int = 64
    llm: Optional[str] = "template"
    llm_params: Dict[str, Any] = field(default_factory=dict)
    temperature: float = 0.0
    query_rewriting: bool = False
    cache_queries: bool = True
    tracing: bool = False
    recorder_path: Optional[str] = None
    monitoring: bool = False
    monitor_sample_rate: int = 8
    slo_latency_ms: float = 250.0
    slo_window: int = 64
    workers: int = 1
    max_batch: int = 1
    batch_window_ms: float = 2.0
    shards: Optional[int] = None
    replicas: int = 1
    partitioner: str = "hash"
    rebalance_threshold: int = 8
    shard_latency_ms: float = 0.0
    shard_latency_ms_per_1k: float = 0.0
    resilience: bool = False
    retry_attempts: int = 1
    retry_backoff_ms: float = 10.0
    deadline_ms: Optional[float] = None
    breaker_threshold: int = 5
    breaker_reset_ms: float = 1000.0
    fault_seed: int = 0
    faults: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    cost_accounting: bool = False
    tiered: bool = False
    quantize_bits: int = 8
    rerank_factor: int = 4
    mmap_cache_blocks: int = 32
    planner: bool = False
    recall_floor: float = 0.8
    semantic_cache: bool = False
    semantic_threshold: float = 0.9
    admission: bool = False
    agentic: bool = False
    agentic_max_hops: int = 4
    agentic_refine_rounds: int = 1

    def __post_init__(self) -> None:
        self.weight_mode = WeightMode.parse(self.weight_mode)
        self.validate()

    @property
    def sharding_enabled(self) -> bool:
        """True when indexing should build the shard router instead of a
        bare framework (any explicit ``shards`` value, or extra replicas)."""
        return self.shards is not None or self.replicas > 1

    def validate(self) -> None:
        """Check cross-field consistency; raises ConfigurationError."""
        from repro.encoders import available_encoder_sets
        from repro.index import available_indexes
        from repro.llm import available_llms
        from repro.retrieval import available_frameworks

        if self.dataset.domain not in DOMAINS:
            valid = ", ".join(sorted(DOMAINS))
            raise ConfigurationError(
                f"unknown knowledge-base domain {self.dataset.domain!r}; "
                f"expected one of: {valid}"
            )
        if self.encoder_set not in available_encoder_sets():
            raise ConfigurationError(
                f"unknown encoder set {self.encoder_set!r}; "
                f"available: {', '.join(available_encoder_sets())}"
            )
        if self.index not in available_indexes():
            raise ConfigurationError(
                f"unknown index {self.index!r}; "
                f"available: {', '.join(available_indexes())}"
            )
        if self.framework not in available_frameworks():
            raise ConfigurationError(
                f"unknown framework {self.framework!r}; "
                f"available: {', '.join(available_frameworks())}"
            )
        if self.llm is not None and self.llm not in available_llms():
            raise ConfigurationError(
                f"unknown llm {self.llm!r}; available: {', '.join(available_llms())}"
            )
        if self.weight_mode is WeightMode.FIXED and not self.fixed_weights:
            raise ConfigurationError("weight_mode 'fixed' requires fixed_weights")
        if self.result_count < 1:
            raise ConfigurationError(
                f"result_count must be >= 1, got {self.result_count}"
            )
        if self.search_budget < 1:
            raise ConfigurationError(
                f"search_budget must be >= 1, got {self.search_budget}"
            )
        if not 0.0 <= self.temperature <= 2.0:
            raise ConfigurationError(
                f"temperature must be in [0, 2], got {self.temperature}"
            )
        if self.monitor_sample_rate < 1:
            raise ConfigurationError(
                f"monitor_sample_rate must be >= 1, got {self.monitor_sample_rate}"
            )
        if self.slo_latency_ms <= 0:
            raise ConfigurationError(
                f"slo_latency_ms must be positive, got {self.slo_latency_ms}"
            )
        if self.slo_window < 1:
            raise ConfigurationError(
                f"slo_window must be >= 1, got {self.slo_window}"
            )
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.batch_window_ms < 0:
            raise ConfigurationError(
                f"batch_window_ms must be >= 0, got {self.batch_window_ms}"
            )
        if self.shards is not None and self.shards < 1:
            raise ConfigurationError(
                f"shards must be >= 1 or None, got {self.shards}"
            )
        if self.replicas < 1:
            raise ConfigurationError(
                f"replicas must be >= 1, got {self.replicas}"
            )
        from repro.core.sharding import available_partitioners

        if self.partitioner not in available_partitioners():
            raise ConfigurationError(
                f"unknown partitioner {self.partitioner!r}; "
                f"available: {', '.join(available_partitioners())}"
            )
        if self.rebalance_threshold < 0:
            raise ConfigurationError(
                "rebalance_threshold must be >= 0, got "
                f"{self.rebalance_threshold}"
            )
        if self.shard_latency_ms < 0:
            raise ConfigurationError(
                f"shard_latency_ms must be >= 0, got {self.shard_latency_ms}"
            )
        if self.shard_latency_ms_per_1k < 0:
            raise ConfigurationError(
                "shard_latency_ms_per_1k must be >= 0, got "
                f"{self.shard_latency_ms_per_1k}"
            )
        if self.retry_attempts < 1:
            raise ConfigurationError(
                f"retry_attempts must be >= 1, got {self.retry_attempts}"
            )
        if self.retry_backoff_ms < 0:
            raise ConfigurationError(
                f"retry_backoff_ms must be >= 0, got {self.retry_backoff_ms}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ConfigurationError(
                f"deadline_ms must be positive or None, got {self.deadline_ms}"
            )
        if self.breaker_threshold < 1:
            raise ConfigurationError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_reset_ms <= 0:
            raise ConfigurationError(
                f"breaker_reset_ms must be positive, got {self.breaker_reset_ms}"
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
        if self.quantize_bits not in (4, 8):
            raise ConfigurationError(
                f"quantize_bits must be 4 or 8, got {self.quantize_bits}"
            )
        if self.rerank_factor < 1:
            raise ConfigurationError(
                f"rerank_factor must be >= 1, got {self.rerank_factor}"
            )
        if self.mmap_cache_blocks < 0:
            raise ConfigurationError(
                f"mmap_cache_blocks must be >= 0, got {self.mmap_cache_blocks}"
            )
        if not 0.0 <= self.recall_floor <= 1.0:
            raise ConfigurationError(
                f"recall_floor must be in [0, 1], got {self.recall_floor}"
            )
        if not 0.0 <= self.semantic_threshold <= 1.0:
            raise ConfigurationError(
                "semantic_threshold must be in [0, 1], got "
                f"{self.semantic_threshold}"
            )
        if self.agentic_max_hops < 1:
            raise ConfigurationError(
                f"agentic_max_hops must be >= 1, got {self.agentic_max_hops}"
            )
        if self.agentic_refine_rounds < 0:
            raise ConfigurationError(
                "agentic_refine_rounds must be >= 0, got "
                f"{self.agentic_refine_rounds}"
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
        payload = dict(data)
        dataset_data = dict(payload.pop("dataset", None) or {})
        if "modalities" in dataset_data:
            dataset_data["modalities"] = tuple(
                Modality.parse(m) for m in dataset_data["modalities"]
            )
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown configuration keys: {', '.join(sorted(unknown))}"
            )
        return cls(dataset=DatasetSpec(**dataset_data), **payload)

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
