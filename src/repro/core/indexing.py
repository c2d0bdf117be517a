"""Component 3: index construction.

Instantiates the configured retrieval framework and lets it build its index
structures (one unified graph for MUST, one per modality for MR, one joint
index for JE) over the encoded knowledge base.

With sharding configured (``config.shards`` / ``config.replicas``) the
framework is built *per shard replica* behind a
:class:`~repro.core.sharding.ShardRouter`, which presents the same
framework surface to the rest of the system.
"""

from __future__ import annotations

from typing import Dict

from repro.core.config import MQAConfig
from repro.data.knowledge_base import KnowledgeBase
from repro.data.modality import Modality
from repro.encoders import EncoderSet
from repro.index import build_index
from repro.retrieval import RetrievalFramework, build_framework


class IndexConstruction:
    """Builds the framework + index stack described by the configuration."""

    name = "index construction"

    def run(
        self,
        config: MQAConfig,
        kb: KnowledgeBase,
        encoder_set: EncoderSet,
        weights: Dict[Modality, float],
        resilience=None,
        events=None,
        metrics=None,
        corpus=None,
    ) -> RetrievalFramework:
        """Set up the retrieval framework over ``kb`` and return it.

        ``corpus`` is the representation stage's encoded ``kb``, handed on
        to ``setup`` (see :meth:`RetrievalFramework.setup`);
        ``resilience`` (the coordinator's manager) is only used by the
        shard router, which guards each shard search under a per-shard
        breaker site; ``events`` and ``metrics`` likewise flow to the
        router so rebalance moves and replica probes show up in the
        event log and as labelled counters.
        """

        index_params = dict(config.index_params)
        if config.tiered:
            # Each index_builder() call creates its own TieredStore (and
            # thus its own spill file), so every shard replica owns an
            # independent mmap segment.
            index_params.setdefault(
                "tiered",
                {
                    "bits": config.quantize_bits,
                    "rerank_factor": config.rerank_factor,
                    "mmap_cache_blocks": config.mmap_cache_blocks,
                },
            )

        def index_builder():
            return build_index(config.index, index_params)

        if config.sharding_enabled:
            from repro.core.sharding import ShardRouter

            router = ShardRouter(
                framework_name=config.framework,
                shards=config.shards if config.shards is not None else 1,
                replicas=config.replicas,
                partitioner=config.partitioner,
                rebalance_threshold=config.rebalance_threshold,
                resilience=resilience,
                events=events,
                metrics=metrics,
            )
            router.setup(
                kb, encoder_set, index_builder, weights=weights, corpus=corpus
            )
            return router

        framework = build_framework(config.framework)
        framework.setup(
            kb, encoder_set, index_builder, weights=weights, corpus=corpus
        )
        return framework
