"""Horizontal sharding: partitioners, shard replicas, and the scatter router.

The paper's MQA system sits on Milvus precisely so the knowledge base can
scale past one node.  This module lifts the single-node engine behind a
routing layer:

* a **partitioner** assigns every object to one of N shards — by a stable
  hash of the object id (the default), or by the object's leading concept
  so semantically close objects co-locate;
* each shard is a **replica group** of R independently built, identical
  framework+index stacks; reads pick a replica round-robin, skipping
  replicas whose last calls failed (health-aware selection), writes apply
  to every replica;
* the :class:`ShardRouter` presents the ordinary
  :class:`~repro.retrieval.base.RetrievalFramework` surface to the
  coordinator: ``retrieve``/``retrieve_batch`` scatter to every shard and
  merge the per-shard top-k exactly on ``(score, object_id)``, so the
  merged ids equal the unsharded ids wherever per-shard search is exact.

How partial answers combine is the framework's decision, not the router's:
``_merge`` hands each query's per-shard responses to
:meth:`RetrievalFramework.merge <repro.retrieval.base.RetrievalFramework.merge>`
of the framework it wraps — the exact item-level merge for JE and MUST, a
stream-level re-fusion for MR, whose fused scores are functions of
shard-*local* ranks and cannot be merged as they are.

Ids: shard-local indexes keep their own dense id space (frameworks insist
on it), so every replica stores a *localised clone* of each object
(``dataclasses.replace(obj, object_id=local_id)`` — content is untouched)
plus the local→global translation applied to every search result.

At ``shards=1`` the router is a pure pass-through — the inner framework's
response object is returned unmodified, which is what makes the sharded
path bit-identical to the unsharded engine in that configuration.

Rebalancing: ingest-driven.  When the largest/smallest shard spread
exceeds the configured threshold, the router moves the newest objects to
the smallest shard — each move commits the object to every destination
replica *first*, flips the owner map, and only then tombstones the source
copy, so a search observing the mid-move state sees the object once (the
merge deduplicates) and never loses it.  A router-level deleted set makes
``remove_object`` safe against in-flight moves: a removed id is filtered
out of every shard's results regardless of which copies carry local
tombstones.

Failure: each shard search runs under a per-shard circuit breaker site
(``shard.<i>.search``) when resilience is on.  A failing or open-breaker
shard contributes nothing; the merged response carries
``degraded_reasons`` naming the missing shards, and ``GET /health``
surfaces the per-shard ledger.  Only when *every* shard fails does the
error propagate.

The scatter is a loop on the calling thread: in process, under the GIL,
shards are CPU-bound and a thread pool only adds hand-off cost (measured
3.4x slower than this loop on real work), so there is none.  The router
encodes a read once and scatters its vectors; a sharded read still costs
more than the unsharded one, since every shard pays its own fixed
per-search overhead.  What the module models honestly
is partitioning, the exact merge, tombstones, rebalancing and degradation.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.data.modality import Modality
from repro.data.objects import MultiModalObject
from repro.encoders.base import EncodedQuery
from repro.errors import CircuitOpenError, MQAError, RetrievalError
from repro.observability import labelled, trace_span
from repro.retrieval import build_framework
from repro.retrieval.base import (
    IndexBuilder,
    ObjectFilter,
    RetrievalFramework,
    RetrievalResponse,
    merge_shard_topk,  # noqa: F401 - moved to the frameworks' module, still importable here
)
from repro.utils import Registry, object_id_of

# ----------------------------------------------------------------------
# partitioners
# ----------------------------------------------------------------------


def _stable_hash(data: bytes) -> int:
    """Process-independent hash (``hash()`` varies with PYTHONHASHSEED)."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


class HashPartitioner:
    """Assign objects to shards by a stable hash of the object id."""

    name = "hash"

    def __init__(self, shards: int) -> None:
        self.shards = shards

    def assign(self, obj: MultiModalObject) -> int:
        """Shard index in ``[0, shards)`` for ``obj``."""
        return _stable_hash(str(obj.object_id).encode()) % self.shards


class ConceptPartitioner:
    """Assign objects by their leading concept, co-locating similar ones.

    Objects composed from the same dominant concept land on the same
    shard, which keeps concept-local traffic on one replica group.
    Objects without concepts fall back to the id hash.
    """

    name = "concept"

    def __init__(self, shards: int) -> None:
        self.shards = shards

    def assign(self, obj: MultiModalObject) -> int:
        """Shard index in ``[0, shards)`` keyed on the leading concept."""
        if obj.concepts:
            return _stable_hash(obj.concepts[0].encode("utf-8")) % self.shards
        return _stable_hash(str(obj.object_id).encode()) % self.shards


PARTITIONERS = Registry("partitioner")
PARTITIONERS.register(HashPartitioner.name, HashPartitioner)
PARTITIONERS.register(ConceptPartitioner.name, ConceptPartitioner)
available_partitioners = PARTITIONERS.names


def build_partitioner(name: str, shards: int):
    """Instantiate a registered partitioner for ``shards`` shards."""
    factory, _ = PARTITIONERS.lookup(name)
    return factory(shards)


class ShardReplica:
    """One self-contained copy of a shard: framework + indexes + id maps.

    Replicas of the same shard are built independently over the same
    localised corpus; every build is deterministic, so replicas return
    identical results and replica selection can never change a query's
    answer — only which copy does the work.
    """

    def __init__(self, shard_index: int, replica_index: int) -> None:
        self.shard_index = shard_index
        self.replica_index = replica_index
        self.framework: Optional[RetrievalFramework] = None
        self.global_ids: List[int] = []
        self._local_of: Dict[int, int] = {}
        #: The localised clones, in local-id order — all a framework's
        #: ``setup`` needs of a knowledge base is to iterate it.
        self._view: List[MultiModalObject] = []
        self.healthy = True
        self.searches = 0
        self.errors = 0

    # -- construction ---------------------------------------------------
    def build(
        self,
        objects: Sequence[MultiModalObject],
        framework_factory: Callable[[], RetrievalFramework],
        encoder_set,
        index_builder: IndexBuilder,
        weights,
        corpus=None,
    ) -> None:
        """Localise ``objects`` and build this replica's framework.

        ``corpus`` is the encoded ``objects`` (row ``i`` = ``objects[i]``),
        as :meth:`RetrievalFramework.setup` takes it.  An empty shard stays
        frameworkless (indexes cannot build over an empty matrix) and
        answers every search with no results; the first :meth:`add` builds
        it lazily.
        """
        self._factory = framework_factory
        self._encoder_set = encoder_set
        self._index_builder = index_builder
        self._weights = weights
        for obj in objects:
            local_id = len(self.global_ids)
            self._view.append(replace(obj, object_id=local_id))
            self._local_of[obj.object_id] = local_id
            self.global_ids.append(obj.object_id)
        if self._view:
            framework = framework_factory()
            framework.setup(
                self._view, encoder_set, index_builder, weights=weights,
                corpus=corpus,
            )
            self.framework = framework

    def add(self, obj: MultiModalObject) -> None:
        """Append the localised clone of ``obj`` (lazy-building if empty)."""
        local_id = len(self.global_ids)
        clone = replace(obj, object_id=local_id)
        if self.framework is None:
            self._view.append(clone)
            self._local_of[obj.object_id] = local_id
            self.global_ids.append(obj.object_id)
            framework = self._factory()
            framework.setup(
                self._view, self._encoder_set, self._index_builder,
                weights=self._weights,
            )
            self.framework = framework
            return
        self.framework.add_object(clone)
        self._view.append(clone)
        self._local_of[obj.object_id] = local_id
        self.global_ids.append(obj.object_id)

    # -- id translation -------------------------------------------------
    def local_id(self, global_id: int) -> Optional[int]:
        """This replica's local id for ``global_id`` (None if absent)."""
        return self._local_of.get(global_id)

    def holds(self, global_id: int) -> bool:
        """Whether this replica stores a copy of ``global_id``."""
        return global_id in self._local_of

    def tombstone(self, global_id: int) -> None:
        """Locally tombstone ``global_id`` (no-op when absent/unbuilt)."""
        local = self._local_of.get(global_id)
        if local is not None and self.framework is not None:
            self.framework.remove_object(local)

    def restore(self, global_id: int) -> None:
        """Lift ``global_id``'s local tombstone (no-op when absent)."""
        local = self._local_of.get(global_id)
        if local is not None and self.framework is not None:
            self.framework.restore_object(local)

    def live_count(self) -> int:
        """Objects held minus local tombstones."""
        if self.framework is None:
            return 0
        return len(self.global_ids) - len(self.framework.deleted_ids)

    # -- search ---------------------------------------------------------
    def _localise_filter(
        self, filter_fn: "ObjectFilter | None"
    ) -> "ObjectFilter | None":
        """Translate a global-id predicate into local-id space."""
        if filter_fn is None:
            return None
        global_ids = self.global_ids
        return lambda local_id: filter_fn(global_ids[local_id])

    def _globalise(self, response: RetrievalResponse) -> RetrievalResponse:
        """Rewrite a response's local ids back into global ids in place."""
        global_ids = self.global_ids
        for item in response.items:
            item.object_id = global_ids[item.object_id]
        if response.per_modality_ids:
            response.per_modality_ids = {
                modality: [global_ids[i] for i in ids]
                for modality, ids in response.per_modality_ids.items()
            }
        return response

    def search_batch(
        self,
        queries: Sequence[EncodedQuery],
        k: int,
        budget: int,
        weights=None,
        filter_fn: "ObjectFilter | None" = None,
    ) -> List[RetrievalResponse]:
        """Top-``k`` per query over this replica, results in global ids; the
        router's vectors are handed on, so the replica encodes nothing."""
        self.searches += len(queries)
        if self.framework is None:
            return [
                RetrievalResponse(framework="empty-shard", items=[])
                for _ in queries
            ]
        # Every index clamps k to its corpus size, so small shards simply
        # return everything they have.
        responses = self.framework.retrieve_batch(
            queries, k=k, budget=budget, weights=weights,
            filter_fn=self._localise_filter(filter_fn),
        )
        return [self._globalise(response) for response in responses]

    def snapshot(self) -> Dict[str, Any]:
        """Replica counters for the /health per-shard ledger."""
        return {
            "replica": self.replica_index,
            "objects": len(self.global_ids),
            "live": self.live_count(),
            "healthy": self.healthy,
            "searches": self.searches,
            "errors": self.errors,
        }


class ShardGroup:
    """One shard's replica set with round-robin, health-aware selection.

    ``events`` / ``metrics`` are the coordinator's log and registry;
    when present, replica probes and health transitions surface as
    structured ``replica-probe`` events and labelled counters.
    """

    #: After this many selections that skipped it, an unhealthy replica
    #: gets probed again (it may have recovered).
    PROBE_EVERY = 8

    def __init__(
        self,
        shard_index: int,
        replicas: Sequence[ShardReplica],
        events=None,
        metrics=None,
    ) -> None:
        self.shard_index = shard_index
        self.replicas = list(replicas)
        self.events = events
        self.metrics = metrics
        self._cursor = 0
        self._skips = 0
        self._lock = threading.Lock()
        #: Single-replica fast path: no rotation to arbitrate, so a
        #: healthy lone replica is returned without taking the lock.
        self._single = self.replicas[0] if len(self.replicas) == 1 else None

    def select(self) -> ShardReplica:
        """Next replica: round-robin over healthy ones, periodically
        probing unhealthy ones so they can rejoin after recovery."""
        single = self._single
        if single is not None and single.healthy:
            return single
        chosen: "ShardReplica | None" = None
        probed = False
        with self._lock:
            for _ in range(len(self.replicas)):
                replica = self.replicas[self._cursor % len(self.replicas)]
                self._cursor += 1
                if replica.healthy:
                    chosen = replica
                    break
                self._skips += 1
                if self._skips >= self.PROBE_EVERY:
                    self._skips = 0
                    chosen = replica
                    probed = True
                    break
            if chosen is None:
                # All replicas unhealthy: probe in rotation anyway —
                # serving a possibly-failing replica beats dropping the
                # shard silently.
                chosen = self.replicas[self._cursor % len(self.replicas)]
                self._cursor += 1
                probed = True
        if probed:
            self._note_probe(chosen)
        return chosen

    def _note_probe(self, replica: ShardReplica) -> None:
        """Surface one unhealthy-replica probe (events + labelled metric).

        Called outside the group lock — the event log and registry have
        their own locks and probes are rare by construction.
        """
        if self.metrics is not None:
            self.metrics.inc(
                labelled(
                    "shard.replica_probes",
                    shard=self.shard_index,
                    replica=replica.replica_index,
                )
            )
        if self.events is not None:
            self.events.record(
                "sharding",
                f"shard {self.shard_index}",
                "replica-probe",
                f"probing unhealthy replica "
                f"{self.shard_index}.{replica.replica_index}",
            )

    def mark(self, replica: ShardReplica, ok: bool) -> None:
        """Record the outcome of a call served by ``replica``."""
        with self._lock:
            changed = replica.healthy != ok
            replica.healthy = ok
            if not ok:
                replica.errors += 1
        if changed and self.events is not None:
            state = "recovered" if ok else "marked unhealthy"
            self.events.record(
                "sharding",
                f"shard {self.shard_index}",
                "replica-probe",
                f"replica {self.shard_index}.{replica.replica_index} {state}",
            )

    # Writes fan out to every replica so all copies stay identical.
    def add(self, obj: MultiModalObject) -> None:
        """Ingest ``obj`` into every replica of this shard."""
        for replica in self.replicas:
            replica.add(obj)

    def tombstone(self, global_id: int) -> None:
        """Tombstone ``global_id`` on every replica."""
        for replica in self.replicas:
            replica.tombstone(global_id)

    def restore(self, global_id: int) -> None:
        """Lift ``global_id``'s tombstone on every replica."""
        for replica in self.replicas:
            replica.restore(global_id)

    def holds(self, global_id: int) -> bool:
        """Whether this shard stores a copy of ``global_id``."""
        return self.replicas[0].holds(global_id)

    def live_count(self) -> int:
        """Objects held minus tombstones (replicas are identical)."""
        return self.replicas[0].live_count()

    def live_global_ids(self) -> List[int]:
        """Global ids held and not locally tombstoned, insertion order."""
        primary = self.replicas[0]
        if primary.framework is None:
            return []
        deleted = primary.framework.deleted_ids
        return [
            gid
            for local, gid in enumerate(primary.global_ids)
            if local not in deleted
        ]

    def snapshot(self) -> Dict[str, Any]:
        """Shard counters plus every replica's, for /health."""
        return {
            "shard": self.shard_index,
            "objects": len(self.replicas[0].global_ids),
            "live": self.live_count(),
            "replicas": [replica.snapshot() for replica in self.replicas],
        }


# ----------------------------------------------------------------------
# the router
# ----------------------------------------------------------------------


class ShardRouter(RetrievalFramework):
    """Scatter-gather retrieval over hash-partitioned shard replicas.

    Presents the plain :class:`RetrievalFramework` surface, so the
    coordinator, query execution, cache, and micro-batcher all work
    unchanged above it.  ``weights`` and ``filter_fn`` are passed on, so
    the router declares — and refuses, with the unsharded engine's errors
    — exactly what the framework it wraps does.

    Args:
        framework_name: Registered inner framework ("mr" / "je" / "must").
        shards: Number of shards (1 = pass-through).
        replicas: Replicas per shard.
        partitioner: Registered partitioner name.
        rebalance_threshold: Live-object spread (largest minus smallest
            shard) that triggers an ingest-time rebalance; 0 disables.
        resilience: Optional :class:`~repro.core.resilience.ResilienceManager`;
            when enabled, every shard search runs under its own breaker
            site ``shard.<i>.search``.
        events: Optional :class:`~repro.core.events.EventLog`; rebalance
            moves, owner flips, and replica probes are recorded as
            structured ``shard-rebalance`` / ``replica-probe`` events.
        metrics: Optional :class:`~repro.observability.metrics.MetricsRegistry`;
            the same churn is counted as labelled families
            (``shard.moves{source=...,destination=...}``,
            ``shard.replica_probes{shard=...,replica=...}``).
    """

    name = "shard-router"

    def __init__(
        self,
        framework_name: str,
        shards: int = 1,
        replicas: int = 1,
        partitioner: str = "hash",
        rebalance_threshold: int = 8,
        resilience=None,
        events=None,
        metrics=None,
    ) -> None:
        super().__init__()
        if shards < 1:
            raise RetrievalError(f"shards must be >= 1, got {shards}")
        if replicas < 1:
            raise RetrievalError(f"replicas must be >= 1, got {replicas}")
        self.framework_name = framework_name
        self.shards = shards
        self.replica_count = replicas
        self.partitioner = build_partitioner(partitioner, shards)
        self.rebalance_threshold = rebalance_threshold
        self.resilience = resilience
        self.events = events
        self.metrics = metrics
        self.groups: List[ShardGroup] = []
        #: A never-set-up instance of the wrapped framework: it answers for
        #: what the replicas honour and how their partial answers merge.
        self._inner = self._framework_factory()
        #: What the wrapped framework honours, plus ``fanout``: the router
        #: takes ``weights`` and ``filter_fn`` only to pass them on, so every
        #: caller that asks (degradation, query execution) is answered as
        #: the unsharded engine would answer, at any shard count.
        self.capabilities = self._inner.capabilities | {"fanout"}
        self._owner: Dict[int, int] = {}
        self._meta_lock = threading.Lock()
        self.moves = 0
        self.rebalances = 0
        self.degraded_searches = 0

    # ------------------------------------------------------------------
    # setup / writes
    # ------------------------------------------------------------------
    def _framework_factory(self) -> RetrievalFramework:
        return build_framework(self.framework_name)

    def setup(
        self,
        kb,
        encoder_set,
        index_builder: IndexBuilder,
        weights: "Dict[Modality, float] | None" = None,
        corpus=None,
    ) -> None:
        """Partition ``kb`` and build every shard's replica set.

        Every replica indexes its rows of the one encoded corpus, so a
        shard's vectors are the unsharded build's vectors to the bit.  A
        shard's rows are gathered once and all its replicas build over that
        one :class:`~repro.encoders.base.EncodedCorpus`: builds never write
        it, and an index copies its rows before its first ``add``.
        """
        start = time.perf_counter()
        corpus = self._corpus(kb, encoder_set, corpus)
        assignments: List[List[MultiModalObject]] = [[] for _ in range(self.shards)]
        rows: List[List[int]] = [[] for _ in range(self.shards)]
        for row, obj in enumerate(kb):
            shard = self.partitioner.assign(obj)
            self._owner[obj.object_id] = shard
            assignments[shard].append(obj)
            rows[shard].append(row)
        self.groups = []
        for shard_index, objects in enumerate(assignments):
            shard_corpus = corpus.take(rows[shard_index])
            replicas = []
            for replica_index in range(self.replica_count):
                replica = ShardReplica(shard_index, replica_index)
                replica.build(
                    objects, self._framework_factory, encoder_set,
                    index_builder, weights, corpus=shard_corpus,
                )
                replicas.append(replica)
            self.groups.append(
                ShardGroup(
                    shard_index,
                    replicas,
                    events=self.events,
                    metrics=self.metrics,
                )
            )
        self.kb = kb
        self.encoder_set = encoder_set
        self.setup_seconds = time.perf_counter() - start

    def add_object(self, obj: MultiModalObject) -> int:
        """Route one ingested object to its shard (then maybe rebalance)."""
        self._require_ready()
        shard = self.partitioner.assign(obj)
        self.groups[shard].add(obj)
        with self._meta_lock:
            self._owner[obj.object_id] = shard
        self._maybe_rebalance()
        return obj.object_id

    def remove_object(self, object_id: int) -> None:
        """Tombstone globally, then on the owning shard's replicas.

        The router-level deleted set is the correctness mechanism: every
        search filters against it, so the id stays gone even if a
        mid-flight move leaves an untombstoned copy on another shard.
        """
        self._require_ready()
        object_id = object_id_of(object_id, RetrievalError)
        with self._meta_lock:
            owner = self._owner.get(object_id)
            if owner is None:
                raise RetrievalError(
                    f"object {object_id} is not held by any shard"
                )
            self._deleted.add(object_id)
        self.groups[owner].tombstone(object_id)

    def restore_object(self, object_id: int) -> None:
        self._require_ready()
        with self._meta_lock:
            self._deleted.discard(object_id)
            owner = self._owner.get(object_id)
        if owner is not None:
            self.groups[owner].restore(object_id)

    # ------------------------------------------------------------------
    # rebalancing (ingest-driven)
    # ------------------------------------------------------------------
    def _maybe_rebalance(self) -> None:
        """Move objects from the largest to the smallest shard when the
        live-count spread exceeds the threshold."""
        if self.rebalance_threshold <= 0 or self.shards < 2:
            return
        counts = [group.live_count() for group in self.groups]
        largest = max(range(self.shards), key=lambda i: counts[i])
        smallest = min(range(self.shards), key=lambda i: counts[i])
        spread = counts[largest] - counts[smallest]
        if spread <= self.rebalance_threshold:
            return
        self.rebalances += 1
        to_move = spread // 2
        if self.metrics is not None:
            self.metrics.inc(
                labelled(
                    "shard.rebalances", source=largest, destination=smallest
                )
            )
        if self.events is not None:
            self.events.record(
                "sharding",
                self.name,
                "shard-rebalance",
                f"spread {spread} > threshold {self.rebalance_threshold}: "
                f"moving up to {to_move} object(s) from shard {largest} "
                f"to shard {smallest}",
            )
        # Newest objects move first: they are the cheapest to re-encode
        # conceptually (just-ingested) and moving them converges the
        # spread without touching the stable head of the shard.
        candidates = self.groups[largest].live_global_ids()[::-1]
        moved = 0
        with trace_span(
            "shard-rebalance", source=largest, destination=smallest,
            spread=spread,
        ) as span:
            for global_id in candidates:
                if moved >= to_move:
                    break
                with self._meta_lock:
                    if global_id in self._deleted:
                        continue
                self._move_object(global_id, largest, smallest)
                moved += 1
            span.set(moved=moved)

    def _move_object(self, global_id: int, source: int, destination: int) -> None:
        """One migration: destination commit → owner flip → source tombstone."""
        assert self.kb is not None
        obj = self.kb.get(global_id)
        self._commit_to_destination(obj, destination)
        with self._meta_lock:
            self._owner[global_id] = destination
        self._tombstone_source(global_id, source)
        self.moves += 1
        if self.metrics is not None:
            self.metrics.inc(
                labelled("shard.moves", source=source, destination=destination)
            )
        if self.events is not None:
            self.events.record(
                "sharding",
                self.name,
                "shard-rebalance",
                f"moved object {global_id}: shard {source} -> {destination} "
                "(owner flipped)",
            )

    def _commit_to_destination(self, obj: MultiModalObject, destination: int) -> None:
        """Step 1 of a move: the object becomes live on the destination.

        Split out as a method so the deterministic concurrency harness can
        pause a move between commit and source-tombstone.
        """
        self.groups[destination].add(obj)

    def _tombstone_source(self, global_id: int, source: int) -> None:
        """Step 2 of a move: retire the source copy (after the commit)."""
        self.groups[source].tombstone(global_id)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _deleted_filter(
        self, filter_fn: "ObjectFilter | None"
    ) -> "ObjectFilter | None":
        """Fold the router-level deleted set into the global-id filter."""
        with self._meta_lock:
            if not self._deleted:
                return filter_fn
            deleted = set(self._deleted)
        if filter_fn is None:
            return lambda object_id: object_id not in deleted
        return lambda object_id: object_id not in deleted and filter_fn(object_id)

    def _check_options(self, weights, filter_fn, error: type = RetrievalError) -> None:
        """Refused by — and in the name of — the wrapped framework."""
        self._inner._check_options(weights, filter_fn, error)

    def _guarded_shard_call(
        self,
        shard_index: int,
        fn: Callable[[ShardReplica], Any],
        degraded: List[str],
        span,
    ) -> Any:
        """Run one shard's search; failures degrade to a missing shard.

        Returns None when the shard contributed nothing.  ``degraded``
        collects human-readable reasons (also the /health story); ``span``
        is the shard's ``shard-search`` span and is labelled with the
        serving replica.  A request's own faults never get here: ``k``, the
        options and the query content were refused, and the query encoded,
        before the scatter.
        """
        group = self.groups[shard_index]
        replica = group.select()
        span.set(replica=replica.replica_index)
        site = f"shard.{shard_index}.search"
        try:
            if self.resilience is not None and self.resilience.enabled:
                result = self.resilience.call(site, lambda: fn(replica))
            else:
                result = fn(replica)
        except CircuitOpenError as exc:
            group.mark(replica, False)
            degraded.append(f"shard {shard_index} unavailable (breaker open)")
            self._note_degraded(exc)
            return None
        except MQAError as exc:
            group.mark(replica, False)
            degraded.append(
                f"shard {shard_index} unavailable ({type(exc).__name__})"
            )
            self._note_degraded(exc)
            return None
        group.mark(replica, True)
        return result

    def _note_degraded(self, exc: Exception) -> None:
        with self._meta_lock:
            self.degraded_searches += 1
            self._last_error = exc

    def _scatter(
        self,
        call_of: Callable[[ShardReplica], Any],
        targets: Sequence[int],
        degraded: List[str],
        **span_attrs: Any,
    ) -> List[Any]:
        """Ask every target shard in turn; the list is aligned with
        ``targets`` (None where a shard did not answer).

        With a trace active the loop is one ``scatter`` span holding a
        ``shard-search`` child per shard — the shard's own pipeline spans
        nest inside it, its duration is the shard's time, and the cost
        plane reads its per-shard rows off the attributes written here.
        """
        responses: List[Any] = []
        with trace_span("scatter", shards=len(targets), **span_attrs) as scatter_span:
            for shard in targets:
                with trace_span("shard-search", shard=shard) as span:
                    result = self._guarded_shard_call(shard, call_of, degraded, span)
                    answered = result or ()
                    span.set(
                        ok=result is not None,
                        items=sum(len(r.items) for r in answered),
                        distance_evaluations=sum(
                            r.stats.distance_evaluations for r in answered
                        ),
                        hops=sum(r.stats.hops for r in answered),
                    )
                responses.append(result)
            scatter_span.set(answered=sum(1 for r in responses if r is not None))
        return responses

    def _search_encoded(
        self, queries, k, budget, weights=None, filter_fn=None, fanout=None
    ) -> List[RetrievalResponse]:
        """Scatter the encoded batch to every shard — one ``search_batch``
        per shard is the unit of work, over the vectors encoded once here —
        and merge each query's top-k exactly.

        ``fanout`` (the planner's degraded-mode knob) limits the scatter
        to the first ``fanout`` shards; the results are marked degraded
        because the unqueried shards may hold better neighbours.
        """
        if self.shards == 1:
            return self._passthrough_batch(queries, k, budget, weights, filter_fn)
        shard_filter = self._deleted_filter(filter_fn)
        degraded: List[str] = []
        targets = range(self.shards)
        if fanout is not None and 1 <= fanout < self.shards:
            targets = range(fanout)
            degraded.append(
                f"fanout limited to {fanout}/{self.shards} shards (planner)"
            )
        per_shard = self._scatter(
            lambda replica: replica.search_batch(
                queries, k, budget, weights=weights, filter_fn=shard_filter
            ),
            targets,
            degraded,
            k=k,
            queries=len(queries),
        )
        answered = [r for r in per_shard if r is not None]
        if not answered:
            raise RetrievalError(
                f"all {self.shards} shards unavailable "
                f"(last: {type(self._last_error).__name__}: {self._last_error})"
            )

        with trace_span(
            "shard-merge", shards_answered=len(answered), queries=len(queries)
        ):
            return [
                self._merge(
                    [batch[position] for batch in answered],
                    k,
                    degraded,
                    weights=weights,
                )
                for position in range(len(queries))
            ]

    _last_error: Exception = RetrievalError("no shard searched yet")

    def _passthrough_batch(self, queries, k, budget, weights, filter_fn):
        """shards=1: delegate unmodified — the bit-identity fast path.

        Replica selection still applies, but the inner framework's response
        objects are returned as-is.
        """
        replica = self.groups[0].select()
        if replica.framework is None:
            return [
                RetrievalResponse(framework="empty-shard", items=[])
                for _ in queries
            ]
        # Single shard ⇒ local ids equal global ids; no translation.
        return replica.framework.retrieve_batch(
            queries, k=k, budget=budget, weights=weights, filter_fn=filter_fn
        )

    def _merge(
        self,
        responses: Sequence[RetrievalResponse],
        k: int,
        degraded: List[str],
        weights: "Dict[Modality, float] | None" = None,
    ) -> RetrievalResponse:
        """One query's per-shard responses, merged the way the wrapped
        framework says its partial answers combine
        (:meth:`RetrievalFramework.merge`), without the ids removed at the
        router and with the scatter's degradation attached."""
        with self._meta_lock:
            drop = frozenset(self._deleted)
        merged = self._inner.merge(responses, k, drop=drop, weights=weights)
        if degraded:
            merged.degraded_reasons = list(dict.fromkeys(degraded))
        return merged

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def owner_of(self, object_id: int) -> Optional[int]:
        """The shard currently owning ``object_id`` (None if unknown)."""
        with self._meta_lock:
            return self._owner.get(object_id)

    def tiered_stores(self):
        for g, group in enumerate(self.groups):
            for r, replica in enumerate(group.replicas):
                if replica.framework is None:  # an empty shard builds lazily
                    continue
                for label, store in replica.framework.tiered_stores():
                    yield f"shard{g}/replica{r}/{label}", store

    def ledgers(self):
        return {**super().ledgers(), "sharding": self.snapshot}

    def snapshot(self) -> Dict[str, Any]:
        """The per-shard ledger surfaced in ``GET /health``."""
        breakers = {}
        if self.resilience is not None and self.resilience.enabled:
            snap = self.resilience.snapshot()
            breakers = {
                site: state
                for site, state in (snap.get("breakers") or {}).items()
                if site.startswith("shard.")
            }
        return {
            "enabled": True,
            "shards": self.shards,
            "replicas": self.replica_count,
            "partitioner": self.partitioner.name,
            "rebalance_threshold": self.rebalance_threshold,
            "objects": sum(group.live_count() for group in self.groups),
            "deleted": len(self._deleted),
            "moves": self.moves,
            "rebalances": self.rebalances,
            "degraded_searches": self.degraded_searches,
            "per_shard": [group.snapshot() for group in self.groups],
            "breakers": breakers,
        }

    def describe(self) -> str:
        sizes = ", ".join(str(group.live_count()) for group in self.groups)
        return (
            f"shard router: {self.shards} shard(s) × {self.replica_count} "
            f"replica(s) over {self.framework_name!r}, "
            f"partitioner {self.partitioner.name!r}, live per shard [{sizes}]"
        )
