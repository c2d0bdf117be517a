"""Query-result caching with ingestion-aware invalidation.

Interactive systems see repeated queries (the user re-runs a search, the UI
refreshes a panel); an LRU cache over retrieval responses removes the
duplicate graph traversals.  The cache key covers everything that affects
the result — query content, k, budget, per-query weights, exclusions — and
the whole cache invalidates whenever the corpus changes (ingestion), so a
cached answer can never miss a newly added object.

:class:`SemanticQueryCache` layers near-duplicate matching on top: when
the exact key misses, the query's per-modality embeddings are compared
(cosine) against the embeddings of cached entries sharing the same
modality signature, ``k``, budget, weights, and — critically — the same
generation counter, so a semantic hit can never cross an ingest
invalidation.  A configurable recall guard (the planner's prediction
that serving the neighbour keeps recall above the floor) gates every
near-hit; ``threshold <= 0`` disables semantic matching entirely and the
cache degenerates to exact-match behaviour bit-for-bit.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.data.modality import Modality
from repro.data.objects import RawQuery
from repro.encoders.base import numeric_content
from repro.errors import ConfigurationError
from repro.retrieval.base import RetrievalResponse

#: Cosine similarity at or above which a cached near-duplicate qualifies.
SEMANTIC_THRESHOLD = 0.9


def _digest_content(modality: Modality, value: Any) -> str:
    """Stable digest of query content (text or array)."""
    digest = hashlib.blake2b(digest_size=12)
    if isinstance(value, str):
        digest.update(b"s")
        digest.update(value.encode("utf-8"))
    else:
        array = np.ascontiguousarray(numeric_content(modality, value))
        digest.update(b"a")
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def query_embedding(encoder_set) -> Callable[[RawQuery], Tuple[Tuple, np.ndarray]]:
    """The semantic cache's ``embed`` over ``encoder_set``: a query's
    per-modality encoder vectors, each unit-normalised, concatenated and
    jointly re-scaled so the cosine of two embeddings is the mean
    per-modality cosine; the signature names the modalities."""

    def embed(query: RawQuery) -> Tuple[Tuple, np.ndarray]:
        vectors = encoder_set.encode_query(query)
        signature: List[str] = []
        parts: List[np.ndarray] = []
        for modality in sorted(vectors, key=lambda m: m.value):
            vector = np.asarray(vectors[modality], dtype=np.float64)
            norm = float(np.linalg.norm(vector))
            parts.append(vector / norm if norm > 0.0 else vector)
            signature.append(modality.value)
        joined = np.concatenate(parts) / float(np.sqrt(len(parts)))
        return tuple(signature), joined

    return embed


class QueryCache:
    """LRU cache over retrieval responses.

    Thread-safe: concurrent searches share one cache, and the LRU
    reordering (``move_to_end``) would corrupt the underlying ordered
    dict if two readers raced through it unlocked.

    Args:
        capacity: Maximum cached responses; least-recently-used evicted.
    """

    #: True on subclasses that also serve near-duplicates.
    semantic = False

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._store: "OrderedDict[Tuple, RetrievalResponse]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self._generation = 0

    def key_for(
        self,
        query: RawQuery,
        k: int,
        budget: int,
        weights: "Dict[Modality, float] | None" = None,
        exclude_ids: Tuple[int, ...] = (),
    ) -> Tuple:
        """Build the cache key for one retrieval call."""
        content = tuple(
            (modality.value, _digest_content(modality, query.get(modality)))
            for modality in sorted(query.modalities, key=lambda m: m.value)
        )
        weight_items: Tuple = ()
        if weights is not None:
            weight_items = tuple(
                sorted((Modality.parse(m).value, float(w)) for m, w in weights.items())
            )
        return (self._generation, content, k, budget, weight_items, tuple(exclude_ids))

    def get(self, key: Tuple) -> Optional[RetrievalResponse]:
        """Cached response for ``key``, or None (counts hit/miss)."""
        with self._lock:
            response = self._store.get(key)
            if response is None:
                self.misses += 1
                return None
            self.hits += 1
            self._store.move_to_end(key)
            return response

    def lookup(
        self, key: Tuple, query: RawQuery
    ) -> "Tuple[Optional[RetrievalResponse], str, Optional[Tuple]]":
        """The executor's one cache call: ``(response, label, registration)``.

        ``label`` is ``"hit"`` or ``"miss"`` here (a semantic cache adds
        ``"semantic"``); ``registration`` is handed back to :meth:`put`
        when the miss has been searched.
        """
        cached = self.get(key)
        return cached, "miss" if cached is None else "hit", None

    def put(
        self,
        key: Tuple,
        response: RetrievalResponse,
        registration: "Tuple | None" = None,
    ) -> None:
        """Store ``response`` under ``key`` (evicting LRU if full)."""
        with self._lock:
            self._store[key] = response
            self._store.move_to_end(key)
            while len(self._store) > self.capacity:
                self._store.popitem(last=False)

    def invalidate(self) -> None:
        """Drop everything (called when the corpus changes)."""
        with self._lock:
            self._store.clear()
            self._generation += 1

    @property
    def size(self) -> int:
        """Number of cached responses."""
        with self._lock:
            return len(self._store)

    @property
    def hit_rate(self) -> float:
        """hits / (hits + misses), 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """One consistent view of the counters, taken under the lock.

        ``hits``/``misses``/``size``/``generation`` are mutated together
        under ``_lock``; reading them attribute-by-attribute (as the
        metrics endpoint used to) can observe a hit counted against the
        wrong total.  Everything that reports the cache — the health
        payload, ``/metrics``, the stats plane, the status panel — goes
        through this method.
        """
        with self._lock:
            hits = self.hits
            misses = self.misses
            size = len(self._store)
            generation = self._generation
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "size": size,
            "generation": generation,
            "hit_rate": round(hits / total, 4) if total else 0.0,
        }


class SemanticQueryCache(QueryCache):
    """An exact-match :class:`QueryCache` with near-duplicate serving.

    Keys work exactly like the base class; additionally every stored
    entry registers its query embedding in a *bucket* keyed on the exact
    key minus the content digests (generation, modality signature, k,
    budget, weights, exclusions).  An exact miss scans the matching
    bucket for the nearest cached neighbour; at or above the cosine
    ``threshold`` — and past the ``recall_guard`` — the neighbour's
    response is served as a *semantic hit*.

    Generation safety is structural: the generation counter is part of
    both the exact key and the bucket key, and :meth:`invalidate` clears
    the embedding registry, so a response cached before an ingest can
    never be served after it.

    Args:
        embed: Deterministic ``query -> (signature, unit_vector)``
            mapping (:func:`query_embedding` over the active encoder set);
            only called when semantic matching is active.
        capacity: Maximum cached responses (LRU).
        threshold: Cosine similarity at or above which a neighbour
            qualifies; ``<= 0`` disables semantic matching entirely —
            behaviour is then bit-identical to :class:`QueryCache`.
        recall_guard: Optional ``similarity -> bool`` predicate (the
            planner's recall prediction); a qualifying neighbour it
            rejects is counted in ``semantic_rejects`` and the query
            proceeds as a miss.
    """

    semantic = True

    def __init__(
        self,
        embed: Callable[[RawQuery], Tuple[Tuple, np.ndarray]],
        capacity: int = 128,
        threshold: float = SEMANTIC_THRESHOLD,
        recall_guard: "Callable[[float], bool] | None" = None,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ConfigurationError(
                f"semantic threshold must be in [0, 1], got {threshold}"
            )
        super().__init__(capacity=capacity)
        self._embed = embed
        self.threshold = float(threshold)
        self.recall_guard = recall_guard
        self.semantic_hits = 0
        self.semantic_rejects = 0
        #: bucket key -> [(unit vector, exact key), ...]
        self._vectors: Dict[Tuple, List[Tuple[np.ndarray, Tuple]]] = {}

    def lookup(
        self, key: Tuple, query: RawQuery
    ) -> "Tuple[Optional[RetrievalResponse], str, Optional[Tuple]]":
        """Exact-then-semantic lookup for one retrieval call.

        Returns ``(response, label, registration)`` where ``label`` is
        ``"hit"``, ``"semantic"``, or ``"miss"``; on a miss with semantic
        matching active, ``registration`` carries ``(bucket, vector)``
        for the follow-up :meth:`put_semantic`.  Counter discipline: an
        exact hit counts as a hit, a semantic hit counts only in
        ``semantic_hits`` (not as a miss), everything else as a miss.
        """
        with self._lock:
            response = self._store.get(key)
            if response is not None:
                self.hits += 1
                self._store.move_to_end(key)
                return response, "hit", None
            if self.threshold <= 0.0:
                self.misses += 1
                return None, "miss", None
        # The embedding is a pure function of the query; computing it
        # outside the lock keeps the scan the only serialised part.
        signature, vector = self._embed(query)
        bucket = (key[0], signature) + key[2:]
        guard = self.recall_guard
        with self._lock:
            best_key: Optional[Tuple] = None
            best_sim = self.threshold
            for stored_vector, stored_key in self._vectors.get(bucket, ()):
                if stored_key not in self._store:
                    continue  # evicted by LRU; pruned on the next put
                similarity = float(stored_vector @ vector)
                if similarity >= best_sim:
                    best_sim = similarity
                    best_key = stored_key
            if best_key is not None:
                if guard is None or guard(best_sim):
                    self.semantic_hits += 1
                    self._store.move_to_end(best_key)
                    return self._store[best_key], "semantic", None
                self.semantic_rejects += 1
            self.misses += 1
            return None, "miss", (bucket, vector)

    def put(
        self,
        key: Tuple,
        response: RetrievalResponse,
        registration: "Tuple | None" = None,
    ) -> None:
        """Store ``response``; with a miss's ``registration`` its embedding
        is registered too, so later near-duplicates can find it."""
        if registration is None:
            super().put(key, response)
        else:
            self.put_semantic(key, registration, response)

    def put_semantic(
        self,
        key: Tuple,
        registration: Tuple,
        response: RetrievalResponse,
    ) -> None:
        """Store a fresh response and register its embedding.

        ``registration`` is the ``(bucket, vector)`` pair returned by the
        preceding :meth:`lookup` miss.  The bucket list is pruned of
        entries whose key was LRU-evicted so the registry stays bounded
        by the store's capacity.
        """
        bucket, vector = registration
        with self._lock:
            self._store[key] = response
            self._store.move_to_end(key)
            while len(self._store) > self.capacity:
                self._store.popitem(last=False)
            entries = self._vectors.setdefault(bucket, [])
            entries[:] = [
                (vec, stored_key)
                for vec, stored_key in entries
                if stored_key in self._store and stored_key != key
            ]
            entries.append((vector, key))

    def invalidate(self) -> None:
        """Drop responses *and* embeddings (corpus changed)."""
        with self._lock:
            self._store.clear()
            self._vectors.clear()
            self._generation += 1

    def snapshot(self) -> Dict[str, Any]:
        """Base counters plus the semantic hit/near-hit/rejection view."""
        with self._lock:
            hits = self.hits
            misses = self.misses
            semantic_hits = self.semantic_hits
            semantic_rejects = self.semantic_rejects
            size = len(self._store)
            generation = self._generation
        total = hits + semantic_hits + misses
        body = {
            "hits": hits,
            "misses": misses,
            "size": size,
            "generation": generation,
            "hit_rate": round(hits / total, 4) if total else 0.0,
            "semantic": True,
            "threshold": self.threshold,
            "semantic_hits": semantic_hits,
            "semantic_rejects": semantic_rejects,
            "semantic_hit_rate": (
                round(semantic_hits / total, 4) if total else 0.0
            ),
        }
        return body
