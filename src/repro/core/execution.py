"""Component 4: query execution.

Runs the merging-free multi-modal search and implements the dotted arrow of
Figure 2: "any previous outcome can be chosen to augment the current user
query input" — a selected result's image becomes the reference image of the
next round's query.
"""

from __future__ import annotations

import copy
import inspect
import time
from contextlib import nullcontext
from dataclasses import replace
from typing import List, Optional

from repro.data.modality import Modality
from repro.data.objects import MultiModalObject, RawQuery
from repro.errors import SearchError
from repro.observability import QueryCostProfile, cost_context, trace_span
from repro.retrieval import RetrievalFramework, RetrievalResponse


class QueryExecution:
    """Executes queries against the framework built by index construction.

    Args:
        framework: The set-up retrieval framework.
        cache: Optional :class:`repro.core.cache.QueryCache`; repeated
            queries are served from it, and ingestion invalidates it.
        cost_accounting: When True every response carries a fresh
            :class:`~repro.observability.costs.QueryCostProfile` — made
            ambient while the framework runs so stage timers and the
            shard router can contribute.  Off by default; the disabled
            path adds one attribute check per call.
        index_name: Configured index type, recorded on every profile.
    """

    name = "query execution"

    def __init__(
        self,
        framework: RetrievalFramework,
        cache=None,
        cost_accounting: bool = False,
        index_name: str = "",
    ) -> None:
        self.framework = framework
        self.cache = cache
        self.cost_accounting = bool(cost_accounting)
        self.index_name = index_name
        self._capabilities: "set | None" = None

    def _new_profile(self, cache_label: str = "off") -> QueryCostProfile:
        """A fresh per-query cost ledger for this framework/index."""
        return QueryCostProfile(
            framework=self.framework.name,
            index=self.index_name,
            shards_total=getattr(self.framework, "shards", 0),
            cache=cache_label,
        )

    def _retrieve_capabilities(self) -> set:
        """Optional keyword arguments the framework's ``retrieve_batch``
        accepts (``retrieve`` forwards to it).

        Capability is checked by signature inspection *before* calling, so
        a genuine ``TypeError`` raised inside retrieval propagates instead
        of being misread as a missing capability.  Computed once per
        framework and cached.
        """
        if self._capabilities is None:
            parameters = inspect.signature(
                self.framework.retrieve_batch
            ).parameters
            if any(
                p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
            ):
                self._capabilities = {"weights", "filter_fn"}
            else:
                self._capabilities = set(parameters)
        return self._capabilities

    @property
    def capabilities(self) -> frozenset:
        """Optional ``retrieve`` kwargs the framework accepts.

        Public read-only view used by the coordinator's degradation
        policies (e.g. only pass renormalised weights to frameworks that
        take a ``weights`` kwarg).
        """
        return frozenset(self._retrieve_capabilities())

    def execute(
        self,
        query: RawQuery,
        k: int,
        budget: int = 64,
        weights=None,
        exclude_ids=(),
        filter_fn=None,
        fanout=None,
    ) -> RetrievalResponse:
        """Top-``k`` retrieval for ``query``.

        When the query was augmented from a selected result, that reference
        object is excluded from the response — the user asked for *more*
        items like it, not the item itself.  ``exclude_ids`` additionally
        drops objects the user rejected in earlier rounds (negative
        feedback).  ``filter_fn`` restricts results by object id (metadata
        filtering).  ``weights`` applies per-query modality re-weighting
        (frameworks without that capability reject it).  ``fanout`` limits
        the shard scatter width on a router that supports it (degraded
        planner mode only; silently ignored elsewhere).
        """
        if k <= 0:
            raise SearchError(f"k must be positive, got {k}")

        capabilities = self._retrieve_capabilities()
        if weights is not None and "weights" not in capabilities:
            raise SearchError(
                f"framework {self.framework.name!r} does not support "
                "per-query modality weights"
            )
        if filter_fn is not None and "filter_fn" not in capabilities:
            raise SearchError(
                f"framework {self.framework.name!r} does not support "
                "filtered retrieval"
            )
        if fanout is not None and "fanout" not in capabilities:
            fanout = None

        profile = self._new_profile() if self.cost_accounting else None

        def retrieve(fetch: int) -> RetrievalResponse:
            kwargs = {}
            if weights is not None:
                kwargs["weights"] = weights
            if filter_fn is not None:
                kwargs["filter_fn"] = filter_fn
            if fanout is not None:
                kwargs["fanout"] = fanout
            return self.framework.retrieve(query, k=fetch, budget=budget, **kwargs)

        def run(fetch: int, span) -> RetrievalResponse:
            # Cache the raw (pre-exclusion) retrieval; exclusions are
            # applied to a copy so cached entries stay pristine.  Filtered
            # queries bypass the cache (predicates are not hashable).
            if self.cache is None or filter_fn is not None:
                span.set(cache="bypass")
                if profile is not None and self.cache is not None:
                    profile.cache = "bypass"
                return retrieve(fetch)
            key = self.cache.key_for(query, fetch, budget, weights=weights)
            if self.cache.semantic:
                # Exact-then-near-duplicate lookup; a semantic hit serves
                # a copy of the neighbour's response and did no kernel
                # work, exactly like an exact hit.
                cached, label, registration = self.cache.lookup(key, query)
                if cached is None:
                    span.set(cache="miss")
                    if profile is not None:
                        profile.cache = "miss"
                    fresh = retrieve(fetch)
                    if fresh.degraded_reasons:
                        return fresh
                    if registration is not None:
                        self.cache.put_semantic(key, registration, fresh)
                    else:
                        self.cache.put(key, fresh)
                    return self._copy_response(fresh)
                span.set(cache=label)
                if profile is not None:
                    profile.cache = label
                return self._copy_response(cached)
            cached = self.cache.get(key)
            if cached is None:
                span.set(cache="miss")
                if profile is not None:
                    profile.cache = "miss"
                cached = retrieve(fetch)
                if cached.degraded_reasons:
                    # Partial results (lost shards) must not be served to
                    # later queries as if they were complete.
                    return cached
                self.cache.put(key, cached)
            else:
                span.set(cache="hit")
                if profile is not None:
                    profile.cache = "hit"
            return self._copy_response(cached)

        excluded = set(exclude_ids)
        reference_id = query.metadata.get("augmented_from")
        if reference_id is not None:
            excluded.add(reference_id)
        scope = cost_context(profile) if profile is not None else nullcontext()
        with trace_span(
            "retrieval", framework=self.framework.name, k=k, budget=budget
        ) as span, scope:
            started = time.perf_counter() if profile is not None else 0.0
            if not excluded:
                response = run(k, span)
            else:
                response = run(k + len(excluded), span)
                response.items = [
                    item for item in response.items if item.object_id not in excluded
                ][:k]
                for rank, item in enumerate(response.items):
                    item.rank = rank
            span.set(
                results=len(response.items),
                hops=response.stats.hops,
                distance_evaluations=response.stats.distance_evaluations,
            )
            if profile is not None:
                profile.add_stage(
                    "retrieve", (time.perf_counter() - started) * 1000.0
                )
                # A cache hit (exact or semantic) did no kernel work this
                # call; the original search was accounted when it ran.
                if profile.cache not in ("hit", "semantic"):
                    profile.add_search_stats(response.stats)
                profile.items = len(response.items)
                response.cost = profile
        return response

    @staticmethod
    def _copy_response(cached: RetrievalResponse) -> RetrievalResponse:
        """Deep-ish copy of a cached response.

        ``replace`` preserves every field of ``RetrievedItem`` subclasses,
        and stats must not be shared — a caller merging into
        ``response.stats`` would otherwise corrupt the cached entry.
        """
        return RetrievalResponse(
            framework=cached.framework,
            items=[replace(item) for item in cached.items],
            stats=copy.deepcopy(cached.stats),
            per_modality_ids={
                modality: list(ids)
                for modality, ids in cached.per_modality_ids.items()
            },
            per_modality_distances={
                modality: list(values)
                for modality, values in cached.per_modality_distances.items()
            },
            degraded_reasons=list(cached.degraded_reasons),
        )

    def execute_batch(
        self,
        queries,
        k: int,
        budget: int = 64,
        weights=None,
    ) -> "list[RetrievalResponse]":
        """Batched top-``k`` for independent queries, with cache parity.

        Each query consults and populates the :class:`QueryCache` exactly
        as a serial :meth:`execute` would (same keys, same hit/miss
        accounting, same copy-on-return semantics); only the cache misses
        reach the framework, as one ``retrieve_batch`` call.  The batched
        kernels guarantee element-wise bit-identity with serial retrieval
        regardless of batch composition, so mixing hits and misses cannot
        change any result.  Partial (degraded) responses are returned but
        never cached.

        This path serves server micro-batching: no exclusions and no
        filters apply (those are dialogue-round concepts).  A semantic
        cache participates with its *exact* tier only — near-duplicate
        matching is a latency optimisation for the interactive serial
        path, and keeping batches exact preserves the batched-vs-serial
        bit-identity guarantee unconditionally.
        """
        if k <= 0:
            raise SearchError(f"k must be positive, got {k}")
        capabilities = self._retrieve_capabilities()
        if weights is not None and "weights" not in capabilities:
            raise SearchError(
                f"framework {self.framework.name!r} does not support "
                "per-query modality weights"
            )
        queries = list(queries)
        if not queries:
            return []
        kwargs = {}
        if weights is not None:
            kwargs["weights"] = weights
        with trace_span(
            "retrieval-batch",
            framework=self.framework.name,
            queries=len(queries),
            k=k,
            budget=budget,
        ) as span:
            if self.cache is None:
                span.set(cache="bypass")
                fresh = self.framework.retrieve_batch(
                    queries, k=k, budget=budget, **kwargs
                )
                if self.cost_accounting:
                    self._attach_costs(fresh, ["off"] * len(fresh))
                return fresh
            keys = [
                self.cache.key_for(query, k, budget, weights=weights)
                for query in queries
            ]
            results: "list[RetrievalResponse | None]" = [None] * len(queries)
            labels = ["hit"] * len(queries)
            misses = []  # first occurrence of each missing key
            repeats = []  # later occurrences of a key already being fetched
            pending = set()
            for position, key in enumerate(keys):
                if key in pending:
                    repeats.append(position)
                    continue
                cached = self.cache.get(key)
                if cached is None:
                    pending.add(key)
                    misses.append(position)
                else:
                    results[position] = self._copy_response(cached)
            if misses:
                fresh = self.framework.retrieve_batch(
                    [queries[position] for position in misses],
                    k=k,
                    budget=budget,
                    **kwargs,
                )
                for position, response in zip(misses, fresh):
                    labels[position] = "miss"
                    if response.degraded_reasons:
                        results[position] = response
                    else:
                        self.cache.put(keys[position], response)
                        results[position] = self._copy_response(response)
            # A key repeated inside one batch is fetched once; later
            # occurrences replay through the cache so the hit/miss
            # accounting matches a serial miss-then-hit exactly.  When the
            # first occurrence was degraded (and therefore not cached) the
            # lookup records the miss a serial re-search would, and the
            # repeat shares a copy of the partial response.
            for position in repeats:
                cached = self.cache.get(keys[position])
                if cached is not None:
                    results[position] = self._copy_response(cached)
                else:
                    labels[position] = "miss"
                    first = next(
                        p for p in misses if keys[p] == keys[position]
                    )
                    results[position] = self._copy_response(results[first])
            span.set(
                cache_hits=len(queries) - len(misses) - len(repeats),
                cache_misses=len(misses),
                cache_repeats=len(repeats),
            )
            if self.cost_accounting:
                self._attach_costs(results, labels)
        return results

    def _attach_costs(
        self, results: "List[RetrievalResponse]", labels: "List[str]"
    ) -> None:
        """Attach one fresh per-query profile per batched response.

        Mirrors the serial accounting exactly: a hit carries zero kernel
        counters (the served copy did no search work); misses and
        uncached paths copy their counters off the response stats — so a
        batched query's profile signature matches its serial twin.
        """
        for response, label in zip(results, labels):
            profile = self._new_profile(cache_label=label)
            if label != "hit":
                profile.add_search_stats(response.stats)
            profile.items = len(response.items)
            response.cost = profile

    @staticmethod
    def augment_query(
        refinement_text: str,
        selected: MultiModalObject,
        base_query: "RawQuery | None" = None,
    ) -> RawQuery:
        """Fold a selected previous result into the next round's query.

        The selected object's image modality becomes the reference image;
        the user's new text carries the modification.  When the selected
        object has no image, its text is appended to the refinement instead
        so the preference still flows forward.
        """
        if not refinement_text:
            raise SearchError("refinement text must be non-empty")
        metadata = {"augmented_from": selected.object_id}
        if selected.has(Modality.IMAGE):
            query = RawQuery.from_text_and_image(
                refinement_text, selected.get(Modality.IMAGE), **metadata
            )
        else:
            combined = f"{refinement_text} {selected.get(Modality.TEXT)}"
            query = RawQuery.from_text(combined, **metadata)
        if base_query is not None:
            query.metadata.update(
                {k: v for k, v in base_query.metadata.items() if k not in query.metadata}
            )
        return query
