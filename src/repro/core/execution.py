"""Component 4: query execution.

Runs the merging-free multi-modal search and implements the dotted arrow of
Figure 2: "any previous outcome can be chosen to augment the current user
query input" — a selected result's image becomes the reference image of the
next round's query.
"""

from __future__ import annotations

import copy
from dataclasses import replace

from repro.data.modality import Modality
from repro.data.objects import MultiModalObject, RawQuery
from repro.errors import SearchError
from repro.observability import QueryCostProfile, trace_span
from repro.retrieval import RetrievalFramework, RetrievalResponse


class QueryExecution:
    """Executes queries against the framework built by index construction.

    Args:
        framework: The set-up retrieval framework.
        cache: Optional :class:`repro.core.cache.QueryCache`; repeated
            queries are served from it, and ingestion invalidates it.
        cost_accounting: When True every response carries a fresh
            :class:`~repro.observability.costs.QueryCostProfile` holding
            what this component alone knows (cache label, kernel
            counters, result count); it reads no clock — the wall times
            are read off the round's trace once it has closed.  Off by
            default; the disabled path adds one attribute check per call.
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

    def invalidate_cache(self) -> None:
        """Drop every cached response (the corpus changed)."""
        if self.cache is not None:
            self.cache.invalidate()

    @property
    def capabilities(self) -> frozenset:
        """The ``retrieve_batch`` options the framework honours —
        :attr:`RetrievalFramework.capabilities`, the one declaration (a
        shard router answers for the framework it wraps)."""
        return self.framework.capabilities

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
        """Top-``k`` retrieval for ``query``: :meth:`execute_batch` of one."""
        return self.execute_batch(
            [query], k, budget=budget, weights=weights,
            exclude_ids=exclude_ids, filter_fn=filter_fn, fanout=fanout,
        )[0]

    def execute_batch(
        self,
        queries,
        k: int,
        budget: int = 64,
        weights=None,
        exclude_ids=(),
        filter_fn=None,
        fanout=None,
    ) -> "list[RetrievalResponse]":
        """Top-``k`` for independent queries — the one retrieval body.

        Row ``i`` is what a batch of ``queries[i]`` alone returns: same
        ids, same score bits, same stats, same cache label and
        accounting, same cost signature; only cache misses reach the
        framework, as one ``retrieve_batch`` call per fetch width.  The
        options are shared by the batch the way ``weights`` is:

        * ``exclude_ids`` drops objects the user rejected in earlier
          rounds (negative feedback).  A query augmented from a selected
          result also excludes that reference object — the user asked
          for *more* items like it, not the item itself.
        * ``filter_fn`` restricts results by object id (metadata
          filtering); predicates are not hashable, so filtered batches
          bypass the cache.
        * ``weights`` applies per-query modality re-weighting (frameworks
          without that capability reject it).
        * ``fanout`` limits the shard scatter width on a router that
          supports it (degraded planner mode only; silently ignored
          elsewhere).

        One cache protocol, whichever cache is configured: the exact
        ``hit`` → on a miss, the query's one encode and ``near`` (a semantic
        cache's near-duplicate scan) → search, ``put``, and hand out a
        copy; an exact hit encodes nothing.  The cache holds
        the raw (pre-exclusion) retrieval and exclusions apply to the
        copy, so entries stay pristine; partial (degraded) responses are
        returned but never cached.  A key repeated inside one batch is
        fetched once; later occurrences replay through the cache after
        the first was stored, so the hit/miss accounting matches a serial
        miss-then-hit exactly (and when the first occurrence was degraded,
        the repeat records the miss a serial re-search would and shares a
        copy of the partial response).

        The span is ``retrieval`` for one query (a dialogue round) and
        ``retrieval-batch`` for more — which is how the cost fold tells a
        lone query, whose profile takes the span's whole subtree, from a
        wider batch that amortises it.
        """
        if k <= 0:
            raise SearchError(f"k must be positive, got {k}")
        self.framework._check_options(weights, filter_fn, SearchError)
        queries = list(queries)
        if not queries:
            return []
        options = {"weights": weights, "filter_fn": filter_fn}
        if fanout is not None and "fanout" in self.capabilities:
            options["fanout"] = fanout

        shared = set(exclude_ids)
        excluded = []
        for query in queries:
            reference_id = query.metadata.get("augmented_from")
            excluded.append(
                shared if reference_id is None else shared | {reference_id}
            )
        fetches = [k + len(dropped) for dropped in excluded]
        cache = self.cache if filter_fn is None else None
        lone = len(queries) == 1
        profiles = [
            QueryCostProfile(
                self.framework.name, self.index_name, getattr(self.framework, "shards", 0)
            )
            for _ in queries
        ] if self.cost_accounting else []
        with trace_span(
            "retrieval" if lone else "retrieval-batch",
            framework=self.framework.name,
            queries=len(queries),
            k=k,
            budget=budget,
        ) as span:
            results: "list[RetrievalResponse | None]" = [None] * len(queries)
            labels = ["bypass"] * len(queries)
            keys, registrations = [], {}
            first = {}  # key -> position of its first, in-flight miss
            repeats = []  # later occurrences of such a key
            if cache is None:
                fresh = list(range(len(queries)))
            else:
                keys = [
                    cache.key_for(query, fetch, budget, weights=weights)
                    for query, fetch in zip(queries, fetches)
                ]
                for position, key in enumerate(keys):
                    if key in first:
                        repeats.append(position)
                        continue
                    cached = cache.hit(key)
                    if cached is None:
                        first[key] = position
                    else:
                        labels[position] = "hit"
                        results[position] = self._copy_response(cached)
                fresh = list(first.values())
            # An exact hit encodes nothing; every other query is encoded
            # here once (unless upstream already did), and its vectors serve
            # the near-duplicate scan and the search alike.
            encoded = dict(zip(
                fresh,
                self.framework.encoder_set.encode_query_batch(
                    [queries[p] for p in fresh]
                ),
            ))
            misses = {}  # fetch width -> positions the framework answers
            for position in fresh:
                if cache is not None:
                    cached, labels[position], registrations[position] = cache.near(
                        keys[position], encoded[position]
                    )
                    if cached is not None:
                        results[position] = self._copy_response(cached)
                        continue
                misses.setdefault(fetches[position], []).append(position)
            for fetch, group in misses.items():
                answered = self.framework.retrieve_batch(
                    [encoded[p] for p in group], k=fetch, budget=budget, **options
                )
                for position, response in zip(group, answered):
                    if cache is None or response.degraded_reasons:
                        results[position] = response
                    else:
                        cache.put(
                            keys[position], response, registrations[position]
                        )
                        results[position] = self._copy_response(response)
            for position in repeats:
                key = keys[position]
                cached, labels[position], _ = cache.lookup(key, encoded[first[key]])
                results[position] = self._copy_response(
                    results[first[key]] if cached is None else cached
                )
            items = hops = evaluations = 0
            for response, dropped in zip(results, excluded):
                if dropped:
                    response.items = [
                        item
                        for item in response.items
                        if item.object_id not in dropped
                    ][:k]
                    for rank, item in enumerate(response.items):
                        item.rank = rank
                items += len(response.items)
                hops += response.stats.hops
                evaluations += response.stats.distance_evaluations
            span.set(
                cache="/".join(dict.fromkeys(labels)),
                results=items,
                hops=hops,
                distance_evaluations=evaluations,
            )
        for profile, response, label in zip(profiles, results, labels):
            profile.cache = "off" if self.cache is None else label
            # A cache hit (exact or semantic) did no kernel work this
            # call; the original search was accounted when it ran.
            if label not in ("hit", "semantic"):
                profile.add_search_stats(response.stats)
            profile.items = len(response.items)
            response.cost = profile
        return results

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
