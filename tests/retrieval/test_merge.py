"""``RetrievalFramework.merge``: how a framework's partial answers combine.

The base merge is the exact item-level top-k (JE, MUST); MR re-fuses at the
stream level through the same tail ``retrieve_batch`` ends in, which is why
a split corpus returns the unsplit answer.  ``merge`` reads no index, so it
is asked of never-set-up instances here — as the shard router asks it.
Also: ``weights`` / ``filter_fn`` are keyword-only on every
``retrieve_batch`` (MUST and MR once took them in opposite positional
order).
"""

import pytest

from repro.core.sharding import ShardRouter
from repro.data.objects import RawQuery
from repro.index import build_index
from repro.index.base import SearchStats
from repro.retrieval import (
    FusionStrategy,
    JointEmbeddingRetrieval,
    MultiStreamedRetrieval,
    MustRetrieval,
    RetrievalResponse,
    RetrievedItem,
)
from repro.retrieval.base import merge_shard_topk

K, PARTS = 5, 3
TEXT_HEAVY = {"text": 1.8, "image": 0.2}


def split(response, parts=PARTS):
    """``response`` as ``parts`` partial answers: part ``p`` holds the stream
    entries of the objects with ``id % parts == p`` — what shard ``p`` of a
    hash-partitioned corpus would return — under a fused list that is
    deliberately wrong (a part's fused scores are part-local)."""
    partials = []
    for part in range(parts):
        ids, distances = {}, {}
        for modality, stream in response.per_modality_ids.items():
            kept = [
                (object_id, distance)
                for object_id, distance in zip(
                    stream, response.per_modality_distances[modality]
                )
                if object_id % parts == part
            ]
            ids[modality] = [object_id for object_id, _ in kept]
            distances[modality] = [distance for _, distance in kept]
        partials.append(
            RetrievalResponse(
                framework="mr",
                items=[RetrievedItem(object_id=part, score=-9.0, rank=0)],
                stats=SearchStats(hops=part + 1, distance_evaluations=10 * (part + 1)),
                per_modality_ids=ids,
                per_modality_distances=distances,
            )
        )
    return partials


def untied_queries(framework, kb):
    """One text and one text+image read whose unsplit streams hold no tied
    distances: an index orders a tie as it met it, the merge by object id,
    so only an untied stream is rebuilt position for position."""
    chosen = {}
    for obj in kb:
        for query in (
            RawQuery.from_text(str(obj.get("text"))),
            RawQuery.from_text_and_image(str(obj.get("text")), obj.get("image")),
        ):
            (response,) = framework.retrieve_batch([query], K)
            if all(
                len(set(distances)) == len(distances)
                for distances in response.per_modality_distances.values()
            ):
                chosen.setdefault(len(query.modalities), query)
        if len(chosen) == 2:
            return list(chosen.values())
    raise AssertionError("no untied read in the corpus")


@pytest.fixture(scope="module", params=["rrf", "combsum"])
def unsplit(request, scenes_kb, clip_set):
    """(an exact MR over the whole corpus, its fusion name, two reads)."""
    framework = MultiStreamedRetrieval(fusion=request.param, expansion=4)
    framework.setup(scenes_kb, clip_set, lambda: build_index("flat", {}))
    return framework, request.param, untied_queries(framework, scenes_kb)


class TestMultiStreamedMerge:
    @pytest.mark.parametrize("weights", [None, TEXT_HEAVY], ids=["equal", "text-heavy"])
    def test_split_streams_fuse_to_the_unsplit_answer(self, unsplit, weights):
        framework, fusion, queries = unsplit
        never_set_up = MultiStreamedRetrieval(fusion=fusion, expansion=4)
        for whole in framework.retrieve_batch(queries, K, weights=weights):
            merged = never_set_up.merge(split(whole), K, weights=weights)
            assert merged.ids == whole.ids
            assert [i.score for i in merged.items] == [i.score for i in whole.items]
            assert [i.rank for i in merged.items] == list(range(len(whole.items)))
            assert merged.per_modality_ids == whole.per_modality_ids
            assert merged.per_modality_distances == whole.per_modality_distances
            assert merged.framework == "mr"
            assert (merged.stats.hops, merged.stats.distance_evaluations) == (6, 60)

    def test_the_instance_decides_strategy_and_expansion(self, unsplit):
        framework, fusion, queries = unsplit
        (whole,) = framework.retrieve_batch(queries[1:], K)
        other = "combsum" if fusion == "rrf" else "rrf"
        scores = [item.score for item in whole.items]
        swapped = MultiStreamedRetrieval(fusion=other, expansion=4).merge(split(whole), K)
        assert [item.score for item in swapped.items] != scores
        narrow = MultiStreamedRetrieval(fusion=fusion, expansion=1).merge(split(whole), K)
        assert all(len(ids) == K for ids in narrow.per_modality_ids.values())

    def test_mid_move_duplicate_keeps_its_best_distance(self, unsplit):
        framework, fusion, queries = unsplit
        (whole,) = framework.retrieve_batch(queries[:1], K)
        partials = split(whole)
        modality = next(iter(whole.per_modality_ids))
        moved = whole.per_modality_ids[modality][0]
        best = whole.per_modality_distances[modality][0]
        # The same object, still live on another part with a worse distance.
        stale = partials[(moved + 1) % PARTS]
        stale.per_modality_ids[modality].append(moved)
        stale.per_modality_distances[modality].append(best + 5.0)
        merged = MultiStreamedRetrieval(fusion=fusion, expansion=4).merge(partials, K)
        assert merged.per_modality_ids == whole.per_modality_ids
        assert merged.per_modality_distances[modality][0] == best
        assert merged.ids == whole.ids

    def test_dropped_ids_never_surface(self, unsplit):
        framework, fusion, queries = unsplit
        (whole,) = framework.retrieve_batch(queries[1:], K)
        drop = frozenset(whole.ids[:2])
        merged = MultiStreamedRetrieval(fusion=fusion, expansion=4).merge(
            split(whole), K, drop=drop
        )
        assert len(merged.items) == K and not drop & set(merged.ids)
        for stream in merged.per_modality_ids.values():
            assert not drop & set(stream)

    def test_nothing_but_placeholders_merges_to_nothing(self):
        empty = RetrievalResponse(framework="empty-shard", items=[])
        merged = MultiStreamedRetrieval().merge([empty, empty], K)
        assert (merged.framework, merged.items) == ("empty-shard", [])


class TestItemLevelMerge:
    @pytest.mark.parametrize("framework", [MustRetrieval(), JointEmbeddingRetrieval()])
    def test_is_the_exact_topk_with_summed_stats(self, framework):
        lists = [
            [(4, 0.25), (9, 0.5), (1, 0.75)],
            [],
            [(7, 0.125), (9, 0.375), (2, 0.5)],  # 9 twice: mid-move, best wins
        ]
        names = ["empty-shard", "empty-shard", framework.name]
        partials = [
            RetrievalResponse(
                framework=name,
                items=[
                    RetrievedItem(object_id=object_id, score=score, rank=rank)
                    for rank, (object_id, score) in enumerate(results)
                ],
                stats=SearchStats(hops=2, distance_evaluations=7, block_reads=1),
            )
            for name, results in zip(names, lists)
        ]
        for drop in (frozenset(), frozenset({7})):
            merged = framework.merge(partials, 4, drop=drop)
            assert [(i.object_id, i.score) for i in merged.items] == merge_shard_topk(
                lists, 4, drop=drop
            )
            assert [i.rank for i in merged.items] == list(range(len(merged.items)))
            assert merged.framework == framework.name
            assert (
                merged.stats.hops, merged.stats.distance_evaluations,
                merged.stats.block_reads,
            ) == (6, 21, 3)
            assert merged.per_modality_ids == {} == merged.per_modality_distances
        assert framework.merge(partials, 4).ids == [7, 4, 9, 2]


class TestOneSignature:
    @pytest.mark.parametrize(
        "framework",
        [
            MustRetrieval(),
            MultiStreamedRetrieval(fusion=FusionStrategy.RRF),
            JointEmbeddingRetrieval(),
            ShardRouter(framework_name="must", shards=2),
        ],
        ids=lambda framework: framework.name,
    )
    def test_options_are_keyword_only(self, framework):
        query = RawQuery.from_text("foggy clouds")
        with pytest.raises(TypeError, match="positional"):
            framework.retrieve_batch([query], K, 64, {"text": 1.0})
        with pytest.raises(TypeError, match="positional"):
            framework.retrieve_batch([query], K, 64, None, lambda object_id: True)

    def test_je_takes_weights_only_to_refuse_them(self, scenes_kb, clip_set):
        from repro.errors import RetrievalError

        framework = JointEmbeddingRetrieval()
        framework.setup(scenes_kb, clip_set, lambda: build_index("flat", {}))
        query = RawQuery.from_text("foggy clouds")
        with pytest.raises(
            RetrievalError,
            match="framework 'je' does not support per-query modality weights",
        ):
            framework.retrieve_batch([query], K, weights={"text": 2.0})
        assert framework.retrieve_batch([query], K, weights=None)[0].ids
        assert framework.capabilities == {"filter_fn"}
