"""Tests for the tiered beyond-RAM store (`repro.index.tiered`).

Covers the store in isolation (spill file, growth, rerank charging,
accounting) and the serving guarantees through ``StarlingIndex`` and the
retrieval frameworks: bit-identical results with tiering off, exact top-k
restoration with a covering rerank, bounded recall loss with a modest
rerank factor, and id-identical sharded vs unsharded tiered serving.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.config import MQAConfig
from repro.core.indexing import IndexConstruction
from repro.data import DatasetSpec, RawQuery
from repro.distance import SingleVectorKernel
from repro.errors import ConfigurationError
from repro.evaluation import exact_knn
from repro.index import (
    StarlingIndex,
    StarlingParams,
    TieredParams,
    TieredStore,
    build_index,
    load_index,
    save_index,
    tiered_snapshot,
)
from repro.index.vamana import VamanaParams

FAST_INNER = VamanaParams(max_degree=8, candidate_pool=16, build_budget=24)
FAST_INNER_DICT = {"max_degree": 8, "candidate_pool": 16, "build_budget": 24}


# ----------------------------------------------------------------------
# the store in isolation
# ----------------------------------------------------------------------
class TestTieredStore:
    def test_params_validated(self):
        with pytest.raises(ConfigurationError):
            TieredParams(bits=16)
        with pytest.raises(ConfigurationError):
            TieredParams(rerank_factor=0)
        with pytest.raises(ConfigurationError):
            TieredParams(mmap_cache_blocks=-1)
        with pytest.raises(ConfigurationError):
            TieredParams(block_size=0)
        for bad in ({"rerank_factor": True}, {"block_size": 2.5}, {"bits": 8.0}):
            with pytest.raises(ConfigurationError):
                TieredParams(**bad)

    def test_full_tier_is_exact_and_memory_mapped(self, unit_vectors):
        matrix = unit_vectors[:100]
        store = TieredStore(TieredParams())
        store.build(matrix)
        assert isinstance(store.vectors, np.memmap)
        assert (np.asarray(store.vectors) == matrix).all()
        assert os.path.exists(store.snapshot()["spill_path"])
        store.close()
        assert not os.path.exists(str(store.params.path or "")) or True

    def test_close_removes_owned_spill_file(self, unit_vectors):
        store = TieredStore(TieredParams())
        store.build(unit_vectors[:10])
        path = store.snapshot()["spill_path"]
        store.close()
        assert not os.path.exists(path)

    def test_close_releases_the_block_device(self, unit_vectors):
        store = TieredStore(TieredParams())
        store.build(unit_vectors[:10])
        assert store.device is not None
        store.close()
        # A closed store must stop reporting live cache state: the device
        # (and its counters) go away together with the memmap.
        assert store.device is None
        assert store.snapshot()["mmap_blocks"] == 0

    def test_close_is_idempotent(self, unit_vectors):
        store = TieredStore(TieredParams())
        store.build(unit_vectors[:10])
        store.close()
        store.close()  # second close must be a no-op, not an error
        assert store.device is None

    def test_close_before_build_is_a_noop(self):
        store = TieredStore(TieredParams())
        store.close()
        assert store.device is None

    def test_decoded_view_matches_quantizer(self, unit_vectors):
        matrix = unit_vectors[:50]
        store = TieredStore(TieredParams(bits=8))
        store.build(matrix)
        view = store.decoded
        assert view.shape == (50, 32)
        expected = store.quantizer.decode(store.quantizer.encode(matrix))
        assert (view[7] == expected[7]).all() and view[7].ndim == 1
        assert (view[[3, 9, 4]] == expected[[3, 9, 4]]).all()

    def test_add_grows_both_tiers_through_remaps(self, unit_vectors):
        store = TieredStore(TieredParams(block_size=4))
        store.build(unit_vectors[:5])
        for row in range(5, 25):  # forces several capacity doublings
            assert store.add(unit_vectors[row]) == row
        assert store.size == 25
        assert (np.asarray(store.vectors) == unit_vectors[:25]).all()
        assert store.decoded.shape == (25, 32)
        assert store.device.block_of(24) == 24 // 4

    def test_rerank_restores_exact_order_and_charges_device(self, unit_vectors):
        matrix = unit_vectors[:80]
        kernel = SingleVectorKernel(32)
        query = unit_vectors[90]
        store = TieredStore(TieredParams(block_size=8, mmap_cache_blocks=2))
        store.build(matrix)
        truth = exact_knn(matrix, kernel, query[None, :], k=10)[0]
        ids, distances, reads, hits = store.rerank(
            query, kernel, list(range(80)), k=10
        )
        assert ids == list(truth)
        assert distances == sorted(distances)
        assert reads + hits == 80
        assert store.device.block_reads == reads
        assert store.device.cache_hits == hits
        assert store.snapshot()["last_rerank_depth"] == 80

    def test_resident_bytes_accounting(self, unit_vectors):
        matrix = unit_vectors[:64]
        for bits in (8, 4):
            store = TieredStore(TieredParams(bits=bits))
            store.build(matrix)
            assert store.full_bytes() == 64 * 32 * 8
            assert store.resident_bytes() == (64 * 32 * bits) // 8 + 2 * 32 * 8
            assert store.full_bytes() > 4 * store.resident_bytes()


# ----------------------------------------------------------------------
# serving through StarlingIndex
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def kernel():
    return SingleVectorKernel(32)


def _build(tiered: "TieredParams | None", corpus, kernel):
    index = StarlingIndex(StarlingParams(inner=FAST_INNER, tiered=tiered))
    index.build(corpus, kernel)
    return index


class TestTieredStarling:
    def test_off_is_bit_identical_to_seed_path(self, unit_vectors, queries, kernel):
        corpus = unit_vectors[:300]
        plain = _build(None, corpus, kernel)
        assert plain.tiered is None
        for query in queries:
            result = plain.search(query, k=10, budget=48)
            assert result.stats.block_reads + result.stats.cache_hits > 0

    def test_covering_rerank_restores_exact_topk(self, unit_vectors, kernel):
        # rerank_factor * k >= corpus and budget >= corpus: traversal sees
        # everything, so rerank must return the exact full-precision top-k.
        corpus = unit_vectors[:60]
        index = _build(TieredParams(bits=4, rerank_factor=6), corpus, kernel)
        truth = exact_knn(corpus, kernel, unit_vectors[70:75], k=10)
        for query, expected in zip(unit_vectors[70:75], truth):
            result = index.search(query, k=10, budget=60)
            assert result.ids == list(expected)

    def test_recall_within_tolerance_of_full_precision(
        self, unit_vectors, queries, ground_truth, kernel
    ):
        corpus = unit_vectors[:300]
        index = _build(TieredParams(bits=8, rerank_factor=4), corpus, kernel)
        total = 0.0
        for query, truth in zip(queries, ground_truth):
            result = index.search(query, k=10, budget=48)
            total += len(set(result.ids) & set(truth)) / 10
        assert total / len(queries) >= 0.9

    def test_rerank_reads_charged_to_device(self, unit_vectors, kernel):
        corpus = unit_vectors[:100]
        index = _build(TieredParams(rerank_factor=2, mmap_cache_blocks=1), corpus, kernel)
        before = index.device.block_reads + index.device.cache_hits
        result = index.search(unit_vectors[150], k=5, budget=32)
        charged = result.stats.block_reads + result.stats.cache_hits
        assert charged == 10  # rerank_factor * k rows, nothing from traversal
        after = index.device.block_reads + index.device.cache_hits
        assert after - before == charged

    def test_batch_matches_serial_with_exact_totals(self, unit_vectors, kernel):
        corpus = unit_vectors[:200]
        index = _build(TieredParams(rerank_factor=3), corpus, kernel)
        batch_queries = unit_vectors[210:216]
        index.device.reset()
        batched = index.search_batch(batch_queries, k=5, budget=32)
        total_charged = index.device.block_reads + index.device.cache_hits
        assert total_charged == sum(
            r.stats.block_reads + r.stats.cache_hits for r in batched
        )
        serial = [index.search(q, k=5, budget=32) for q in batch_queries]
        for one, many in zip(serial, batched):
            assert one.ids == many.ids
            assert one.distances == many.distances

    def test_insert_lands_in_both_tiers(self, unit_vectors, kernel):
        corpus = unit_vectors[:80]
        index = _build(TieredParams(rerank_factor=4), corpus, kernel)
        vertex = index.add(unit_vectors[99])
        assert index.size == 81
        result = index.search(unit_vectors[99], k=1, budget=32)
        assert result.ids[0] == vertex
        assert index.tiered.size == 81

    def test_insert_never_copies_the_spilled_tier(self):
        """An insert appends to the store and links the row where it lies.
        Stacking the memory map (what the inner graph's own append did)
        pulled the whole full-precision tier into RAM on every ``add``."""
        import tracemalloc

        rng = np.random.default_rng(3)
        rows = rng.standard_normal((2020, 64))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        index = _build(TieredParams(), rows[:2000], SingleVectorKernel(64))
        index.add(rows[2000])  # the first insert may double the code buffer
        tracemalloc.start()
        try:
            for row in rows[2001:]:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                index.add(row)
                peak = tracemalloc.get_traced_memory()[1] - before
                assert peak < 0.25 * index.tiered.full_bytes()
        finally:
            tracemalloc.stop()
        assert index.size == index.tiered.size == 2020
        assert isinstance(index.vectors, np.memmap)
        assert isinstance(index._inner.vectors, np.memmap)
        assert (np.asarray(index.vectors) == rows).all()

    def test_registry_builds_tiered_from_plain_dicts(self, unit_vectors, kernel):
        index = build_index(
            "starling",
            {"inner": FAST_INNER_DICT, "tiered": {"bits": 4, "rerank_factor": 2}},
        )
        index.build(unit_vectors[:60], kernel)
        assert index.tiered is not None
        assert index.tiered.params.bits == 4
        assert len(index.search(unit_vectors[70], k=5, budget=32).ids) == 5

    def test_tiered_index_freezes_through_persistence(
        self, tmp_path, unit_vectors, kernel
    ):
        corpus = unit_vectors[:60]
        index = _build(TieredParams(bits=4, rerank_factor=6), corpus, kernel)
        save_index(index, tmp_path / "frozen")
        restored = load_index(tmp_path / "frozen")
        # The frozen copy stores full precision pulled from the mmap tier.
        assert (restored.vectors == corpus).all()
        query = unit_vectors[70]
        assert restored.search(query, k=5, budget=60).ids == index.search(
            query, k=5, budget=60
        ).ids


# ----------------------------------------------------------------------
# parity through the frameworks, the config path, and sharding
# ----------------------------------------------------------------------
TEXTS = ("foggy clouds", "quiet shoreline", "stars above sand", "rain forest")


def _config(**overrides) -> MQAConfig:
    base = dict(
        dataset=DatasetSpec(domain="scenes", size=120, seed=7),
        index="starling",
        index_params={"inner": FAST_INNER_DICT},
        weight_learning={"steps": 10, "batch_size": 8},
    )
    base.update(overrides)
    return MQAConfig(**base)


def _retrieve_ids(framework):
    return [
        framework.retrieve(RawQuery.from_text(text), k=5, budget=64).ids
        for text in TEXTS
    ]


@pytest.fixture(scope="module")
def weights(scenes_kb, clip_set):
    # Deterministic equal weights keep every stack in this module comparable.
    from repro.data import Modality

    return {Modality.TEXT: 1.0, Modality.IMAGE: 1.0}


class TestFrameworkParity:
    @pytest.mark.parametrize("name", ["mr", "je", "must"])
    def test_tiered_off_ids_identical_to_seed(
        self, name, scenes_kb, clip_set, weights
    ):
        """The config path with tiered=False must add nothing: same ids as
        a framework wired straight to a plain Starling index."""
        from repro.retrieval import build_framework

        config = _config(framework=name, tiered=False)
        via_config = IndexConstruction().run(config, scenes_kb, clip_set, weights)
        seed = build_framework(name, {})
        seed.setup(
            scenes_kb,
            clip_set,
            lambda: StarlingIndex(StarlingParams(inner=FAST_INNER)),
            weights=weights,
        )
        assert _retrieve_ids(via_config) == _retrieve_ids(seed)
        assert tiered_snapshot(via_config) is None

    @pytest.mark.parametrize(
        "knob",
        [{"quantize_bits": 4}, {"rerank_factor": 8}, {"mmap_cache_blocks": 64}],
        ids=["quantize_bits", "rerank_factor", "mmap_cache_blocks"],
    )
    def test_tier_knobs_are_inert_when_off(self, knob, scenes_kb, clip_set, weights):
        """With ``tiered=False`` the tier's own knobs at non-default values
        build the same index and answer with the same ids."""
        builder = IndexConstruction()
        plain = builder.run(_config(), scenes_kb, clip_set, weights)
        knobbed = builder.run(_config(tiered=False, **knob), scenes_kb, clip_set, weights)
        assert _retrieve_ids(knobbed) == _retrieve_ids(plain)
        assert tiered_snapshot(knobbed) is None

    @pytest.mark.parametrize("name", ["mr", "je", "must"])
    def test_tiered_on_exact_with_covering_rerank(
        self, name, scenes_kb, clip_set, weights
    ):
        """With a rerank pass that covers the whole corpus, tiered-on ids
        equal the full-precision ids exactly on every framework."""
        config_off = _config(framework=name, tiered=False)
        config_on = _config(
            framework=name,
            tiered=True,
            quantize_bits=8,
            rerank_factor=64,  # 64*5 >= corpus: rerank sees everything
        )
        builder = IndexConstruction()
        off = builder.run(config_off, scenes_kb, clip_set, weights)
        on = builder.run(config_on, scenes_kb, clip_set, weights)
        ids_off = [
            off.retrieve(RawQuery.from_text(t), k=5, budget=200).ids for t in TEXTS
        ]
        ids_on = [
            on.retrieve(RawQuery.from_text(t), k=5, budget=200).ids for t in TEXTS
        ]
        assert ids_off == ids_on
        ledger = tiered_snapshot(on)
        assert ledger is not None
        assert ledger["totals"]["reranked_rows"] > 0

    def test_sharded_tiered_ids_identical_to_unsharded(
        self, scenes_kb, clip_set, weights
    ):
        config_flat = _config(tiered=True, rerank_factor=64)
        config_sharded = _config(tiered=True, rerank_factor=64, shards=4)
        builder = IndexConstruction()
        unsharded = builder.run(config_flat, scenes_kb, clip_set, weights)
        sharded = builder.run(config_sharded, scenes_kb, clip_set, weights)
        flat_ids = [
            unsharded.retrieve(RawQuery.from_text(t), k=5, budget=200).ids
            for t in TEXTS
        ]
        shard_ids = [
            sharded.retrieve(RawQuery.from_text(t), k=5, budget=200).ids
            for t in TEXTS
        ]
        assert flat_ids == shard_ids
        ledger = tiered_snapshot(sharded)
        # One independent store (and spill segment) per shard replica.
        assert ledger["totals"]["stores"] == 4
        paths = {row["spill_path"] for row in ledger["stores"]}
        assert len(paths) == 4

    def test_config_rejects_tiered_without_starling(self):
        with pytest.raises(ConfigurationError):
            MQAConfig(index="hnsw", tiered=True)
        with pytest.raises(ConfigurationError):
            MQAConfig(quantize_bits=6)
        with pytest.raises(ConfigurationError):
            MQAConfig(rerank_factor=0)
        with pytest.raises(ConfigurationError):
            MQAConfig(mmap_cache_blocks=-2)
