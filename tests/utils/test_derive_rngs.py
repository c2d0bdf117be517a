"""``derive_rngs`` against ``derive_rng``, stream for stream.

From ``BULK_SEEDING_MIN_KEYS`` keys on, ``derive_rngs`` mixes numpy's
``SeedSequence`` words for every key in one vectorised pass instead of
calling ``default_rng`` per key; below it, it calls ``derive_rng``.  Either
way each key's generator must be the one ``derive_rng`` makes.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import derive_rng, derive_rngs, stable_hash
from repro.utils.rng import BULK_SEEDING_MIN_KEYS, _seed_words

KEYS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.text(max_size=6),
    st.tuples(st.just("view"), st.integers(0, 5000), st.integers(0, (1 << 30) - 1)),
)
SCOPES = st.lists(st.one_of(st.text(max_size=8), st.integers(-5, 2**40)), max_size=3)
EDGE_ENTROPY = [0, 1, 2**31, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _assert_same_stream(rng, key, seed, scope):
    reference = derive_rng(seed, *scope, key)
    assert rng.bit_generator.state == reference.bit_generator.state, key
    assert np.array_equal(rng.standard_normal(3), reference.standard_normal(3))
    assert rng.integers(1 << 30) == reference.integers(1 << 30)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    scope=SCOPES,
    keys=st.lists(KEYS, max_size=3 * BULK_SEEDING_MIN_KEYS),
)
def test_each_key_gets_derive_rng_s_stream(seed, scope, keys):
    streams = list(derive_rngs(seed, *scope, keys=keys))
    assert len(streams) == len(keys)
    for key, rng in zip(keys, streams):
        _assert_same_stream(rng, key, seed, scope)


@pytest.mark.parametrize(
    "count",
    [1, BULK_SEEDING_MIN_KEYS - 1, BULK_SEEDING_MIN_KEYS, BULK_SEEDING_MIN_KEYS + 1, 500],
)
def test_both_sides_of_the_crossover(count):
    keys = [("view", i, 31 * i) for i in range(count)]
    for key, rng in zip(keys, derive_rngs(7, "image-noise", keys=keys)):
        _assert_same_stream(rng, key, 7, ("image-noise",))


def test_seed_words_are_seed_sequence_s():
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def check(entropy):
        entropy = EDGE_ENTROPY + entropy
        words = np.stack(_seed_words(np.array(entropy, dtype=np.uint64)), axis=1)
        for e, row in zip(entropy, words):
            expected = np.random.SeedSequence(e).generate_state(4, np.uint64)
            assert row.tolist() == expected.tolist(), e

    check()


@settings(max_examples=100, deadline=None)
@given(parts=st.lists(st.one_of(KEYS, st.floats(allow_nan=False), st.none()), max_size=5))
def test_stable_hash_is_the_per_part_digest(parts):
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")
    assert stable_hash(*parts) == int.from_bytes(digest.digest(), "big")
