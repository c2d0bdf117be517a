"""The keyed generator set-up draws from (``repro.utils.rng.words`` and its
forms).

Row ``i`` of a call depends only on ``stable_hash(seed, *scope, keys[i])``
and the column index: a key's row is the same drawn alone, in any batch, in
any order and across a block boundary — which is what lets ingest
be a batch of one.  The bytes do not depend on the process either, and the
conversions stay in their ranges.
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import DatasetSpec, generate_knowledge_base
from repro.data.concepts import ConceptSpace
from repro.data.rendering import FILLER_WORDS, TextRenderer
from repro.encoders import build_encoder_set
from repro.utils import stable_hash
from repro.utils.rng import (
    _block_rows,
    below,
    normals,
    uniforms,
    unit_interval,
    words,
)
from repro.weights import ViewPairSampler

REPO = Path(__file__).resolve().parents[2]

#: Keys as set-up makes them: an object id, a view's ``("view", id, seed)``,
#: a step; strings too, whose builtin hash is salted per process.
KEYS = st.one_of(
    st.integers(0, 2**40),
    st.tuples(st.just("view"), st.integers(0, 5000), st.integers(0, (1 << 30) - 1)),
    st.text(max_size=6),
)
FORMS = {"words": words, "uniforms": uniforms, "normals": normals}
#: Wide enough rows that a call of a few keys spans several blocks.
COUNT = 600


@settings(max_examples=30, deadline=None)
@given(
    keys=st.lists(KEYS, min_size=1, max_size=6, unique=True),
    padding=st.integers(0, 40),
    form=st.sampled_from(sorted(FORMS)),
    data=st.data(),
)
def test_a_keys_row_does_not_depend_on_the_call(keys, padding, form, data):
    draw = FORMS[form]
    batch = data.draw(st.permutations(keys + [("pad", i) for i in range(padding)]))
    together = draw(7, ("scope", 1), batch, COUNT)
    assert together.shape == (len(batch), COUNT)
    for key in keys:
        alone = draw(7, ("scope", 1), [key], COUNT)
        assert alone.shape == (1, COUNT)
        assert alone[0].tobytes() == together[batch.index(key)].tobytes()


@pytest.mark.parametrize("form", sorted(FORMS))
def test_rows_either_side_of_a_block_boundary(form):
    step = _block_rows(COUNT)
    assert 1 < step < 40
    keys = list(range(3 * step + 1))
    together = FORMS[form](3, ("edge",), keys, COUNT)
    for row in (step - 1, step, 2 * step, len(keys) - 1):
        assert together[row].tobytes() == FORMS[form](3, ("edge",), [row], COUNT)[0].tobytes()


@settings(max_examples=100, deadline=None)
@given(parts=st.lists(st.one_of(KEYS, st.floats(allow_nan=False), st.none()), max_size=5))
def test_stable_hash_is_the_per_part_digest(parts):
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")
    assert stable_hash(*parts) == int.from_bytes(digest.digest(), "big")


def test_rows_are_keyed_by_seed_scope_and_key():
    base = words(5, ("text",), [0, 1], 8)
    assert not np.array_equal(base[0], base[1])
    assert not np.array_equal(base, words(6, ("text",), [0, 1], 8))
    assert not np.array_equal(base, words(5, ("image",), [0, 1], 8))
    # Widening a row appends columns; it does not move the ones before.
    assert np.array_equal(words(5, ("text",), [0, 1], 20)[:, :8], base)
    assert words(5, ("text",), [], 8).shape == (0, 8)


def _splitmix64(state: int, column: int) -> int:
    """SplitMix64's output ``column`` from ``state``, in Python integers."""
    mask = 2**64 - 1
    z = (state + (column + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_the_generator_is_splitmix64_from_the_key_hash():
    """Checked against a scalar Python SplitMix64, and pinned: a change to
    the mixing fails here before any corpus digest moves."""
    keys = [0, 7, ("view", 2, 5), "x"]
    drawn = words(3, ("scope",), keys, 9).tolist()
    for key, row in zip(keys, drawn):
        state = stable_hash(3, "scope", key)
        assert row == [_splitmix64(state, column) for column in range(9)]
    assert [hex(w) for w in words(0, ("pin",), [0], 3)[0].tolist()] == [
        "0x829e169eee00c534", "0xc6fdd7a4bbd20bf4", "0x9895094f83678a07",
    ]


_SCRIPT = """
import hashlib, sys
sys.path.insert(0, "src")
from repro.utils.rng import normals, words
keys = [0, "text", ("view", 3, 9), 2**40]
digest = hashlib.sha256(words(11, ("scope", "a"), keys, 33).tobytes())
digest.update(normals(11, ("noise",), keys, 257).tobytes())
print(digest.hexdigest())
"""


def test_same_seed_same_bytes_in_processes_with_different_hash_seeds():
    outputs = set()
    for hash_seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        result = subprocess.run(
            [sys.executable, "-c", _SCRIPT], cwd=REPO, env=env,
            capture_output=True, text=True, check=True,
        )
        outputs.add(result.stdout.strip())
    assert len(outputs) == 1


class TestConversions:
    @settings(max_examples=60, deadline=None)
    @given(
        drawn=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
        bound=st.integers(1, 2**32),
    )
    def test_integers_lie_below_their_bound(self, drawn, bound):
        values = below(np.array(drawn, dtype=np.uint64), bound)
        assert values.dtype == np.int64
        assert ((values >= 0) & (values < bound)).all()
        unit = unit_interval(np.array(drawn, dtype=np.uint64))
        assert ((unit >= 0.0) & (unit < 1.0)).all()

    def test_integers_per_row_bounds_and_extremes(self):
        extremes = np.array([[0, 2**64 - 1]], dtype=np.uint64)
        assert below(extremes, 2**32).tolist() == [[0, 2**32 - 1]]
        assert below(extremes, 1).tolist() == [[0, 0]]
        drawn = words(1, ("bounds",), list(range(500)), 16)
        bounds = np.arange(1, 501)[:, None]
        values = below(drawn, bounds)
        assert ((values >= 0) & (values < bounds)).all()
        counts = np.bincount(below(drawn, 4).ravel(), minlength=4)
        assert counts.min() > 0.2 * drawn.size  # each quarter near 25 %

    def test_normals_are_the_normal_quantiles(self):
        drawn = words(2, ("normals",), [0, 1, 2], 4000)
        p = ((drawn >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
        exact = np.array([NormalDist().inv_cdf(v) for v in p.ravel().tolist()])
        got = normals(2, ("normals",), [0, 1, 2], 4000).ravel()
        assert np.abs(got - exact).max() < 1e-8
        # Both tails and the centre are reached.
        assert got.min() < -3 and got.max() > 3 and math.isclose(got.mean(), 0, abs_tol=0.05)


class TestSetUpLayouts:
    def test_a_negative_never_equals_its_anchor(self):
        for size in (2, 5, 300):
            kb = generate_knowledge_base(DatasetSpec("scenes", size=size, seed=3))
            encoders = build_encoder_set("unimodal-basic", kb)
            sampler = ViewPairSampler(kb, encoders, n_negatives=8, seed=4)
            anchors, seeds, negatives = sampler._draws(32, list(range(20)))
            assert anchors.shape == seeds.shape == (20, 32)
            assert negatives.shape == (20, 32, 8)
            assert ((anchors >= 0) & (anchors < size)).all()
            assert ((negatives >= 0) & (negatives < size)).all()
            assert (negatives != anchors[:, :, None]).all()
            assert ((seeds >= 0) & (seeds < 1 << 30)).all()

    def test_a_token_order_is_a_permutation(self):
        vocab = {"weather": ["foggy", "sunny"], "sky": ["clouds", "stars"], "time": ["dawn"]}
        renderer = TextRenderer(ConceptSpace(vocab, latent_dim=8, seed=1), drop_probability=0.0)
        bags = [["foggy", "clouds", "dawn"][:1 + i % 3] for i in range(300)]
        for bag, text in zip(bags, renderer.render_many(bags, list(range(300)))):
            tokens = text.split()
            assert sorted(t for t in tokens if t not in FILLER_WORDS) == sorted(bag)
            assert len(tokens) == len(bag) + renderer.filler_count

    def test_a_bag_takes_distinct_categories(self):
        space = ConceptSpace({f"c{i}": [f"n{i}a", f"n{i}b"] for i in range(6)}, 8, seed=2)
        bags, intensities = space.sample_bags(9, ("bags",), range(400), 1, 6)
        assert {len(bag) for bag in bags} == set(range(1, 7))
        for bag, weights in zip(bags, intensities):
            assert len({space.get(name).category for name in bag}) == len(bag) == len(weights)
