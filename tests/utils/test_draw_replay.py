"""The replayed draws against the live ``numpy.random.Generator``.

``repro.utils.replay`` computes ``Generator`` results from raw PCG64 words:
``WordStream`` one stream at a time in Python, ``StreamBlock`` many streams
at once as array operations, and ``derive_words`` makes the words (PCG64
stepped for all keys at once when there are enough keys a word).  Every primitive is
checked against the ``Generator`` method on the same PCG64, and after each
check the next draw must agree too, so the words consumed are the same.  If
a numpy release changes one of these algorithms, this file fails first.

Then the three users, each on both sides of ``BULK_SEEDING_MIN_KEYS``: the
text renderer, the knowledge base's concept bags and the learner's draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.data.rendering as rendering
from repro.data import DatasetSpec, generate_knowledge_base
from repro.data.concepts import ConceptSpace
from repro.data.datasets import DOMAINS
from repro.encoders import build_encoder_set
from repro.utils import BULK_SEEDING_MIN_KEYS, derive_rng, derive_words
from repro.utils.replay import StreamBlock, WordStream, halves, lemire
from repro.utils.rng import STEPPED_KEYS_PER_WORD
from repro.weights import ViewPairSampler

#: 2**31 + 1 rejects about half its draws: Lemire's retry runs.
BOUNDS = [1, 2, 17, 2000, 2**30, 2**31 + 1, 2**32 - 1, 2**32]
SEEDS = st.integers(0, 2**64 - 1)

#: One draw of a mixed sequence: ("random",), ("integers", n),
#: ("permutation", k) or ("choice", n, k).
DRAWS = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("integers"), st.sampled_from(BOUNDS)),
    st.tuples(st.just("permutation"), st.integers(1, 8)),
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(st.just("choice"), st.just(n), st.integers(1, n))
    ),
)


def _live(rng, draw):
    kind = draw[0]
    if kind == "random":
        return [float(rng.random())]
    if kind == "integers":
        return [int(rng.integers(draw[1]))]
    if kind == "permutation":
        return rng.permutation(draw[1]).tolist()
    return rng.choice(draw[1], draw[2], replace=False).tolist()


def _replayed(stream, draw):
    """``draw`` on a WordStream, which replays all but permutations."""
    kind = draw[0]
    if kind == "random":
        return stream.random(1)
    if kind == "integers":
        return [stream.integers(draw[1])]
    return stream.choice(draw[1], draw[2])


class TestWordStream:
    @settings(max_examples=150, deadline=None)
    @given(seed=SEEDS, draws=st.lists(DRAWS.filter(lambda d: d[0] != "permutation"),
                                      min_size=1, max_size=12),
           chunk=st.sampled_from([1, 3, 1024]))
    def test_mixed_draws_are_the_generator_s(self, seed, draws, chunk):
        # 64-bit draws between 32-bit ones leave the buffered half in place;
        # a chunk of one word refills on every word.
        live = np.random.default_rng(seed)
        stream = WordStream(np.random.default_rng(seed).bit_generator, chunk=chunk)
        for draw in draws:
            assert _replayed(stream, draw) == _live(live, draw), draw
        assert stream.integers(2**31 + 1) == live.integers(2**31 + 1)
        assert stream.random(2) == live.random(2).tolist()

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_integers_at_each_bound(self, bound):
        for seed in range(40):
            live = np.random.default_rng(seed)
            stream = WordStream(np.random.default_rng(seed).bit_generator)
            assert [stream.integers(bound) for _ in range(5)] == [
                int(live.integers(bound)) for _ in range(5)
            ]
            assert stream.integers(3, 9) == live.integers(3, 9)

    def test_choice_of_every_small_size(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                for seed in range(10):
                    live = np.random.default_rng(seed)
                    stream = WordStream(np.random.default_rng(seed).bit_generator)
                    assert stream.choice(n, k) == live.choice(n, k, replace=False).tolist()
                    assert stream.integers(17) == live.integers(17)

    def test_what_it_does_not_replay_is_refused(self):
        stream = WordStream(np.random.default_rng(0).bit_generator)
        for call in (lambda: stream.integers(2**32 + 1), lambda: stream.integers(5, 5),
                     lambda: stream.choice(3, 4), lambda: stream.choice(3, 2, replace=True)):
            with pytest.raises(ValueError):
                call()


class TestStreamBlock:
    @settings(max_examples=60, deadline=None)
    @given(seeds=st.lists(SEEDS, min_size=1, max_size=6),
           draws=st.lists(DRAWS.filter(lambda d: d[0] != "choice"), min_size=1, max_size=10))
    def test_each_row_is_its_generator(self, seeds, draws):
        # Every stream makes the same calls; the rows are replayed together.
        rows = np.arange(len(seeds))
        words = np.stack([np.random.default_rng(s).bit_generator.random_raw(200) for s in seeds])
        block = StreamBlock(words)
        lives = [np.random.default_rng(s) for s in seeds]
        for draw in draws:
            if draw[0] == "random":
                got = block.random(rows)[:, None].tolist()
            elif draw[0] == "integers":
                got = block.integers(rows, draw[1])[:, None].tolist()
            else:
                got = block.permutations(rows, np.full(len(rows), draw[1])).tolist()
            assert got == [_live(live, draw) for live in lives], draw
        assert block.integers(rows, 2**31 + 1).tolist() == [
            live.integers(2**31 + 1) for live in lives
        ]
        assert not block.overrun.any()

    def test_rows_draw_independently(self):
        # Per-row bounds and lengths, and a subset of rows drawing.
        seeds = list(range(30))
        words = np.stack([np.random.default_rng(s).bit_generator.random_raw(60) for s in seeds])
        block, lives = StreamBlock(words), [np.random.default_rng(s) for s in seeds]
        rows = np.arange(30)
        bounds = np.array([1 + s % 7 for s in seeds])
        assert block.integers(rows, bounds).tolist() == [
            live.integers(b) for live, b in zip(lives, bounds)
        ]
        odd = rows[1::2]
        assert block.random(odd).tolist() == [lives[r].random() for r in odd]
        lengths = np.array([1 + s % 8 for s in seeds])
        orders = block.permutations(rows, lengths)
        for order, live, length in zip(orders, lives, lengths):
            assert order[:length].tolist() == live.permutation(length).tolist()

    def test_a_stream_past_its_words_is_marked(self):
        words = np.stack([np.random.default_rng(s).bit_generator.random_raw(2) for s in range(4)])
        block = StreamBlock(words)
        rows = np.arange(4)
        block.random(rows)
        block.integers(rows, 2**31 + 1)
        for _ in range(6):
            block.permutations(rows, np.full(4, 8))
        assert block.overrun.all()


class TestWords:
    @pytest.mark.parametrize(
        "count",
        [1, BULK_SEEDING_MIN_KEYS - 1, BULK_SEEDING_MIN_KEYS,
         9 * STEPPED_KEYS_PER_WORD - 1, 9 * STEPPED_KEYS_PER_WORD, 200],
    )
    def test_derive_words_is_random_raw(self, count):
        # Generators seeded per key, then in bulk; from 10 keys a word on
        # PCG64 is stepped as arrays.
        keys = [("view", i, 7 * i) if i % 2 else i - 3 for i in range(count)]
        words = derive_words(11, "text", keys=keys, width=9)
        for row, key in zip(words, keys):
            assert row.tolist() == derive_rng(11, "text", key).bit_generator.random_raw(9).tolist()

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, scope=st.text(max_size=5),
           keys=st.lists(st.integers(-(2**70), 2**70), min_size=3 * STEPPED_KEYS_PER_WORD,
                         max_size=6 * STEPPED_KEYS_PER_WORD))
    def test_stepped_pcg64_is_random_raw(self, seed, scope, keys):
        words = derive_words(seed, scope, keys=keys, width=3)
        for row, key in zip(words, keys):
            assert row.tolist() == derive_rng(seed, scope, key).bit_generator.random_raw(3).tolist()

    def test_halves_and_lemire_are_32_bit_integers(self):
        for seed in range(20):
            words = np.random.default_rng(seed).bit_generator.random_raw(8)
            draws = halves(words)
            live = np.random.default_rng(seed)
            values, accepted = lemire(draws, 2**31 + 1)
            expected = [int(live.integers(2**31 + 1)) for _ in range(int(accepted.sum()))]
            assert values[accepted].tolist() == expected


VOCAB = {
    "weather": ["foggy", "sunny", "stormy", "misty"],
    "sky": ["clouds", "stars", "sunset"],
    "landscape": ["mountains", "ocean", "desert"],
}
NAMES = [name for names in VOCAB.values() for name in names]


def _text_oracle(renderer, bags, keys):
    return [
        renderer._render_drawn(bag, derive_rng(renderer.seed, "text", key))
        for bag, key in zip(bags, keys)
    ]


class TestUsers:
    @pytest.fixture(scope="class")
    def renderer(self):
        space = ConceptSpace(VOCAB, latent_dim=16, seed=3)
        return rendering.RenderModel(space, seed=5, text_drop_probability=0.4).text

    @pytest.mark.parametrize("count", [1, BULK_SEEDING_MIN_KEYS - 1, BULK_SEEDING_MIN_KEYS, 200])
    def test_text_on_both_sides_of_the_crossover(self, renderer, count):
        bags = [NAMES[i % 6:i % 6 + 1 + i % 4] for i in range(count)]
        keys = [("view", i, 3 * i) for i in range(count)]
        assert renderer.render_many(bags, keys) == _text_oracle(renderer, bags, keys)

    @pytest.mark.parametrize("surplus", [-11, -6])  # 1 and 6 words a key
    def test_text_keys_past_their_words_finish_exactly(self, renderer, monkeypatch, surplus):
        # Too few words for most keys: each is rendered on its Generator.
        monkeypatch.setattr(rendering, "TEXT_SURPLUS_WORDS", surplus)
        made = []
        real = rendering.StreamBlock

        def spy(words):
            made.append(real(words))
            return made[-1]

        monkeypatch.setattr(rendering, "StreamBlock", spy)
        bags = [NAMES[i % 6:i % 6 + 4] for i in range(3 * BULK_SEEDING_MIN_KEYS)]
        keys = list(range(len(bags)))
        assert renderer.render_many(bags, keys) == _text_oracle(renderer, bags, keys)
        assert made and made[0].overrun.any()

    @pytest.mark.parametrize("size", [1, BULK_SEEDING_MIN_KEYS - 1, BULK_SEEDING_MIN_KEYS, 150])
    def test_concept_bags_on_both_sides_of_the_crossover(self, size):
        # The Generator loop generate_knowledge_base ran before the replay.
        spec = DatasetSpec("food", size=size, seed=9, min_concepts=1, max_concepts=5)
        space = ConceptSpace(DOMAINS["food"], latent_dim=spec.latent_dim, seed=spec.seed)
        rng = derive_rng(spec.seed, "dataset", spec.domain)
        expected = []
        for _ in range(size):
            bag = space.sample_object_concepts(rng, spec.min_concepts, spec.max_concepts)
            expected.append((tuple(bag), space.compose(bag, 0.5 + rng.random(len(bag)))))
        kb = generate_knowledge_base(spec)
        assert len(kb) == size
        for obj, (bag, latent) in zip(kb, expected):
            assert obj.concepts == bag
            assert np.array_equal(obj.latent, latent)

    @pytest.mark.parametrize("size, n_negatives", [(2, 3), (5, 4), (300, 8)])
    @pytest.mark.parametrize("steps, batch_size", [([3], 8), ([0, 1], 8), ([5, 2, 9, 9], 32)])
    def test_learner_draws_on_both_sides_of_the_crossover(
        self, size, n_negatives, steps, batch_size
    ):
        # 8 anchors are below the crossover, 16 and 128 above; two objects
        # make most negatives hit their anchor and be redrawn.
        kb = generate_knowledge_base(DatasetSpec("scenes", size=size, seed=3))
        sampler = ViewPairSampler(kb, build_encoder_set("clip-joint", kb),
                                  n_negatives=n_negatives, seed=4)
        assert sampler._draws(batch_size, steps) == [
            sampler._draw(batch_size, step) for step in steps
        ]
