"""Deterministic random-number utilities.

Everything stochastic in this library flows through seeded
:class:`numpy.random.Generator` instances so that datasets, encoders, index
construction, and benchmarks are exactly reproducible run to run.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, List, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence


def stable_hash(*parts: object) -> int:
    """Return a 64-bit hash of ``parts`` that is stable across processes.

    Python's builtin :func:`hash` is salted per process for strings, so it
    cannot be used to derive reproducible seeds.  This helper hashes the
    ``repr`` of each part with BLAKE2b instead.
    """
    return int.from_bytes(hashlib.blake2b(_encoded(parts), digest_size=8).digest(), "big")


def _encoded(parts: Sequence[object]) -> bytes:
    # "\x1f" after each part, so ("ab", "c") != ("a", "bc").
    return "".join([repr(part) + "\x1f" for part in parts]).encode("utf-8")


def rng_from_seed(seed: int) -> np.random.Generator:
    """Create a generator from an integer seed."""
    return np.random.default_rng(seed)


def derive_rng(seed: int, *scope: object) -> np.random.Generator:
    """Create a generator for a named sub-scope of a master seed.

    Deriving independent streams by name (e.g. ``derive_rng(seed, "text",
    object_id)``) keeps components decoupled: adding noise draws in one
    module never shifts the stream consumed by another.
    """
    return np.random.default_rng(stable_hash(seed, *scope))


#: Below this many keys :func:`derive_rngs` calls :func:`derive_rng` per
#: key: mixing the seeds as arrays costs ~0.15 ms whatever the count, then
#: ~2 µs a key, against ~11 µs a key for ``default_rng`` (2-core x86 host,
#: numpy 2.4; the two meet at about 16 keys).
BULK_SEEDING_MIN_KEYS = 16


def derive_rngs(
    seed: int, *scope: object, keys: Sequence[object]
) -> Iterator[np.random.Generator]:
    """One generator per key of ``keys``, in order, whose stream is
    ``derive_rng(seed, *scope, key)``'s, bit for bit.

    ``derive_rng`` spends most of its time in ``SeedSequence``.  From
    :data:`BULK_SEEDING_MIN_KEYS` keys on, the shared ``(seed, *scope)``
    prefix is hashed once, the seed-sequence words each PCG64 reads are
    mixed for all keys in one vectorised pass (:func:`_seed_words`), and
    PCG64 does its own 128-bit seeding from them.
    """
    if len(keys) < BULK_SEEDING_MIN_KEYS:
        return iter([derive_rng(seed, *scope, key) for key in keys])
    # map, not a generator: zip() leaves a generator suspended, and closing
    # one when it is collected raises GeneratorExit inside it.
    return map(np.random.Generator, _bit_generators(seed, scope, keys))


#: From this many keys per word of width on, :func:`derive_words` steps
#: PCG64 as arrays: ~42 µs a word whatever the key count, against ~4.4 µs
#: a key for a PCG64 object and its ``random_raw`` (2-core x86 host,
#: numpy 2.4).  Text's 2 000 keys × 14 words step; the learner's few
#: steps × 160 words do not.
STEPPED_KEYS_PER_WORD = 10


def derive_words(seed: int, *scope: object, keys: Sequence[object], width: int) -> np.ndarray:
    """The first ``width`` raw 64-bit outputs of each key's
    ``derive_rng(seed, *scope, key)`` stream: row ``i`` of the ``(len(keys),
    width)`` uint64 result is ``bit_generator.random_raw(width)`` of key
    ``i``'s generator.  :mod:`repro.utils.replay` computes the generator's
    draws from them.

    From :data:`STEPPED_KEYS_PER_WORD` keys a word on, the keys' seed words
    are mixed as in :func:`derive_rngs` and PCG64 itself is stepped for all
    keys at once (:func:`_pcg64_words`); below it each key's generator from
    :func:`derive_rngs` makes its row.
    """
    if len(keys) >= STEPPED_KEYS_PER_WORD * width:
        return _pcg64_words(_key_seed_words(seed, scope, keys), width)
    words = np.empty((len(keys), width), dtype=np.uint64)
    for row, rng in zip(words, derive_rngs(seed, *scope, keys=keys)):
        row[:] = rng.bit_generator.random_raw(width)
    return words


def _bit_generators(
    seed: int, scope: Sequence[object], keys: Sequence[object]
) -> Iterator[np.random.PCG64]:
    rows = np.stack(_key_seed_words(seed, scope, keys), axis=1)
    return map(_pcg64, rows)


def _pcg64(words: np.ndarray) -> np.random.PCG64:
    return np.random.PCG64(_SeedWords(words))


def _key_seed_words(
    seed: int, scope: Sequence[object], keys: Sequence[object]
) -> List[np.ndarray]:
    """:func:`_seed_words` of each key's ``stable_hash(seed, *scope, key)``,
    the shared prefix hashed once."""
    prefix = hashlib.blake2b(_encoded((seed, *scope)), digest_size=8)
    entropy: List[int] = []
    for key in keys:
        digest = prefix.copy()
        digest.update(_encoded((key,)))
        entropy.append(int.from_bytes(digest.digest(), "big"))
    return _seed_words(np.array(entropy, dtype=np.uint64))


# PCG64's 128-bit LCG multiplier (numpy's PCG_DEFAULT_MULTIPLIER_128), halved.
_PCG_MULT_HIGH, _PCG_MULT_LOW = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_U32, _U63, _U64 = np.uint64(32), np.uint64(63), np.uint64(64)


def _pcg64_words(seed_words: List[np.ndarray], width: int) -> np.ndarray:
    """``PCG64(_SeedWords(row)).random_raw(width)`` for every row of the
    four seed-word arrays, as one ``(n, width)`` array.

    numpy's PCG64 is the 128-bit LCG ``state = state * M + inc`` with the
    XSL-RR output (``(high ^ low)`` rotated right by ``state >> 122``).
    Seeding: words 0-1 are the initial state's high and low halves, words
    2-3 the stream's, ``inc = stream << 1 | 1``; the state starts at 0, is
    stepped, has the initial state added and is stepped again.  Each draw
    steps, then outputs.  128-bit values are (high, low) pairs of uint64
    arrays, and the products are built from 32-bit limbs.
    """
    state_high, state_low, stream_high, stream_low = seed_words
    inc_high = (stream_high << np.uint64(1)) | (stream_low >> _U63)
    inc_low = (stream_low << np.uint64(1)) | np.uint64(1)
    low = inc_low + state_low  # step 0 gives inc; then the state is added
    high = inc_high + state_high + (low < inc_low)
    high, low = _pcg64_step(high, low, inc_high, inc_low)
    words = np.empty((len(low), width), dtype=np.uint64)
    for column in range(width):
        high, low = _pcg64_step(high, low, inc_high, inc_low)
        mixed, rotation = high ^ low, high >> np.uint64(58)
        words[:, column] = (mixed >> rotation) | (mixed << ((_U64 - rotation) & _U63))
    return words


def _pcg64_step(
    high: np.ndarray, low: np.ndarray, inc_high: np.ndarray, inc_low: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    product_low = low * np.uint64(_PCG_MULT_LOW)
    product_high = (
        _mul_high(low, _PCG_MULT_LOW)
        + low * np.uint64(_PCG_MULT_HIGH)
        + high * np.uint64(_PCG_MULT_LOW)
    )
    low = product_low + inc_low
    return product_high + inc_high + (low < product_low), low


def _mul_high(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of each ``a * b`` (``a`` uint64, ``b < 2**64``)."""
    a_low, a_high = a & np.uint64(_MASK32), a >> _U32
    b_low, b_high = np.uint64(b & _MASK32), np.uint64(b >> 32)
    cross_low, cross_high = a_low * b_high, a_high * b_low
    middle = (a_low * b_low >> _U32) + (cross_low & np.uint64(_MASK32)) + (
        cross_high & np.uint64(_MASK32)
    )
    return a_high * b_high + (cross_low >> _U32) + (cross_high >> _U32) + (middle >> _U32)


class _SeedWords(ISeedSequence):
    """The four uint64 words ``SeedSequence(e).generate_state(4, uint64)``
    returns, precomputed: PCG64 asks its seed sequence for exactly these."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype: type = np.uint32) -> np.ndarray:
        return self.words


# numpy.random.SeedSequence's hash constants (a pool of four 32-bit words).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value: np.ndarray, hash_const: int) -> Tuple[np.ndarray, int]:
    value = value ^ hash_const
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _seed_words(entropy: np.ndarray) -> List[np.ndarray]:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for each ``e`` of a
    uint64 array, as four arrays (word ``k`` of every ``e``).

    ``e``'s two 32-bit halves are hashed into a pool of four (a missing high
    half hashes like a zero one), the pool is cross-mixed, and eight 32-bit
    outputs are read off it and paired little-endian.  Every step is masked
    to 32 bits: a product of two 32-bit words does not overflow a uint64.
    """
    zero = np.zeros_like(entropy)
    hash_const = _INIT_A
    pool = []
    for word in (entropy & _MASK32, entropy >> 32, zero, zero):
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for source in range(4):
        for target in range(4):
            if source != target:
                value, hash_const = _hashmix(pool[source], hash_const)
                pool[target] = _mix(pool[target], value)
    hash_const = _INIT_B
    state = []
    for index in range(8):
        value = pool[index % 4] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> 16))
    return [state[2 * k] | (state[2 * k + 1] << 32) for k in range(4)]
