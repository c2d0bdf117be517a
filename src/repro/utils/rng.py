"""Deterministic random-number utilities.

Everything stochastic in this library is seeded by name, so that datasets,
encoders, index construction and benchmarks are exactly reproducible run to
run, and adding draws in one module never shifts another's.  There are two
sources:

* :func:`derive_rng` — a numpy :class:`~numpy.random.Generator` for a named
  scope.  It serves the sites that draw once per scope: projection matrices,
  index initialisation, LLM phrasing, fault injection, workloads.
* :func:`words` and its forms :func:`uniforms` and :func:`normals` — one
  stateless, counter-based generator for set-up's keyed draws (a concept bag
  per object, the noise of each rendered item, a learner step).  Row ``i``
  depends only on ``stable_hash(seed, *scope, keys[i])`` and the column
  index, so a key's draws are the same alone, in any batch and in any order:
  one code path serves one key and ten thousand.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Sequence

import numpy as np


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

    Deriving independent streams by name (e.g. ``derive_rng(seed,
    "image-projection")``) keeps components decoupled: adding noise draws in
    one module never shifts the stream consumed by another.
    """
    return np.random.default_rng(stable_hash(seed, *scope))


def _key_hashes(seed: int, scope: Sequence[object], keys: Sequence[object]) -> np.ndarray:
    """``stable_hash(seed, *scope, key)`` of each key, as uint64, the shared
    ``(seed, *scope)`` prefix hashed once."""
    prefix = hashlib.blake2b(_encoded((seed, *scope)), digest_size=8)
    hashes = []
    for key in keys:
        digest = prefix.copy()
        digest.update(_encoded((key,)))
        hashes.append(int.from_bytes(digest.digest(), "big"))
    return np.array(hashes, dtype=np.uint64).reshape(len(hashes))


# SplitMix64 (Steele, Lea and Flood, "Fast splittable pseudorandom number
# generators", OOPSLA 2014): a Weyl sequence of the golden-ratio increment
# from the key's hash, each element put through a 64-bit finaliser.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_A, _MIX_B = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_S11, _S12, _S27, _S30, _S31, _S32 = (np.uint64(s) for s in (11, 12, 27, 30, 31, 32))

#: Bytes of words one block of keys mixes and converts; about four arrays of
#: that size are alive at once (the normals' conversion is the widest).
#: Callers hand the generator scratch-sized blocks of their own (the learner
#: renders a group of views that fills :data:`~repro.utils.SCRATCH_BYTES`),
#: so its blocks stay a small fraction of that budget: 32 KiB, 16 rows of
#: 256 normals, adds nothing measurable to the learner's traced peak.
_BLOCK_BYTES = 32 * 1024


#: Keys a consumer of :func:`words` draws for at a time when it has many
#: (the concept bags, the texts).  The numpy call overhead is amortised, and
#: the arrays and lists built per block stay a few tens of KB: drawn for the
#: whole corpus at once, they left more resident memory behind over repeated
#: set-ups in one process (allocator fragmentation, not live data).
KEY_BLOCK = 256


def _block_rows(count: int) -> int:
    """Keys a block holds when each draws ``count`` words."""
    return max(1, _BLOCK_BYTES // (8 * max(count, 1)))


def _mixed(hashes: np.ndarray, count: int) -> np.ndarray:
    """Word ``(i, j)`` is SplitMix64's ``j``-th output from ``hashes[i]``:
    the finaliser of ``hashes[i] + (j + 1) * gamma`` (uint64 arithmetic
    wraps)."""
    z = hashes[:, None] + np.arange(1, count + 1, dtype=np.uint64) * _GAMMA
    z ^= z >> _S30
    z *= _MIX_A
    z ^= z >> _S27
    z *= _MIX_B
    z ^= z >> _S31
    return z


def _keyed(
    seed: int, scope: Sequence[object], keys: Sequence[object], count: int,
    dtype: type, convert: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """``convert`` of each key's first ``count`` words, as a ``(len(keys),
    count)`` array of ``dtype``, made a :func:`_block_rows` block of keys at
    a time."""
    hashes = _key_hashes(seed, scope, keys)
    out = np.empty((len(hashes), count), dtype=dtype)
    step = _block_rows(count)
    for start in range(0, len(hashes), step):
        block = slice(start, start + step)
        out[block] = convert(_mixed(hashes[block], count))
    return out


def words(seed: int, scope: Sequence[object], keys: Sequence[object], count: int) -> np.ndarray:
    """The keyed generator: a ``(len(keys), count)`` uint64 array whose row
    ``i`` depends only on ``stable_hash(seed, *scope, keys[i])`` and whose
    column ``j`` only on ``j``.  A caller gives each column of its scope a
    fixed meaning and converts it with :func:`unit_interval`, :func:`below`
    or a stable argsort (an order)."""
    return _keyed(seed, scope, keys, count, np.uint64, lambda z: z)


def unit_interval(drawn: np.ndarray) -> np.ndarray:
    """Each word as a float64 in ``[0, 1)``: its top 53 bits times 2**-53."""
    return (drawn >> _S11).astype(np.float64) * 2.0 ** -53


def below(drawn: np.ndarray, bound: "int | np.ndarray") -> np.ndarray:
    """Each word as an int64 in ``[0, bound)`` (``bound`` one for all or
    broadcast against ``drawn``, each in ``1 .. 2**32``): the high 32 bits
    times ``bound``, shifted down 32 (multiply-shift; no rejection)."""
    bound = np.asarray(bound, dtype=np.uint64)
    return (((drawn >> _S32) * bound) >> _S32).astype(np.int64)


def uniforms(
    seed: int, scope: Sequence[object], keys: Sequence[object], count: int
) -> np.ndarray:
    """:func:`unit_interval` of :func:`words`: ``(len(keys), count)``
    float64 uniforms in ``[0, 1)``."""
    return _keyed(seed, scope, keys, count, np.float64, unit_interval)


def normals(
    seed: int, scope: Sequence[object], keys: Sequence[object], count: int
) -> np.ndarray:
    """Standard normals from :func:`words`, ``(len(keys), count)`` float64.

    Each word's top 52 bits ``k`` give ``p = (k + 1/2) / 2**52`` in
    ``(0, 1)``, and the normal is the quantile of ``p`` by Acklam's
    rational approximation (relative error below 1.2e-9).  Only ``+ − × ÷``
    and ``sqrt`` run in numpy, which round the same at every SIMD dispatch
    level; the log of the ≈ 5 % of ``p`` in the tails is ``math.log``.
    (``np.log`` / ``np.exp`` give other bytes with AVX-512 on than off.)
    """
    return _keyed(seed, scope, keys, count, np.float64, _quantiles)


# Acklam's coefficients: the central region's numerator and denominator in
# r = (p - 1/2)**2, the tails' in s = sqrt(-2 log p).
_A = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
      1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
_B = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
      6.680131188771972e01, -1.328068155288572e01, 1.0)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
      -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
      3.754408661907416e00, 1.0)
#: ``|p - 1/2|`` above this is in a tail (Acklam's ``p < 0.02425``).
_CENTRAL_HALF_WIDTH = 0.5 - 0.02425


def _horner(coefficients: Sequence[float], x: np.ndarray) -> np.ndarray:
    value = coefficients[0] * x
    for coefficient in coefficients[1:-1]:
        value += coefficient
        value *= x
    value += coefficients[-1]
    return value


def _quantiles(drawn: np.ndarray) -> np.ndarray:
    shape = drawn.shape
    q = ((drawn >> _S12) * 2.0 ** -52).ravel()
    del drawn  # the block's words are not needed past here
    q -= 0.5 - 2.0 ** -53  # p - 1/2, exact
    r = q * q
    x = _horner(_A, r)
    x *= q
    x /= _horner(_B, r)
    del r
    tail = np.abs(q) > _CENTRAL_HALF_WIDTH
    ends = q[tail]
    # 0.5 - |p - 1/2| is min(p, 1 - p), exact; the log is libm's.
    s = np.sqrt(np.array([-2.0 * math.log(0.5 - abs(v)) for v in ends.tolist()]))
    x[tail] = np.copysign(_horner(_C, s) / _horner(_D, s), ends)
    return x.reshape(shape)
