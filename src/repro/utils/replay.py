"""numpy ``Generator`` draws computed from a PCG64's raw 64-bit output.

A scalar ``Generator`` call costs ~0.7–9 µs, almost all of it call overhead,
and set-up makes tens of thousands of them (a few per text key, a few per
concept bag, hundreds per learner step).  The draws are simple functions of
the bit generator's words, so they can be computed from bulk ``random_raw``
output instead, byte for byte.  The numpy algorithms replayed here
(``numpy/random/_generator.pyx``, ``src/distributions/distributions.c``):

* **64-bit and 32-bit words.**  ``random()`` reads one word ``w`` and
  returns ``(w >> 11) * 2**-53``.  A 32-bit draw returns the low half of a
  new word and buffers its high half in the bit generator, which the next
  32-bit draw returns; 64-bit draws do not touch that buffer.
* **``integers(n)``** for ``n <= 2**32`` is Lemire's method on 32-bit draws:
  ``m = u * n``, redrawn while ``m mod 2**32 < 2**32 mod n``, and the result
  is ``m >> 32``.  ``n == 1`` draws nothing.
* **``permutation(k)``** shuffles ``arange(k)`` by Fisher–Yates from index
  ``k - 1`` down to 1; the swap partner of ``i`` is a 32-bit draw masked to
  the smallest all-ones mask ``>= i``, redrawn while above ``i``.
* **``choice(n, k, replace=False)``** for ``n <= 10000`` is Floyd's
  algorithm (for ``j`` in ``n - k .. n - 1``: draw ``integers(j + 1)``,
  take ``j`` instead if it was already taken), then a Fisher–Yates shuffle
  of the ``k`` picks whose swap partners are Lemire draws.

``tests/utils/test_draw_replay.py`` checks each against the live
``Generator`` method, consumption included, so a numpy release that changes
one of them fails there, loudly, before any corpus moves.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

MASK32 = 0xFFFFFFFF
_DOUBLE = 2.0 ** -53
_WORD = 2 ** 32


def halves(words: np.ndarray) -> np.ndarray:
    """The 32-bit draws a stream of only 32-bit draws makes from ``words``
    (``(..., w)`` uint64): each word's low half, then its high half, along
    the last axis, as ``(..., 2w)`` uint64."""
    return np.stack([words & MASK32, words >> 32], axis=-1).reshape(*words.shape[:-1], -1)


def lemire(draws: np.ndarray, bound: int) -> Tuple[np.ndarray, np.ndarray]:
    """``integers(bound)`` on each 32-bit draw of ``draws``: the value it
    gives and whether it is accepted (a rejected draw is redrawn)."""
    product = draws * np.uint64(bound)
    return product >> 32, (product & MASK32) >= _WORD % bound


class WordStream:
    """One stream's ``integers``, ``choice`` and ``random`` draws replayed in
    Python from its bit generator's raw words, ``chunk`` words at a time.

    It stands in for a ``Generator`` where a long run of scalar draws is
    made from one stream (a knowledge base's concept bags): the stream's
    values are the ``Generator``'s, and each call costs a few tenths of a
    µs.  The bit generator must be fresh — its 32-bit buffer empty — and is
    advanced in chunks, so after use it is past the draws made here.
    """

    __slots__ = ("_bits", "_chunk", "_words", "_next", "_half")

    def __init__(self, bit_generator: np.random.BitGenerator, chunk: int = 1024) -> None:
        self._bits = bit_generator
        self._chunk = chunk
        self._words: List[int] = []
        self._next = 0
        self._half: "int | None" = None

    def _word(self) -> int:
        if self._next == len(self._words):
            self._words = self._bits.random_raw(self._chunk).tolist()
            self._next = 0
        self._next += 1
        return self._words[self._next - 1]

    def _bounded(self, bound: int) -> int:
        """Lemire's method on 32-bit draws (the low half of a new word, or
        the high half the last 32-bit draw left buffered)."""
        if bound == 1:
            return 0
        threshold = _WORD % bound
        while True:
            half = self._half
            if half is None:
                word = self._word()
                self._half = word >> 32
                product = (word & MASK32) * bound
            else:
                self._half = None
                product = half * bound
            if product & MASK32 >= threshold:
                return product >> 32

    def integers(self, low: int, high: "int | None" = None) -> int:
        """``Generator.integers(low, high)``: one int in ``[low, high)``
        (``[0, low)`` without ``high``), for spans up to ``2**32``."""
        if high is None:
            low, high = 0, low
        if not 0 < high - low <= _WORD:
            raise ValueError(f"cannot replay integers over [{low}, {high})")
        return low + self._bounded(high - low)

    def choice(self, a: int, size: int, replace: bool = False) -> List[int]:
        """``Generator.choice(a, size, replace=False)`` for an int ``a``."""
        if replace or not 0 <= size <= a <= 10000:
            raise ValueError(f"cannot replay choice({a}, {size}, replace={replace})")
        picks: List[int] = []
        taken = set()
        for j in range(a - size, a):
            value = self._bounded(j + 1)
            if value in taken:
                value = j
            taken.add(value)
            picks.append(value)
        for i in range(size - 1, 0, -1):
            j = self._bounded(i + 1)
            picks[i], picks[j] = picks[j], picks[i]
        return picks

    def random(self, size: int) -> List[float]:
        """``Generator.random(size)``'s ``size`` uniforms in ``[0, 1)``, as
        a list."""
        return [(self._word() >> 11) * _DOUBLE for _ in range(size)]


class StreamBlock:
    """Many fresh streams replayed at once, each a row of its first
    ``width`` raw words (``(n, width)`` uint64).

    Every draw method takes ``rows``, an index array of the streams that
    make this draw, and returns one value per row: the draws are array
    operations across streams, each stream consuming its own words as its
    ``Generator`` would.  A stream that needs a word past ``width`` is
    marked in :attr:`overrun`; its values from then on are meaningless and
    the caller makes that stream's draws again on the ``Generator``.
    """

    def __init__(self, words: np.ndarray) -> None:
        self.words = words
        self.cursor = np.zeros(len(words), dtype=np.intp)  # next unread word
        self.half = np.zeros(len(words), dtype=np.uint64)  # a buffered high half
        self.pending = np.zeros(len(words), dtype=bool)  # whether it is there
        self.overrun = np.zeros(len(words), dtype=bool)

    def _read(self, rows: np.ndarray, at: np.ndarray) -> np.ndarray:
        width = self.words.shape[1]
        past = at >= width
        if past.any():
            self.overrun[rows[past]] = True
            at = np.minimum(at, width - 1)
        return self.words[rows, at]

    def random(self, rows: np.ndarray) -> np.ndarray:
        """``random()`` on each stream of ``rows``."""
        at = self.cursor[rows]
        self.cursor[rows] = at + 1
        return (self._read(rows, at) >> 11) * _DOUBLE

    def uint32(self, rows: np.ndarray) -> np.ndarray:
        """One 32-bit draw on each stream of ``rows``."""
        fresh = ~self.pending[rows]
        values = self.half[rows]
        if fresh.any():
            taking = rows[fresh]
            at = self.cursor[taking]
            word = self._read(taking, at)
            self.cursor[taking] = at + 1
            self.half[taking] = word >> 32
            values[fresh] = word & MASK32
        self.pending[rows] = fresh
        return values

    def integers(self, rows: np.ndarray, bounds: "int | np.ndarray") -> np.ndarray:
        """``integers(bound)`` on each stream of ``rows``, ``bounds`` one
        bound for all or one per row (each in ``1 .. 2**32``)."""
        bounds = np.broadcast_to(np.asarray(bounds, dtype=np.uint64), rows.shape)
        values = np.zeros(len(rows), dtype=np.uint64)
        thresholds = _WORD % bounds
        todo = np.flatnonzero(bounds > 1)
        while todo.size:
            product = self.uint32(rows[todo]) * bounds[todo]
            values[todo] = product >> 32
            redraw = (product & MASK32) < thresholds[todo]
            todo = todo[redraw & ~self.overrun[rows[todo]]]
        return values

    def interval(self, rows: np.ndarray, maximum: int) -> np.ndarray:
        """A shuffle's swap partner for index ``maximum >= 1`` on each
        stream of ``rows``: a masked 32-bit draw, redrawn while above it."""
        mask = (1 << maximum.bit_length()) - 1
        values = np.empty(len(rows), dtype=np.uint64)
        todo = np.arange(len(rows))
        while todo.size:
            drawn = self.uint32(rows[todo]) & mask
            values[todo] = drawn
            todo = todo[(drawn > maximum) & ~self.overrun[rows[todo]]]
        return np.minimum(values, maximum)  # an overrun row's may be above

    def permutations(self, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """``permutation(lengths[i])`` on stream ``rows[i]``: row ``i`` of
        the ``(len(rows), max(lengths))`` result starts with it."""
        top = int(lengths.max(initial=0))
        order = np.tile(np.arange(top), (len(rows), 1))
        for i in range(top - 1, 0, -1):
            live = np.flatnonzero(lengths > i)
            partner = self.interval(rows[live], i).astype(np.intp)
            swapped = order[live, partner]
            order[live, partner] = order[live, i]
            order[live, i] = swapped
        return order
