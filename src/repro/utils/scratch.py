"""The one scratch budget set-up's bulk work is blocked by.

Set-up stages (the corpus encode, the weight learner's views, a graph
build's candidate and selection blocks) walk their rows in blocks whose
temporaries fit :data:`SCRATCH_BYTES`, so no stage holds a temporary the
size of the corpus beside the output it returns.  Peak RSS is a high-water
mark: a transient that is freed again still counts.
"""

from __future__ import annotations

from typing import Iterator

#: Bytes one block of set-up work may hold at once.
SCRATCH_BYTES = 640 * 1024

#: Rows a block starts at a multiple of.  A GEMM's per-row bits depend on
#: how its rows are tiled: blocks that start at multiples of 64 rows and
#: hold at least 64 reproduce the one-call bytes, while a GEMM of a few
#: dozen rows takes another kernel and rounds differently.
ROW_ALIGNMENT = 64


def row_blocks(n: int, row_bytes: int) -> Iterator[slice]:
    """Slices covering ``range(n)`` in order, each holding as many rows of
    ``row_bytes`` as fit :data:`SCRATCH_BYTES`, rounded down to a multiple
    of :data:`ROW_ALIGNMENT` (at least one multiple).  A remainder shorter
    than :data:`ROW_ALIGNMENT` joins the block before it, so every block
    but a lone one holds at least that many rows."""
    step = max(1, SCRATCH_BYTES // max(1, row_bytes) // ROW_ALIGNMENT) * ROW_ALIGNMENT
    start = 0
    while start < n:
        stop = start + step
        if n - stop < ROW_ALIGNMENT:
            stop = n
        yield slice(start, stop)
        start = stop
