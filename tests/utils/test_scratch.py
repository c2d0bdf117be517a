"""The one scratch budget and the row blocks cut from it."""

from __future__ import annotations

import pytest

import repro.index.stages
import repro.utils
from repro.utils import SCRATCH_BYTES, row_blocks
from repro.utils.scratch import ROW_ALIGNMENT


def test_one_constant():
    """Encoders, the learner and the graph builds read the same value: the
    index's name for it is the same object."""
    assert SCRATCH_BYTES == 640 * 1024
    assert repro.index.stages._SCRATCH_BYTES is repro.utils.scratch.SCRATCH_BYTES
    assert repro.utils.SCRATCH_BYTES is repro.utils.scratch.SCRATCH_BYTES


@pytest.mark.parametrize("row_bytes", [1, 512, 1024, 2048, 2560, 10_000, SCRATCH_BYTES, 10**9])
@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 127, 128, 319, 320, 321, 383, 384, 2000, 2001])
def test_blocks_cover_the_rows_aligned(n, row_bytes):
    blocks = list(row_blocks(n, row_bytes))
    step = max(ROW_ALIGNMENT, SCRATCH_BYTES // row_bytes // ROW_ALIGNMENT * ROW_ALIGNMENT)
    assert [i for block in blocks for i in range(block.start, block.stop)] == list(range(n))
    for block in blocks:
        assert block.start % ROW_ALIGNMENT == 0
        assert block.stop - block.start <= step + ROW_ALIGNMENT - 1
    if len(blocks) > 1:
        assert min(block.stop - block.start for block in blocks) >= ROW_ALIGNMENT
        assert all(block.stop - block.start == step for block in blocks[:-1])


def test_the_budget_sets_the_block():
    """A 256-pixel image row is 2 048 bytes: 320 rows a block, so 2 000
    rows are six blocks and 80 rows; 2 001 rows end in 81."""
    assert [b.stop - b.start for b in row_blocks(2000, 2048)] == [320] * 6 + [80]
    assert [b.stop - b.start for b in row_blocks(2001, 2048)][-1] == 81
    assert [b.stop - b.start for b in row_blocks(330, 2048)] == [330]
