"""Shared utilities: seeded RNG helpers, timers, simplex projection, the
set-up scratch budget and parameter checks."""

from repro.utils.checks import check_integer, check_real
from repro.utils.rng import derive_rng, derive_rngs, rng_from_seed, stable_hash
from repro.utils.scratch import SCRATCH_BYTES, row_blocks
from repro.utils.timing import Timer
from repro.utils.vectors import l2_normalize, project_to_simplex

__all__ = [
    "SCRATCH_BYTES",
    "Timer",
    "check_integer",
    "check_real",
    "derive_rng",
    "derive_rngs",
    "l2_normalize",
    "project_to_simplex",
    "rng_from_seed",
    "row_blocks",
    "stable_hash",
]
