"""Shared utilities: seeded RNG helpers, timers, simplex projection, the
set-up scratch budget and parameter checks."""

from repro.utils.checks import check_integer, check_real, object_id_of
from repro.utils.rng import (
    BULK_SEEDING_MIN_KEYS,
    derive_rng,
    derive_rngs,
    derive_words,
    rng_from_seed,
    stable_hash,
)
from repro.utils.scratch import SCRATCH_BYTES, row_blocks
from repro.utils.timing import Timer
from repro.utils.vectors import l2_normalize, project_to_simplex

__all__ = [
    "BULK_SEEDING_MIN_KEYS",
    "SCRATCH_BYTES",
    "Timer",
    "check_integer",
    "check_real",
    "derive_rng",
    "derive_rngs",
    "derive_words",
    "l2_normalize",
    "object_id_of",
    "project_to_simplex",
    "rng_from_seed",
    "row_blocks",
    "stable_hash",
]
