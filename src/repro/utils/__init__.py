"""Shared utilities: seeded RNG helpers, timers, and simplex projection."""

from repro.utils.rng import derive_rng, derive_rngs, rng_from_seed, stable_hash
from repro.utils.timing import Timer
from repro.utils.vectors import l2_normalize, project_to_simplex

__all__ = [
    "Timer",
    "derive_rng",
    "derive_rngs",
    "l2_normalize",
    "project_to_simplex",
    "rng_from_seed",
    "stable_hash",
]
