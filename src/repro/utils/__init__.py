"""Shared utilities: seeded RNG helpers (set-up's keyed generator is
:mod:`repro.utils.rng`'s ``words``), timers, simplex projection, the set-up
scratch budget, the parameter contract (:func:`param`, :func:`check_fields`,
:func:`read_fields`), the one name -> factory table (:class:`Registry`) and
:func:`use_one_blas_thread`, which ``import repro`` runs."""

from repro.utils.blas import use_one_blas_thread
from repro.utils.checks import (
    check_fields, check_integer, check_real, object_id_of, param, read_fields,
)
from repro.utils.registry import Registry
from repro.utils.rng import derive_rng, rng_from_seed, stable_hash
from repro.utils.scratch import SCRATCH_BYTES, row_blocks
from repro.utils.timing import Timer
from repro.utils.vectors import l2_normalize, project_to_simplex

__all__ = [
    "Registry",
    "SCRATCH_BYTES",
    "Timer",
    "check_fields",
    "check_integer",
    "check_real",
    "derive_rng",
    "l2_normalize",
    "object_id_of",
    "param",
    "project_to_simplex",
    "read_fields",
    "rng_from_seed",
    "row_blocks",
    "stable_hash",
    "use_one_blas_thread",
]
