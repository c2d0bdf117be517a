"""The C runtime under numpy: its BLAS at one thread, and the heap that
set-up freed handed back to the operating system.

The program's parallelism is its callers' threads (DESIGN §7).  OpenBLAS
starts one thread per core at load and hands each GEMM it thinks is large
enough to all of them; the GEMMs here are small blocks, so the extra
thread spins beside the caller's, costs CPU and memory, and buys no wall
time.  :func:`use_one_blas_thread` runs once, at ``import repro``.  It
reads no environment variable and is no setting: a process that imports
``repro`` computes its BLAS calls on the thread that makes them.
"""

from __future__ import annotations

import ctypes
import glob
import os
from typing import Optional

import numpy as np

#: Thread setters of the OpenBLAS builds numpy's wheels bundle: the
#: ``scipy-openblas`` ILP64 / LP64 symbols, then an older wheel's plain
#: OpenBLAS with and without the ILP64 suffix.
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def use_one_blas_thread() -> Optional[str]:
    """Set numpy's OpenBLAS to one thread; return the setter called, or
    ``None`` (changing nothing) where no loaded OpenBLAS is found.

    The candidates are the OpenBLAS copies a numpy wheel bundles
    (``numpy.libs`` beside the package, ``numpy/.dylibs`` on macOS).
    ``RTLD_NOLOAD`` hands a library back only if the process has loaded it
    already, so nothing is loaded here."""
    if not hasattr(os, "RTLD_NOLOAD"):
        return None
    package = os.path.dirname(np.__file__)
    for path in sorted(
        glob.glob(os.path.join(package + ".libs", "*openblas*"))
        + glob.glob(os.path.join(package, ".dylibs", "*openblas*"))
    ):
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for name in _SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                return name
    return None


def release_free_heap() -> bool:
    """Hand the C heap's free pages back to the OS (glibc's ``malloc_trim``;
    ``False``, doing nothing, elsewhere).  glibc trims by itself only a free
    top above twice its largest freed mapping, so the ≈ 2 MB of scratch a
    2 000-row build frees would otherwise stay resident."""
    try:
        trim = ctypes.CDLL("libc.so.6", mode=getattr(os, "RTLD_NOLOAD", 0)).malloc_trim
    except (OSError, AttributeError):
        return False
    trim(0)
    return True
