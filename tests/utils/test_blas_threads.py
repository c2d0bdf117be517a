"""``import repro`` leaves numpy's OpenBLAS at one thread, and set-up hands
the heap it freed back to the operating system.

The program's parallelism is its callers' threads; a second BLAS thread
beside each small GEMM doubled set-up's CPU for the same wall time.  The
check runs in a fresh process that asks for two BLAS threads and imports
numpy before ``repro``, and reads the thread count through OpenBLAS's own
getter, not through the package.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

_SCRIPT = """
import ctypes, glob, os, sys
import numpy as np
sys.path.insert(0, "src")
package = os.path.dirname(np.__file__)

def find_getter():
    for path in glob.glob(package + ".libs/*openblas*") + glob.glob(package + "/.dylibs/*openblas*"):
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(library, name):
                return getattr(library, name)

getter = find_getter()
if getter is None:
    print("none")
else:
    before = getter()
    import repro
    print(before, getter())
"""


def test_importing_repro_leaves_numpy_blas_at_one_thread():
    if not hasattr(os, "RTLD_NOLOAD"):
        pytest.skip("no RTLD_NOLOAD on this platform: numpy's OpenBLAS cannot be looked up")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT], cwd=REPO, env=env,
        capture_output=True, text=True, check=True,
    )
    if result.stdout.strip() == "none":
        pytest.skip("numpy's BLAS is not a bundled OpenBLAS this test can find")
    before, after = map(int, result.stdout.split())
    assert before >= 1
    assert after == 1


_HEAP_SCRIPT = """
import ctypes, sys
sys.path.insert(0, "src")
import numpy as np
from repro.utils.blas import release_free_heap

# free() trims a free heap top by itself once it passes glibc's trim
# threshold.  Where the blocks below come to border the top (a pin placed in
# a hole that importing the package left), it would trim them before the
# measurement, and how much of the heap stays resident would hang on the
# import's heap layout.  A threshold above the heap's size, as set-up's
# freed mappings raise it in the program, leaves every freed page to
# release_free_heap; 100 KB blocks stay below the mapping threshold.
try:
    libc = ctypes.CDLL("libc.so.6")
    libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    libc.mallopt(-3, 1 << 20)  # M_MMAP_THRESHOLD
except (OSError, AttributeError):
    pass

def resident_mb():
    with open("/proc/self/status") as status:
        line = next(line for line in status if line.startswith("VmRSS"))
    return int(line.split()[1]) / 1024

# 100 KB blocks (heap, below glibc's first mapping threshold), each followed
# by a small block that stays: freed, they are holes glibc never trims.
blocks, pins = [], []
for _ in range(40):
    blocks.append(np.ones(12_800))
    pins.append(np.ones(2_000))
del blocks
before = resident_mb()
trimmed = release_free_heap()
print(int(trimmed), before - resident_mb())
"""


def test_release_free_heap_returns_freed_pages():
    if not sys.platform.startswith("linux"):
        pytest.skip("malloc_trim is glibc's")
    result = subprocess.run(
        [sys.executable, "-c", _HEAP_SCRIPT], cwd=REPO,
        capture_output=True, text=True, check=True,
    )
    trimmed, released_mb = result.stdout.split()
    if trimmed == "0":
        pytest.skip("this C library has no malloc_trim")
    assert float(released_mb) >= 2.0
