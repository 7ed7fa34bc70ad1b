"""Thread-pool control for scipy's bundled OpenBLAS.

numpy and scipy wheels each bundle an OpenBLAS with its own pool of
nproc threads.  Code that alternates many small scipy BLAS calls with
numpy's large GEMMs (ARPACK's Lanczos steps between the network's
Jacobian products) wakes scipy's workers while numpy's are still
spinning, which oversubscribes the cores.  ``scipy_blas_one_thread``
runs scipy's pool at one thread around such a block; numpy's pool is
left alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
from functools import cache

import scipy


@cache
def scipy_openblas() -> ctypes.CDLL | None:
    """scipy's bundled OpenBLAS, or None where this build has none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)),
                        "scipy.libs")
    for path in sorted(glob.glob(os.path.join(libs,
                                              "libscipy_openblas-*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads
            put = lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return lib
    return None


@contextlib.contextmanager
def scipy_blas_one_thread():
    """Run scipy's OpenBLAS at one thread inside the block.

    On ``tomo-nfs`` (2 cores), after ARPACK on the shared pools the next
    network ``rmatmat`` took 128-188 ms against 75-93 ms run alone.  The
    saved pool size is restored on exit; where scipy's OpenBLAS is not
    found the block runs unchanged.
    """
    lib = scipy_openblas()
    if lib is None:
        yield
        return
    n = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads(n)
