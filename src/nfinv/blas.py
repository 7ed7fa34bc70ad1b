"""Thread-pool control for the OpenBLAS builds bundled with numpy and scipy.

numpy and scipy wheels each bundle an OpenBLAS with its own pool of
nproc threads.  After a call that wakes a pool, its workers spin for a
while before they sleep, and a spinning pool holds cores that other work
could use:
- code that alternates many small scipy BLAS calls with numpy's large
  GEMMs (ARPACK's Lanczos steps between the network's Jacobian products)
  wakes scipy's workers while numpy's are still spinning, which
  oversubscribes the cores; ``scipy_blas_one_thread`` runs scipy's pool at
  one thread around such a block;
- ``conventional_invert``'s small numpy products wake numpy's worker,
  which then spins on the core that the DC layer's split solve and
  Jacobian (``nfinv.dcr``) run on; ``numpy_blas_one_thread`` runs numpy's
  pool at one thread around it.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import importlib
import os
from functools import cache


@cache
def _openblas(package: str, stem: str, suffix: str) -> ctypes.CDLL | None:
    """The OpenBLAS in ``<package>.libs`` with its typed pool-size calls
    ``scipy_openblas_{get,set}_num_threads<suffix>``, or None where this
    build has none."""
    root = os.path.dirname(importlib.import_module(package).__path__[0])
    for path in sorted(glob.glob(os.path.join(root, f"{package}.libs",
                                              f"lib{stem}-*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        lib.pool_size, lib.set_pool_size = get, put
        return lib
    return None


def scipy_openblas() -> ctypes.CDLL | None:
    """scipy's bundled OpenBLAS (32-bit LAPACK ints), or None."""
    return _openblas("scipy", "scipy_openblas", "")


def numpy_openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS (64-bit ints, ``64_`` symbols), or None."""
    return _openblas("numpy", "scipy_openblas64_", "64_")


@contextlib.contextmanager
def _one_thread(find):
    """Run the pool of the library ``find()`` returns at one thread inside
    the block and restore its size on exit; where ``find()`` returns None
    the block runs unchanged."""
    lib = find()
    if lib is None:
        yield
        return
    n = lib.pool_size()
    lib.set_pool_size(1)
    try:
        yield
    finally:
        lib.set_pool_size(n)


def scipy_blas_one_thread():
    """Run scipy's OpenBLAS at one thread inside the block.

    On ``tomo-nfs`` (2 cores), after ARPACK on the shared pools the next
    network ``rmatmat`` took 128-188 ms against 75-93 ms run alone.
    """
    return _one_thread(scipy_openblas)


def numpy_blas_one_thread():
    """Run numpy's OpenBLAS at one thread inside the block (a decorator too).

    A whole ``dcr-gn`` run (2 cores) used 2.0 CPU-seconds per wall-second
    with numpy's worker left spinning and ~1.0 with it held.
    """
    return _one_thread(numpy_openblas)
