"""The program's cores: its own worker threads, and the OpenBLAS pools
bundled with numpy and scipy.

The program splits its independent work over the cores itself
(``_split``): the DC solve's columns (``nfinv.dcr``), the network's
forward rows, and its weight gradient beside the backward propagation
(``nfinv.neural_field``).  One pool of cores - 1 threads (``_workers``)
serves them all.  No split cuts a sum, so its results do not depend on
the core count.

numpy and scipy wheels each bundle an OpenBLAS with its own pool of
nproc threads.  After a call that wakes a pool, its workers spin for a
while before they sleep, and a spinning pool holds cores that other work
could use.  ``one_thread(lib)`` runs a pool at one thread around a block:
- around ARPACK in the SVD, ``one_thread(scipy_openblas())``: its small
  scipy BLAS calls alternate with numpy's large GEMMs (the network's
  Jacobian products) and would wake scipy's workers while numpy's are
  still spinning, which oversubscribes the cores;
- on both inversion drivers, ``one_thread(numpy_openblas())``: the cores
  go to the program's own split work, and numpy's worker does not spin on
  them.  It also fixes the bits: numpy's 2-thread ``x.T @ d`` over the
  cells rounds differently from its 1-thread one at some row counts.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import glob
import importlib
import os
from concurrent.futures import ThreadPoolExecutor, wait
from functools import cache


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@cache
def _workers() -> ThreadPoolExecutor:
    """The program's threads: cores - 1 of them, started on first use."""
    return ThreadPoolExecutor(max(_cores() - 1, 1),
                              thread_name_prefix="nfinv")


def _split(work, n: int, least: int = 1) -> None:
    """``work(part)`` over contiguous parts of n items, one part per core.

    Part i ends at item ceil(n (i + 1) / k) of k parts, each of ``least``
    items or more.  The caller runs the first part while the worker
    threads run the others, so with one core nothing is started.  Each
    worker part runs in a copy of the caller's context, so it keeps the
    caller's numpy error state (``np.errstate`` is a context variable).  An
    exception raised in any part is raised here once every part has
    finished.
    """
    k = max(min(_cores(), n // least), 1)
    cuts = [-(-n * i // k) for i in range(k + 1)]
    parts = [slice(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])
             if lo < hi] or [slice(0, n)]
    futures = [_workers().submit(contextvars.copy_context().run, work, p)
               for p in parts[1:]]
    try:
        work(parts[0])
    finally:
        wait(futures)
    for f in futures:
        f.result()


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
def one_thread(lib: ctypes.CDLL | None):
    """Run ``lib``'s pool at one thread inside the block (a decorator too)
    and restore its size on exit; with no library (None) the block runs
    unchanged.

    On ``tomo-nfs`` (2 cores), after ARPACK on the shared pools the next
    network ``rmatmat`` took 128-188 ms against 75-93 ms with scipy's pool
    held.  A whole ``dcr-gn`` run used 2.0 CPU-seconds per wall-second with
    numpy's worker left spinning and ~1.0 with it held.
    """
    if lib is None:
        yield
        return
    n = lib.pool_size()
    lib.set_pool_size(1)
    try:
        yield
    finally:
        lib.set_pool_size(n)
