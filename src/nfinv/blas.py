"""The program's cores: its own worker threads, and the OpenBLAS pools
bundled with numpy and scipy.

The program splits its independent work over the cores itself
(``_split``): the DC solve's columns (``nfinv.dcr``), the network's
forward rows, its weight gradient beside the backward propagation, and
the row blocks of the SVD's Gram matrix (``nfinv.neural_field``).  One
pool of cores - 1 threads (``_workers``) serves them all.  No split cuts
a sum, so its results do not depend on the core count.

numpy and scipy wheels each bundle an OpenBLAS with its own pool of
nproc threads.  The program runs both pools at one thread wherever it
computes: ``one_thread()`` holds them on ``nfs_invert``,
``conventional_invert`` and the SVD analysis
(``nfinv.svd_analysis.analyze_trained_network``), the one call that
``runner.run_case`` and ``nfinv svd`` both make.  Two reasons:
- the bits: numpy's 2-thread ``x.T @ d`` over the cells rounds
  differently from its 1-thread one at some row counts, so the weight
  gradient, the SVD's Gram matrix and its Ritz products would depend on
  the pool size.  Held, every output is the same at any core count and
  any pool size;
- the cores: after a call that wakes a pool, its workers spin for a while
  before they sleep and hold cores that the program's own split work
  needs.  A whole ``dcr-gn`` run used 2.0 CPU-seconds per wall-second with
  numpy's worker left spinning and ~1.0 with it held; on ``tomo-nfs`` (2
  cores) ARPACK's small calls on scipy's pool, alternating with numpy's
  products, slowed the next network ``rmatmat`` from 75-93 ms to
  128-188 ms.
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


# the wheel that bundles each OpenBLAS: its file stem and the suffix of its
# pool-size calls (numpy's build has 64-bit ints and ``64_`` symbols)
_BUNDLED = {"numpy": ("scipy_openblas64_", "64_"),
            "scipy": ("scipy_openblas", "")}


@cache
def _openblas(package: str) -> ctypes.CDLL | None:
    """The OpenBLAS bundled in ``<package>.libs``, with typed pool-size
    calls ``pool_size()`` and ``set_pool_size(n)``, or None where this build
    has none."""
    stem, suffix = _BUNDLED[package]
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


@contextlib.contextmanager
def one_thread():
    """Run numpy's and scipy's OpenBLAS pools at one thread inside the
    block (a decorator too) and restore each pool's size on exit; a
    library this build does not bundle is left alone."""
    libs = [lib for lib in map(_openblas, _BUNDLED) if lib is not None]
    sizes = [lib.pool_size() for lib in libs]
    for lib in libs:
        lib.set_pool_size(1)
    try:
        yield
    finally:
        for lib, n in zip(libs, sizes):
            lib.set_pool_size(n)
