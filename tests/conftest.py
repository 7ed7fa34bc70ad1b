import sys

import pytest

from nfinv import blas


@pytest.fixture
def blas_pools():
    """numpy's and scipy's bundled OpenBLAS with their pools at 2 threads
    for the test, then as they were."""
    libs = [blas._openblas(package) for package in ("numpy", "scipy")]
    if None in libs:
        pytest.skip("a bundled OpenBLAS was not found")
    sizes = [lib.pool_size() for lib in libs]
    for lib in libs:
        lib.set_pool_size(2)
    yield libs
    for lib, n in zip(libs, sizes):
        lib.set_pool_size(n)


@pytest.fixture
def thread_stress(monkeypatch):
    """A fresh pool of 7 worker threads (8 "cores") switching as often as
    the interpreter allows: more threads than cores, for race checks."""
    blas._workers().shutdown(wait=True)
    blas._workers.cache_clear()
    monkeypatch.setattr(blas, "_cores", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)
    blas._workers().shutdown(wait=True)
    blas._workers.cache_clear()
