import sys

import pytest

from nfinv import blas


def _pool_at_two_threads(lib, name):
    """``lib`` with its pool at 2 threads for the test, then as it was."""
    if lib is None:
        pytest.skip(f"{name}'s bundled OpenBLAS not found")
    n = lib.pool_size()
    lib.set_pool_size(2)
    yield lib
    lib.set_pool_size(n)


@pytest.fixture
def scipy_blas():
    """scipy's OpenBLAS with its pool at 2 threads for the test."""
    yield from _pool_at_two_threads(blas.scipy_openblas(), "scipy")


@pytest.fixture
def numpy_blas():
    """numpy's OpenBLAS with its pool at 2 threads for the test."""
    yield from _pool_at_two_threads(blas.numpy_openblas(), "numpy")


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
