import pytest

from nfinv import blas


@pytest.fixture
def scipy_blas():
    """scipy's OpenBLAS with its pool at 2 threads for the test."""
    lib = blas.scipy_openblas()
    if lib is None:
        pytest.skip("scipy's bundled OpenBLAS not found")
    n = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(2)
    yield lib
    lib.scipy_openblas_set_num_threads(n)
