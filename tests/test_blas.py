import threading
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from nfinv import blas, svd_analysis
from nfinv.errors import SolverError
from nfinv.inversion import conventional_invert, nfs_invert
from nfinv.mesh import build_tomo_mesh
from nfinv.neural_field import init_kaiming


def overflow_in_the_second_half(monkeypatch, cores):
    """Square 8 numbers over ``cores`` parts; only the last 4 overflow.
    Returns the threads that ran an overflowing part."""
    monkeypatch.setattr(blas, "_cores", lambda: cores)
    x = np.array([1.0] * 4 + [1e300] * 4)
    out = np.empty_like(x)
    overflowed = []

    def work(part):
        if np.any(x[part] > 1.0):
            overflowed.append(threading.current_thread())
        np.multiply(x[part], x[part], out=out[part])

    blas._split(work, len(x))
    assert np.array_equal(out[:4], np.ones(4))
    assert np.all(np.isinf(out[4:]))
    return overflowed


@pytest.mark.parametrize("cores", [1, 2])
def test_worker_part_keeps_the_callers_error_state(cores, monkeypatch):
    # np.errstate is a context variable, which a worker thread does not
    # inherit on its own
    with np.errstate(over="ignore"):
        ran = overflow_in_the_second_half(monkeypatch, cores)
    in_worker = ran[0] is not threading.main_thread()
    assert in_worker == (cores > 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning,
                           match="^overflow encountered in multiply$"):
            overflow_in_the_second_half(monkeypatch, cores)


@pytest.mark.parametrize("n, cores, sizes", [
    (5, 3, [3, 2]), (3, 2, [3]), (4, 2, [2, 2]), (9, 3, [3, 3, 3]),
    (1, 2, [1]), (0, 2, [0])])
def test_parts_hold_at_least_the_least_items(n, cores, sizes, monkeypatch):
    monkeypatch.setattr(blas, "_cores", lambda: cores)
    parts = []
    blas._split(parts.append, n, least=2)
    assert [p.stop - p.start for p in parts] == sizes
    assert parts[0].start == 0 and parts[-1].stop == n


class ProbedSimulator:
    """predict = A m, calling ``probe()`` first."""

    def __init__(self, A, probe):
        self.A, self.probe = A, probe

    def predict(self, m):
        self.probe()
        return self.A @ m

    def gradient(self, cot):
        return self.A.T @ cot

    def sensitivity(self):
        return self.A


def small_net():
    return (init_kaiming((2, 6, 1), seed=3),
            np.random.default_rng(3).normal(size=(5, 2)))


def run_nfs(probe, monkeypatch):
    nfs_invert(ProbedSimulator(np.eye(5) + 0.1, probe), np.ones(5), 1.0,
               *small_net(), epochs=2)


def run_conventional(optimizer, probe, monkeypatch):
    conventional_invert(ProbedSimulator(np.eye(3) + 0.1, probe), np.ones(3),
                        1.0, np.zeros(3), optimizer=optimizer,
                        max_iterations=2)


def run_svd(probe, monkeypatch):
    def probed_eigsh(*args, **kwargs):
        probe()
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(svd_analysis, "eigsh", probed_eigsh)
    svd_analysis.analyze_trained_network(*small_net(), 2,
                                         build_tomo_mesh(5, 1, 1.0, 1.0))


ENTRY_POINTS = {
    "nfs_invert": run_nfs,
    "gradient_descent": partial(run_conventional, "gradient_descent"),
    "gauss_newton": partial(run_conventional, "gauss_newton"),
    "analyze_trained_network": run_svd,
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_entry_point_holds_both_pools_at_one_thread(entry, blas_pools,
                                                    monkeypatch):
    def sizes():
        return [lib.pool_size() for lib in blas_pools]

    inside = []

    def record():
        inside.append(sizes())

    def fail():
        raise SolverError("no solution")

    entry(record, monkeypatch)
    assert inside and all(s == [1, 1] for s in inside)
    assert sizes() == [2, 2]
    with pytest.raises(SolverError, match="no solution"):
        entry(fail, monkeypatch)
    assert sizes() == [2, 2]
    # a nested hold gives the outer hold back its size
    with blas.one_thread():
        entry(record, monkeypatch)
        assert sizes() == [1, 1]
    assert sizes() == [2, 2]
    # a library the lookup does not find is left as it is
    inside.clear()
    lookup = blas._openblas
    monkeypatch.setattr(blas, "_openblas",
                        lambda package: None if package == "numpy"
                        else lookup(package))
    entry(record, monkeypatch)
    assert inside and all(s == [2, 1] for s in inside)
    assert sizes() == [2, 2]
