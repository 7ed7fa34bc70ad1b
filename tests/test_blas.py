import threading
import warnings

import numpy as np
import pytest

from nfinv import blas


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

