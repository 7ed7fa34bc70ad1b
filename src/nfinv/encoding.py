"""Positional encodings lifting 2D coordinates into trigonometric features.

Row layout (fixed, all kinds): features are grouped per frequency, cosine
block before sine block.  For a coordinate vector x = (x1, .., xw) and
frequencies k1 < k2 < ..:

    [cos(2*pi*k1*x1), .., cos(2*pi*k1*xw), sin(2*pi*k1*x1), .., sin(2*pi*k1*xw),
     cos(2*pi*k2*x1), ..]

The gaussian kind uses the rows of a fixed random matrix B as frequencies,
giving [cos(2*pi*B@x), sin(2*pi*B@x)].
"""

from __future__ import annotations

import csv

import numpy as np


def gaussian_frequencies(b_rows: int, b_std: float, seed: int) -> np.ndarray:
    """The gaussian kind's (b_rows, 2) frequency matrix B, N(0, b_std^2)."""
    if b_rows < 1:
        raise ValueError(f"gaussian encoding needs b_rows > 0, got {b_rows}")
    return np.random.default_rng(seed).normal(0.0, b_std, size=(b_rows, 2))


def encode(coords: np.ndarray, kind: str, m: int | None = None,
           b: np.ndarray | None = None) -> np.ndarray:
    """Apply the transform ``kind`` to every coordinate row.

    ``kind`` is identity, basic, linear (frequencies k_i = i/2 for
    i = 1..m) or gaussian (the rows of ``b`` as frequencies).  ``coords``
    is an (n, 2) array of normalized coordinates.  Returns the read-only
    feature matrix Z; row i encodes coordinate row i.
    """
    x = np.asarray(coords, dtype=float)
    if x.ndim != 2 or x.shape[1] != 2:
        raise ValueError(f"coords must have shape (n, 2), got {x.shape}")

    if kind == "identity":
        z = x.copy()
    elif kind == "basic":
        p = 2.0 * np.pi * x
        z = np.hstack([np.cos(p), np.sin(p)])
    elif kind == "linear":
        blocks = []
        for i in range(1, m + 1):
            p = 2.0 * np.pi * (i / 2.0) * x
            blocks.append(np.cos(p))
            blocks.append(np.sin(p))
        z = np.hstack(blocks)
    elif kind == "gaussian":
        p = 2.0 * np.pi * (x @ b.T)
        z = np.hstack([np.cos(p), np.sin(p)])
    else:
        raise ValueError(f"unknown encoding kind {kind!r}")
    z.setflags(write=False)
    return z


def write_b_matrix_csv(b: np.ndarray, path) -> None:
    """Dump the gaussian frequency matrix B for reproducibility audits."""
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(b.tolist())
