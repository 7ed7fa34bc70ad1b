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
from dataclasses import dataclass, field

import numpy as np

from nfinv.mesh import CoreGrid

KINDS = ("identity", "basic", "linear", "gaussian")


@dataclass(frozen=True)
class EncodingConfig:
    """Configuration of the coordinate transform.

    kind       one of identity | basic | linear | gaussian
    m          frequency count for the linear kind (k_i = i/2, i = 1..m)
    b_rows     number of random frequency rows for the gaussian kind
    b_std      standard deviation used to sample B
    seed       RNG seed for B; B is sampled once here and never resampled
    input_dim  coordinate dimension (2 for the 2D meshes in this package)
    """

    kind: str = "identity"
    m: int = 8
    b_rows: int = 128
    b_std: float = 0.5
    seed: int = 0
    input_dim: int = 2
    b_matrix: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown encoding kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.kind == "linear" and self.m < 1:
            raise ValueError(f"linear encoding needs m >= 1, got {self.m}")
        if self.kind == "gaussian":
            if self.b_rows <= 0:
                raise ValueError(f"gaussian encoding needs b_rows > 0, "
                                 f"got {self.b_rows}")
            if self.b_matrix is None:
                rng = np.random.default_rng(self.seed)
                b = rng.normal(0.0, self.b_std,
                               size=(self.b_rows, self.input_dim))
                object.__setattr__(self, "b_matrix", b)
            self.b_matrix.setflags(write=False)


@dataclass(frozen=True)
class EncodedInput:
    """Precomputed feature matrix Z; row i encodes active-cell center i."""

    Z: np.ndarray
    grid: CoreGrid | None = None

    def __post_init__(self):
        self.Z.setflags(write=False)

    @property
    def n_points(self) -> int:
        return self.Z.shape[0]

    @property
    def dim(self) -> int:
        return self.Z.shape[1]


def output_dim(config: EncodingConfig, input_dim: int | None = None) -> int:
    """Feature dimension h produced by ``encode`` for the given input."""
    w = config.input_dim if input_dim is None else input_dim
    if w < 1:
        raise ValueError("input_dim must be >= 1")
    if config.kind == "identity":
        return w
    if config.kind == "basic":
        return 2 * w
    if config.kind == "linear":
        return 2 * config.m * w
    return 2 * config.b_rows  # gaussian: independent of w


def encode(config: EncodingConfig, coords: CoreGrid | np.ndarray) -> EncodedInput:
    """Apply the configured transform to every coordinate row.

    ``coords`` is a CoreGrid or an (n, input_dim) array of normalized
    coordinates.  Deterministic: identical (config, seed, coords) give a
    bit-identical Z.
    """
    grid = coords if isinstance(coords, CoreGrid) else None
    x = coords.centers if grid is not None else np.asarray(coords, dtype=float)
    if x.ndim != 2 or x.shape[1] != config.input_dim:
        raise ValueError(f"coords must have shape (n, {config.input_dim}), "
                         f"got {x.shape}")

    if config.kind == "identity":
        z = x.copy()
    elif config.kind == "basic":
        p = 2.0 * np.pi * x
        z = np.hstack([np.cos(p), np.sin(p)])
    elif config.kind == "linear":
        blocks = []
        for i in range(1, config.m + 1):
            p = 2.0 * np.pi * (i / 2.0) * x
            blocks.append(np.cos(p))
            blocks.append(np.sin(p))
        z = np.hstack(blocks)
    else:  # gaussian
        p = 2.0 * np.pi * (x @ config.b_matrix.T)
        z = np.hstack([np.cos(p), np.sin(p)])
    return EncodedInput(Z=z, grid=grid)


def write_b_matrix_csv(config: EncodingConfig, path) -> None:
    """Dump the gaussian frequency matrix B for reproducibility audits."""
    if config.kind != "gaussian":
        raise ValueError("only the gaussian kind has a B matrix")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        for row in config.b_matrix:
            w.writerow([repr(float(v)) for v in row])
