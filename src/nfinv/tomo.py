"""Straight-ray cross-hole travel-time simulator.

Builds the sparse matrix A of per-cell ray-path lengths so predicted first
arrivals are t = A @ slowness.  Times are seconds internally; file formats
and noise specifications use milliseconds.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from nfinv.errors import GeometryError
from nfinv.mesh import TensorMesh

# crossing intervals shorter than this fraction of the ray are corner
# grazes and carry no length
_T_EPS = 1e-12


@dataclass(frozen=True)
class CrossholeSurvey:
    """Sources in the left borehole, receivers in the right one.

    Data ordering is source-major: datum index = i_src * n_rx + i_rx.
    """

    src_positions: np.ndarray  # (n_src, 2) of (x, z)
    rx_positions: np.ndarray   # (n_rx, 2)
    separation: float          # borehole separation (m)

    @property
    def n_data(self) -> int:
        return len(self.src_positions) * len(self.rx_positions)


@dataclass(frozen=True)
class RayMatrix:
    """Sparse path-length matrix; entry (i, j) is ray i's length in cell j."""

    A: sp.csr_matrix
    ray_lengths: np.ndarray

    @property
    def n_data(self) -> int:
        return self.A.shape[0]


def build_crosshole_survey(mesh: TensorMesh, spacing: float) -> CrossholeSurvey:
    """Evenly spaced sources/receivers on opposite vertical edges.

    ``spacing`` must divide the borehole depth; positions sit at the
    midpoints of the spacing intervals, so a depth of H meters with 1 m
    spacing gives H stations per borehole.
    """
    if spacing <= 0:
        raise ValueError(f"spacing must be > 0, got {spacing}")
    depth = float(mesh.cell_z_edges[-1] - mesh.cell_z_edges[0])
    if spacing > depth:
        raise ValueError(f"spacing {spacing} exceeds borehole depth {depth}")
    n = depth / spacing
    if abs(n - round(n)) > 1e-9:
        raise ValueError(f"spacing {spacing} does not divide depth {depth}")
    n = int(round(n))
    z0 = float(mesh.cell_z_edges[0])
    zs = z0 + (np.arange(n) + 0.5) * spacing
    x_left = float(mesh.cell_x_edges[0])
    x_right = float(mesh.cell_x_edges[-1])
    src = np.column_stack([np.full(n, x_left), zs])
    rx = np.column_stack([np.full(n, x_right), zs])
    return CrossholeSurvey(src, rx, x_right - x_left)


def build_ray_matrix(mesh: TensorMesh, survey: CrossholeSurvey) -> RayMatrix:
    """Assemble exact straight-ray cell-intersection lengths for all pairs.

    Parametric grid traversal over all rays at once: each ray's edge
    crossings t in (0, 1), sorted per ray together with 0 and 1, split it
    into sub-intervals, and each is attributed to the cell containing its
    midpoint.  Rays are source-major, as the data.
    """
    xe, ze = mesh.cell_x_edges, mesh.cell_z_edges
    n_rx = len(survey.rx_positions)
    p0 = np.repeat(survey.src_positions, n_rx, axis=0)
    p1 = np.tile(survey.rx_positions, (len(survey.src_positions), 1))
    d = p1 - p0
    lengths = np.hypot(d[:, 0], d[:, 1])
    traced = lengths != 0.0

    eps = 1e-12 * max(xe[-1] - xe[0], ze[-1] - ze[0])
    for p in (p0, p1):
        inside = ((xe[0] - eps <= p[:, 0]) & (p[:, 0] <= xe[-1] + eps)
                  & (ze[0] - eps <= p[:, 1]) & (p[:, 1] <= ze[-1] + eps))
        outside = traced & ~inside
        if np.any(outside):
            bad = p[np.argmax(outside)]
            raise GeometryError(f"ray endpoint {tuple(bad)} outside mesh")

    # crossings outside (0, 1), or along an axis the ray does not move on,
    # become 1.0: they sort to the end and add only empty intervals
    parts = [np.zeros((len(d), 1)), np.ones((len(d), 1))]
    for k, edges in ((0, xe), (1, ze)):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (edges - p0[:, k:k + 1]) / d[:, k:k + 1]
        parts.append(np.where((d[:, k:k + 1] != 0.0) & (t > 0.0) & (t < 1.0),
                              t, 1.0))
    ts = np.sort(np.hstack(parts), axis=1)

    seg = np.diff(ts, axis=1)
    keep = (seg > _T_EPS) & traced[:, None]
    rows = np.nonzero(keep)[0]
    tm = (ts[:, :-1] + 0.5 * seg)[keep]
    ix = np.searchsorted(xe, p0[rows, 0] + tm * d[rows, 0], side="right") - 1
    iz = np.searchsorted(ze, p0[rows, 1] + tm * d[rows, 1], side="right") - 1
    if (ix.min(initial=0) < 0 or iz.min(initial=0) < 0
            or ix.max(initial=0) >= mesh.nx_full
            or iz.max(initial=0) >= mesh.nz_full):
        raise GeometryError("ray leaves the mesh between its endpoints")
    A = sp.coo_matrix((seg[keep] * lengths[rows],
                       (rows, iz * mesh.nx_full + ix)),
                      shape=(len(d), mesh.n_cells)).tocsr()
    return RayMatrix(A=A, ray_lengths=lengths)


def tomo_predict(ray_matrix: RayMatrix, slowness: np.ndarray) -> np.ndarray:
    """First-arrival times (s) for a positive slowness model (s/m)."""
    slowness = np.asarray(slowness, dtype=float)
    if slowness.shape != (ray_matrix.A.shape[1],):
        raise ValueError(f"slowness length {slowness.shape} does not match "
                         f"{ray_matrix.A.shape[1]} cells")
    if np.any(slowness <= 0):
        raise ValueError("slowness must be positive everywhere")
    return ray_matrix.A @ slowness


class TomoSimulator:
    """Linear forward map and its adjoint for the inversion loop.

    Unlike :func:`tomo_predict` this does not enforce positivity: inversion
    iterates (tanh-head networks, unregularized descent) may wander through
    non-physical slowness values.
    """

    def __init__(self, ray_matrix: RayMatrix):
        self.ray_matrix = ray_matrix

    @property
    def n_data(self) -> int:
        return self.ray_matrix.n_data

    @property
    def n_model(self) -> int:
        return self.ray_matrix.A.shape[1]

    def predict(self, m: np.ndarray) -> np.ndarray:
        return self.ray_matrix.A @ m

    def gradient(self, cotangent: np.ndarray) -> np.ndarray:
        """Adjoint map: d(cotangent . data)/d(model) = A^T cotangent."""
        return self.ray_matrix.A.T @ cotangent

    def sensitivity(self):
        """The data Jacobian: the sparse ray-length matrix itself."""
        return self.ray_matrix.A


def write_tomo_data_csv(path, survey: CrossholeSurvey, t_obs_s: np.ndarray,
                        uncertainty_s: np.ndarray) -> None:
    """Columns: src_x, src_z, rx_x, rx_z, t_obs_ms, uncertainty_ms."""
    t_ms = np.asarray(t_obs_s) * 1e3
    u_ms = np.broadcast_to(np.asarray(uncertainty_s) * 1e3, t_ms.shape)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["src_x", "src_z", "rx_x", "rx_z", "t_obs_ms",
                    "uncertainty_ms"])
        i = 0
        for sx, sz in survey.src_positions:
            for rx, rz in survey.rx_positions:
                w.writerow([repr(float(sx)), repr(float(sz)),
                            repr(float(rx)), repr(float(rz)),
                            repr(float(t_ms[i])), repr(float(u_ms[i]))])
                i += 1
