"""2D tensor meshes with a uniform core and geometric padding.

Conventions used everywhere in this package:

* x increases to the right, z increases DOWNWARD from the surface (z = 0 at
  the top edge of the mesh).
* Cells are ordered row-major with x fastest: full-mesh cell index
  ``i = iz * nx_full + ix``, rows counted from the surface down.
* The core (active) region is the uniform part of the mesh.  Core vectors
  use the same row-major ordering restricted to active cells.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class TensorMesh:
    """Tensor-product cell grid: uniform core plus expanding padding.

    ``n_pad`` padding cells lie to the left, right and bottom of the core;
    the top is the ground surface.
    """

    dx_core: float
    dz_core: float
    nx_core: int
    nz_core: int
    n_pad: int
    cell_x_edges: np.ndarray
    cell_z_edges: np.ndarray

    def __post_init__(self):
        for arr in (self.cell_x_edges, self.cell_z_edges):
            arr.setflags(write=False)

    @property
    def nx_full(self) -> int:
        return len(self.cell_x_edges) - 1

    @property
    def nz_full(self) -> int:
        return len(self.cell_z_edges) - 1

    @property
    def n_cells(self) -> int:
        return self.nx_full * self.nz_full

    @property
    def n_active(self) -> int:
        return self.nx_core * self.nz_core

    @cached_property
    def x_widths(self) -> np.ndarray:
        return np.diff(self.cell_x_edges)

    @cached_property
    def z_widths(self) -> np.ndarray:
        return np.diff(self.cell_z_edges)

    @cached_property
    def x_centers(self) -> np.ndarray:
        return 0.5 * (self.cell_x_edges[:-1] + self.cell_x_edges[1:])

    @cached_property
    def z_centers(self) -> np.ndarray:
        return 0.5 * (self.cell_z_edges[:-1] + self.cell_z_edges[1:])

    @cached_property
    def active_indices(self) -> np.ndarray:
        """Full-mesh indices of the core cells, in core order."""
        cols = np.arange(self.n_pad, self.n_pad + self.nx_core)
        return (np.arange(self.nz_core)[:, None] * self.nx_full + cols).ravel()

    @property
    def core_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Centers of the core columns (x) and of the core rows (z)."""
        return (self.x_centers[self.n_pad:self.n_pad + self.nx_core],
                self.z_centers[:self.nz_core])

    @cached_property
    def faces(self) -> tuple[np.ndarray, ...]:
        """Cell faces for finite volumes, built once per mesh.

        Returns (fi, fj, area, di, dj, bc, b_area, b_dist): the interior
        faces between cells fi and fj with their area and the center-to-face
        distances on either side, then the boundary faces of cells bc on the
        left, right and bottom sides (the top is the ground surface) with
        their area and center-to-face distance.  Corner cells have two.
        """
        nx, nz = self.nx_full, self.nz_full
        wx, wz = self.x_widths, self.z_widths
        idx = np.arange(nx * nz).reshape(nz, nx)

        # x-oriented faces (neighbors in x), then z-oriented ones
        fi = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
        fj = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
        area = np.concatenate([np.repeat(wz, nx - 1), np.tile(wx, nz - 1)])
        di = np.concatenate([np.tile(wx[:-1] / 2, nz),
                             np.repeat(wz[:-1] / 2, nx)])
        dj = np.concatenate([np.tile(wx[1:] / 2, nz),
                             np.repeat(wz[1:] / 2, nx)])

        bc = np.concatenate([idx[:, 0], idx[:, -1], idx[-1, :]])
        b_area = np.concatenate([wz, wz, wx])
        b_dist = np.concatenate([np.full(nz, wx[0] / 2),
                                 np.full(nz, wx[-1] / 2),
                                 np.full(nx, wz[-1] / 2)])
        out = (fi, fj, area, di, dj, bc, b_area, b_dist)
        for arr in out:
            arr.setflags(write=False)
        return out

    @cached_property
    def band_pattern(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Band form of the FV operator, built once per mesh.

        Numbered z fastest when nz_full <= nx_full and x fastest otherwise,
        every cell's neighbours lie within kd = min(nx_full, nz_full) places,
        so L is a band matrix of half-bandwidth kd.  Returns (rank, slot,
        kd): each cell's place in that numbering, and the flat index in
        LAPACK's lower band storage (kd + 1 rows by n_cells columns,
        column-major) of the entries (fi, fi), (fj, fj), the lower one of
        (fi, fj) and (fj, fi) over the interior faces, then (bc, bc) over
        the boundary faces.
        """
        nx, nz = self.nx_full, self.nz_full
        kd = min(nx, nz)
        idx = np.arange(self.n_cells).reshape(nz, nx)
        rank = np.empty(self.n_cells, dtype=np.intp)
        rank[(idx.T if nz <= nx else idx).ravel()] = np.arange(self.n_cells)
        fi, fj, *_, bc, _, _ = self.faces
        ri, rj, rb = rank[fi], rank[fj], rank[bc]
        # entry (r, c), r >= c, is row r - c of band column c
        row = np.concatenate([ri, rj, np.maximum(ri, rj), rb])
        col = np.concatenate([ri, rj, np.minimum(ri, rj), rb])
        slot = col * (kd + 1) + (row - col)
        for arr in (rank, slot):
            arr.setflags(write=False)
        return rank, slot, kd

    @property
    def core_x_extent(self) -> tuple[float, float]:
        """(left, right) of the core region in meters."""
        return (float(self.cell_x_edges[self.n_pad]),
                float(self.cell_x_edges[self.n_pad + self.nx_core]))


def build_tomo_mesh(nx: int, nz: int, dx: float, dz: float) -> TensorMesh:
    """Uniform unpadded mesh for cross-hole tomography; all cells active."""
    _check_core_args(nx, nz, dx, dz)
    x_edges = np.arange(nx + 1, dtype=float) * dx
    z_edges = np.arange(nz + 1, dtype=float) * dz
    return TensorMesh(dx, dz, nx, nz, 0, x_edges, z_edges)


def build_dcr_mesh(nx_core: int, nz_core: int, dx: float, dz: float,
                   n_pad: int, pad_factor: float) -> TensorMesh:
    """Core mesh padded left/right/bottom with geometrically expanding cells.

    The core occupies x in [0, nx_core*dx], z in [0, nz_core*dz]; padding
    extends to negative x, beyond the right edge, and below the core.
    Padding cell k (counted outward from the core) has width
    ``dx * pad_factor**k``, or ``dz * pad_factor**k`` below the core.
    """
    _check_core_args(nx_core, nz_core, dx, dz)
    if n_pad < 0:
        raise ValueError(f"n_pad must be >= 0, got {n_pad}")
    if pad_factor < 1.0:
        raise ValueError(f"pad_factor must be >= 1, got {pad_factor}")

    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        pads_x = dx * pad_factor ** np.arange(1, n_pad + 1)
        pads_z = dz * pad_factor ** np.arange(1, n_pad + 1)
        widths_x = np.concatenate([pads_x[::-1], np.full(nx_core, dx),
                                   pads_x])
        widths_z = np.concatenate([np.full(nz_core, dz), pads_z])
        x_edges = np.concatenate([[0.0], np.cumsum(widths_x)]) - pads_x.sum()
        z_edges = np.concatenate([[0.0], np.cumsum(widths_z)])
    if not (np.all(np.isfinite(x_edges)) and np.all(np.isfinite(z_edges))):
        outer = max(pads_x[-1], pads_z[-1]) if n_pad else 0.0
        raise ValueError(f"cell edges overflow: the core is "
                         f"{nx_core * dx:.4g} m wide and the outermost "
                         f"padding cell max(dx, dz) * pad_factor**n_pad = "
                         f"{outer:.4g} m")
    return TensorMesh(dx, dz, nx_core, nz_core, n_pad, x_edges, z_edges)


def embed_core(mesh: TensorMesh, core_values: np.ndarray,
               background: float) -> np.ndarray:
    """Scatter core values to active cells; padding gets ``background``."""
    core_values = np.asarray(core_values, dtype=float)
    if core_values.shape != (mesh.n_active,):
        raise ValueError(
            f"expected {mesh.n_active} core values, got {core_values.shape}")
    full = np.full(mesh.n_cells, float(background))
    full[mesh.active_indices] = core_values
    return full


def normalized_centers(mesh: TensorMesh, lo: float, hi: float) -> np.ndarray:
    """Active-cell centers affinely mapped to [lo, hi] per axis.

    Returns shape (n_active, 2), columns (x, z), rows in core order.  Each
    axis is scaled independently so the smallest center maps to ``lo``
    and the largest to ``hi``.  A degenerate axis (single cell) maps to the
    midpoint (lo + hi) / 2.
    """
    if not hi > lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    xn, zn = (_affine_to(v, lo, hi) for v in mesh.core_centers)
    gx, gz = np.meshgrid(xn, zn)  # rows are z, columns are x
    return np.column_stack([gx.ravel(), gz.ravel()])


def _affine_to(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    span = v.max() - v.min()
    if span == 0.0:
        return np.full_like(v, 0.5 * (lo + hi))
    return lo + (v - v.min()) * (hi - lo) / span


def _check_core_args(nx: int, nz: int, dx: float, dz: float) -> None:
    if nx < 1 or nz < 1:
        raise ValueError(f"cell counts must be >= 1, got ({nx}, {nz})")
    if dx <= 0 or dz <= 0:
        raise ValueError(f"cell sizes must be > 0, got ({dx}, {dz})")


def write_grid_csv(path, values: np.ndarray, nx: int, nz: int,
                   dx: float, dz: float) -> None:
    """Write a core grid as CSV.

    Line 1 is the header ``nx,nz,dx,dz`` (values in that order); then nz
    rows of nx values, surface row first, x increasing left to right.
    """
    values = np.asarray(values, dtype=float).reshape(nz, nx)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([nx, nz, float(dx), float(dz)])
        w.writerows(values.tolist())


def read_grid_csv(path) -> tuple[np.ndarray, int, int, float, float]:
    """Read a grid written by :func:`write_grid_csv`.

    Returns (values flattened row-major, nx, nz, dx, dz); a malformed
    file or a non-finite value raises ValueError.
    """
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or len(rows[0]) != 4:
        raise ValueError("the first line must be the header nx,nz,dx,dz")
    nx, nz = int(rows[0][0]), int(rows[0][1])
    dx, dz = float(rows[0][2]), float(rows[0][3])
    data = np.array(rows[1:], dtype=float)
    if data.shape != (nz, nx):
        raise ValueError(f"grid body {data.shape} does not match header "
                         f"({nz} rows x {nx} cols)")
    if not np.all(np.isfinite(data)):
        raise ValueError("grid values must be finite")
    return data.ravel(), nx, nz, dx, dz
