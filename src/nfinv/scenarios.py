"""Synthetic true models, random-field backgrounds, and noise injection.

Case 1: square low-velocity block in a uniform background (slowness).
Case 2: elliptical target over a correlated random background (slowness).
Case 3: conductive dipping dike under a surface layer (log10 conductivity).
Case 4: the dike over a background whose conductivity decreases linearly
        with depth (log10 conductivity).

Geometry parameters the source material never pins down (block placement,
dike width, layer thickness, random-field statistics) are explicit
arguments with documented defaults.
"""

from __future__ import annotations

import numpy as np

from nfinv.errors import MAX_BYTES, CapacityError
from nfinv.mesh import TensorMesh


def gaussian_random_field(nx: int, nz: int, dx: float, dz: float, *,
                          variance: float, len_x: float, len_z: float,
                          seed: int) -> np.ndarray:
    """Mean-zero field on the core grid via FFT spectral synthesis.

    The covariance, cov(h) = variance * exp(-(hx/len_x)^2 - (hz/len_z)^2),
    is embedded on an enlarged torus (double the grid, at least six
    correlation lengths) so the crop carries no wraparound correlation;
    small negative eigenvalues of the embedding are clipped.
    Returns nx*nz values, row-major with x fastest.
    """
    if len_x <= 0 or len_z <= 0:
        raise ValueError("correlation lengths must be positive")
    if variance < 0:
        raise ValueError("variance must be non-negative")
    if variance == 0.0:
        return np.zeros(nx * nz)

    ex = max(2 * nx, nx + np.ceil(6 * len_x / dx))
    ez = max(2 * nz, nz + np.ceil(6 * len_z / dz))
    if ex * ez * 16 > MAX_BYTES:  # complex128 spectrum of the embedding
        raise CapacityError(f"the {ez:.4g} x {ex:.4g} embedding exceeds "
                            f"{MAX_BYTES} bytes")
    ex, ez = int(ex), int(ez)

    # torus distances on the embedding grid
    hx = np.arange(ex) * dx
    hx = np.minimum(hx, ex * dx - hx)
    hz = np.arange(ez) * dz
    hz = np.minimum(hz, ez * dz - hz)
    qx = (hx / len_x) ** 2
    qz = (hz / len_z) ** 2
    cov = variance * np.exp(-(qz[:, None] + qx[None, :]))

    spectrum = np.fft.fft2(cov).real
    spectrum = np.maximum(spectrum, 0.0)

    rng = np.random.default_rng(seed)
    n_tot = ex * ez
    eps = rng.standard_normal((ez, ex)) + 1j * rng.standard_normal((ez, ex))
    field = np.fft.ifft2(eps * np.sqrt(spectrum / n_tot)).real * n_tot
    return field[:nz, :nx].ravel()


def _core_center_grids(mesh: TensorMesh):
    xs, zs = mesh.core_centers
    return np.meshgrid(xs - mesh.core_x_extent[0], zs)  # x from core-left


def make_case1(mesh: TensorMesh, background_velocity: float = 1000.0,
               block_velocity: float = 200.0,
               block_center_frac: tuple[float, float] = (0.5, 0.35),
               block_side_frac: float = 0.375) -> np.ndarray:
    """Square slow block in a uniform background; returns slowness (s/m).

    Placement defaults are width/depth fractions of the core region; the
    side length is a fraction of the core width.
    """
    gx, gz = _core_center_grids(mesh)
    width = mesh.nx_core * mesh.dx_core
    depth = mesh.nz_core * mesh.dz_core
    cx = block_center_frac[0] * width
    cz = block_center_frac[1] * depth
    half = 0.5 * block_side_frac * width
    v = np.full(gx.shape, background_velocity)
    inside = (np.abs(gx - cx) <= half) & (np.abs(gz - cz) <= half)
    v[inside] = block_velocity
    return (1.0 / v).ravel()


def make_case2(mesh: TensorMesh, field: np.ndarray, cx_frac: float = 0.5,
               cz_frac: float = 0.4, rx_m: float = 12.0, rz_m: float = 20.0,
               velocity: float = 400.0, background_velocity: float = 1000.0,
               min_velocity: float = 50.0) -> np.ndarray:
    """Elliptical target over a correlated velocity background (slowness).

    ``field`` perturbs the background velocity additively, one value per
    core cell in ``gaussian_random_field``'s order.  The ellipse of
    semi-axes ``rx_m`` and ``rz_m`` is centered at width and depth
    fractions ``cx_frac`` and ``cz_frac`` of the core region.  Values are
    floored at ``min_velocity`` to keep slowness finite and positive.
    """
    gx, gz = _core_center_grids(mesh)
    width = mesh.nx_core * mesh.dx_core
    depth = mesh.nz_core * mesh.dz_core
    v = background_velocity + np.asarray(field).reshape(gz.shape)
    cx = cx_frac * width
    cz = cz_frac * depth
    inside = (((gx - cx) / rx_m) ** 2 + ((gz - cz) / rz_m) ** 2) <= 1.0
    v[inside] = velocity
    v = np.maximum(v, min_velocity)
    return (1.0 / v).ravel()


def _dike_mask(gx: np.ndarray, gz: np.ndarray, dip_angle_deg: float,
               x_top: float, z_top: float, z_bottom: float,
               width: float) -> np.ndarray:
    if not 0.0 < dip_angle_deg <= 90.0:
        raise ValueError(f"dip angle must be in (0, 90], got {dip_angle_deg}")
    dip = np.radians(dip_angle_deg)
    # center line walks +x with depth for dips below 90 degrees
    if dip_angle_deg == 90.0:
        x_center = np.full(gz.shape, x_top)
    else:
        x_center = x_top + (gz - z_top) / np.tan(dip)
    in_depth = (gz >= z_top) & (gz <= z_bottom)
    return in_depth & (np.abs(gx - x_center) <= width / 2)


def make_case3(mesh: TensorMesh, dip_angle_deg: float = 45.0,
               layer_thickness: float = 25.0,
               layer_sigma: float = 0.02,
               dike_sigma: float = 0.1,
               dike_depth: float = 125.0,
               dike_width: float = 50.0,
               dike_x_frac: float = 0.5,
               background_sigma: float = 0.01) -> np.ndarray:
    """Conductive dike under a surface layer; returns log10 conductivity.

    The dike runs from the layer base down to ``dike_depth`` at the given
    dip angle (degrees from horizontal; 90 is vertical).
    """
    gx, gz = _core_center_grids(mesh)
    width = mesh.nx_core * mesh.dx_core
    m = np.full(gx.shape, np.log10(background_sigma))
    dike = _dike_mask(gx, gz, dip_angle_deg, dike_x_frac * width,
                      layer_thickness, dike_depth, dike_width)
    m[dike] = np.log10(dike_sigma)
    m[gz < layer_thickness] = np.log10(layer_sigma)
    return m.ravel()


def make_case4(mesh: TensorMesh, dip_angle_deg: float = 45.0,
               sigma_top: float = 0.02, sigma_bottom: float = 0.001,
               dike_sigma: float = 0.1, dike_top: float = 25.0,
               dike_depth: float = 125.0, dike_width: float = 50.0,
               dike_x_frac: float = 0.5) -> np.ndarray:
    """Dike over a graded background; returns log10 conductivity.

    The background conductivity is linear in depth across core rows:
    the surface row sits at ``sigma_top``, the bottom core row at
    ``sigma_bottom``.
    """
    gx, gz = _core_center_grids(mesh)
    width = mesh.nx_core * mesh.dx_core
    nz = mesh.nz_core
    rows = np.arange(nz, dtype=float)
    frac = rows / (nz - 1) if nz > 1 else np.zeros(1)
    sigma_rows = sigma_top + (sigma_bottom - sigma_top) * frac
    m = np.log10(np.broadcast_to(sigma_rows[:, None], gx.shape)).copy()
    dike = _dike_mask(gx, gz, dip_angle_deg, dike_x_frac * width,
                      dike_top, dike_depth, dike_width)
    m[dike] = np.log10(dike_sigma)
    return m.ravel()


def add_noise(data: np.ndarray, uncertainty,
              seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded Gaussian noise plus the diagonal of W_d (1/uncertainty).

    ``uncertainty`` is the noise standard deviation in data units, one
    value for every datum or one per datum.
    """
    data = np.asarray(data, dtype=float)
    if not np.all(np.isfinite(data)):
        raise ValueError("data must be finite")
    unc = np.broadcast_to(np.asarray(uncertainty, dtype=float), data.shape)
    if not np.all(unc > 0):
        raise ValueError("uncertainties must be positive")
    rng = np.random.default_rng(seed)
    return data + rng.standard_normal(data.shape) * unc, 1.0 / unc
