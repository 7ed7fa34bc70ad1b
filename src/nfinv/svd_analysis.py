"""Truncated SVD of the network weight Jacobian and map exports.

The left-singular vectors live on the model grid; after a converged
inversion their maps show what basis the reparameterization has built for
the model.  ``truncated_svd`` is exact: it takes the top-k eigenvectors Q
of the (n_cells, n_cells) Gram matrix J J^T, the network's empirical
neural tangent kernel, then one Rayleigh-Ritz step (an SVD of Q^T J)
gives the singular values and both sets of singular vectors.  Only G's
lower triangle is held, packed by rows (n_cells (n_cells + 1) / 2
doubles), and ARPACK's products with it are BLAS's packed ``dspmv``.  For
a network the triangle is built on every core and J is never formed, so
every shipped grid fits the byte budget.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg.blas import dspmv
from scipy.sparse.linalg import LinearOperator, eigsh

from nfinv.blas import one_thread
from nfinv.errors import MAX_BYTES, CapacityError, SolverError
from nfinv.mesh import TensorMesh, write_grid_csv
from nfinv.neural_field import JacobianOperator, Mlp


def check_svd_capacity(n_cells: int, n_weights: int, k: int) -> None:
    """Refuse a top-k SVD of an (n_cells, n_weights) Jacobian that
    ``truncated_svd`` cannot compute: ValueError unless
    1 <= k <= min(n_cells - 1, n_weights) (ARPACK finds fewer eigenpairs
    than the Gram matrix has rows), CapacityError when the whole
    n_cells^2 Gram matrix would exceed the byte budget.  Only its packed
    lower triangle is held, so the bound is 2x conservative; it is kept so
    that the grids it admits stay as they were.
    """
    if not 1 <= k <= min(n_cells - 1, n_weights):
        raise ValueError(f"must lie in [1, {min(n_cells - 1, n_weights)}], "
                         f"got {k}")
    if n_cells * n_cells * 8 > MAX_BYTES:
        raise CapacityError(f"the SVD's {n_cells}^2 Gram matrix exceeds "
                            f"{MAX_BYTES} bytes")


@dataclass
class SvdResult:
    """Top-k singular triplets, values descending."""

    values: np.ndarray            # (k,)
    U: np.ndarray                 # (n_cells, k)
    V: np.ndarray                 # (n_params, k)

    @property
    def k(self) -> int:
        return len(self.values)


def _fix_signs(U: np.ndarray, V: np.ndarray):
    # SVD sign ambiguity: make each U column's largest-magnitude entry
    # positive so exported maps are regression-stable
    for i in range(U.shape[1]):
        j = int(np.argmax(np.abs(U[:, i])))
        if U[j, i] < 0:
            U[:, i] = -U[:, i]
            V[:, i] = -V[:, i]
    return U, V


def truncated_svd(J, k: int) -> SvdResult:
    """Top-k singular triplets of a matrix or a :class:`JacobianOperator`.

    Raises as ``check_svd_capacity`` does for k and the Gram matrix size,
    and SolverError when the Gram matrix holds a non-finite entry (a
    network whose model overflows), before ARPACK sees it.
    """
    n = J.shape[0]
    check_svd_capacity(n, J.shape[1], k)

    dense = isinstance(J, np.ndarray)
    # G's lower triangle packed by rows, which BLAS's packed products read
    # as the upper triangle packed by columns (lower=0)
    ap = (J @ J.T)[np.tri(n, dtype=bool)] if dense else J.gram()
    if not np.isfinite(ap).all():
        raise SolverError("the SVD's Gram matrix holds a non-finite entry")
    # a fixed generic start vector: the all-ones vector is orthogonal to
    # every eigenvector that is odd under a symmetry of G, and Lanczos
    # started there would never find those
    v0 = np.random.default_rng(0).standard_normal(n)
    G = LinearOperator((n, n), matvec=partial(dspmv, n, 1.0, ap, lower=0),
                       dtype=float)
    Q = eigsh(G, k=k, which="LA", tol=0, v0=v0)[1]
    del G, ap  # the triangle; freed before the Ritz products allocate
    # Rayleigh-Ritz: sigma from Q^T J rather than sqrt of the eigenvalues,
    # which loses half the digits of the small ones
    B = (J.T @ Q if dense else J.rmatmat(Q)).T
    W, s, Vt = np.linalg.svd(B, full_matrices=False)
    U, V = _fix_signs(Q @ W, Vt.T)
    return SvdResult(values=s, U=U, V=V)


@one_thread()
def analyze_trained_network(mlp: Mlp, Z, k: int, mesh: TensorMesh,
                            out_dir=None) -> SvdResult:
    """SVD of d(model)/d(weights) for a trained network, with map exports.

    ``Z`` holds the encoded core cells of ``mesh``.  With ``out_dir`` set,
    writes spectrum.csv, one grid CSV and one rendered heatmap per U
    column, and a sidecar manifest.  The analysis holds the BLAS pools at
    one thread (``nfinv.blas.one_thread``).
    """
    result = truncated_svd(JacobianOperator(mlp, Z), k)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "spectrum.csv"), "w",
                  newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["index", "singular_value"])
            w.writerows(enumerate(result.values.tolist()))
        # looked up per call, so a wrapper on render.render_heatmap sees it
        from nfinv.render import render_heatmap
        for i in range(result.k):
            grid = result.U[:, i].reshape(mesh.nz_core, mesh.nx_core)
            stem = os.path.join(out_dir, f"u_{i:03d}")
            write_grid_csv(f"{stem}.csv", grid, nx=mesh.nx_core,
                           nz=mesh.nz_core, dx=mesh.dx_core, dz=mesh.dz_core)
            render_heatmap(grid, f"{stem}.png")
        sidecar = {"k": result.k, "grid_shape": [mesh.nx_core, mesh.nz_core],
                   "param_count": mlp.param_count}
        if result.k >= 10:
            sidecar["decay_ratio_1_10"] = result.values[0] / result.values[9]
        with open(os.path.join(out_dir, "svd_manifest.json"), "w") as f:
            json.dump(sidecar, f, indent=2, sort_keys=True)
    return result
