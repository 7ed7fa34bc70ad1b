"""Truncated SVD of the network weight Jacobian and map exports.

The left-singular vectors live on the model grid; after a converged
inversion their maps show what basis the reparameterization has built for
the model.  Exact mode uses a dense LAPACK SVD; randomized mode is a
Gaussian-sketch range finder with power iterations that only needs
the batched products J @ X and J.T @ X, so it also covers Jacobians too
large to materialize.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from nfinv.errors import CapacityError
from nfinv.mesh import write_grid_csv
from nfinv.neural_field import JacobianOperator, Mlp, weight_jacobian


@dataclass
class SvdResult:
    """Top-k singular triplets, values descending, plus a method record."""

    values: np.ndarray            # (k,)
    U: np.ndarray                 # (n_cells, k)
    V: np.ndarray | None          # (n_params, k) or None
    method: dict

    @property
    def k(self) -> int:
        return len(self.values)

    def decay_ratio(self, i: int = 0, j: int = 9) -> float:
        """lambda_{i+1} / lambda_{j+1} of the retained spectrum."""
        if j >= self.k:
            raise ValueError(f"need at least {j + 1} singular values")
        return float(self.values[i] / self.values[j])


def _fix_signs(U: np.ndarray, V: np.ndarray | None):
    # SVD sign ambiguity: make each U column's largest-magnitude entry
    # positive so exported maps are regression-stable
    for i in range(U.shape[1]):
        j = int(np.argmax(np.abs(U[:, i])))
        if U[j, i] < 0:
            U[:, i] = -U[:, i]
            if V is not None:
                V[:, i] = -V[:, i]
    return U, V


def truncated_svd(J, k: int, mode: str = "exact", oversample: int = 10,
                  power_iters: int = 2, seed: int = 0,
                  keep_v: bool = True) -> SvdResult:
    """Top-k singular triplets of a matrix or a matmat/rmatmat operator.

    exact: dense SVD (requires an ndarray).
    randomized: Gaussian sketch with ``oversample`` extra columns and
    ``power_iters`` QR-stabilized power iterations; deterministic per seed.
    """
    shape = J.shape
    if not 1 <= k <= min(shape):
        raise ValueError(f"k must lie in [1, {min(shape)}], got {k}")

    if mode == "exact":
        if not isinstance(J, np.ndarray):
            raise ValueError("exact mode needs a dense matrix; use "
                             "mode='randomized' for operators")
        U, s, Vt = np.linalg.svd(J, full_matrices=False)
        U, V = U[:, :k].copy(), Vt[:k].T.copy()
        s = s[:k].copy()
    elif mode == "randomized":
        if isinstance(J, np.ndarray):
            matmat, rmatmat = J.__matmul__, J.T.__matmul__
        else:
            matmat, rmatmat = J.matmat, J.rmatmat
        rng = np.random.default_rng(seed)
        n, p = shape
        r = min(k + oversample, min(shape))
        # the (p, r) sketch is released as soon as the first product is taken
        Q = np.linalg.qr(matmat(rng.standard_normal((p, r))))[0]
        for _ in range(power_iters):
            Q = np.linalg.qr(rmatmat(Q))[0]
            Q = np.linalg.qr(matmat(Q))[0]
        B = rmatmat(Q).T  # (r, p)
        Ub, s, Vt = np.linalg.svd(B, full_matrices=False)
        U = (Q @ Ub)[:, :k]
        V = Vt[:k].T.copy()
        s = s[:k].copy()
    else:
        raise ValueError(f"unknown mode {mode!r}")

    U, V = _fix_signs(U, V)
    if not keep_v:
        V = None
    return SvdResult(values=s, U=U, V=V, method={
        "mode": mode, "k": k, "oversample": oversample,
        "power_iters": power_iters, "seed": seed,
    })


def analyze_trained_network(mlp: Mlp, Z, k: int, grid_shape: tuple[int, int],
                            out_dir=None, mode: str = "auto",
                            seed: int = 0, max_bytes: int = 2 ** 30,
                            dx: float = 1.0, dz: float = 1.0) -> SvdResult:
    """SVD of d(model)/d(weights) for a trained network, with map exports.

    ``grid_shape`` is (W, H) = (columns, rows) of the core grid.  mode
    'auto' takes the dense path when the Jacobian fits the byte budget and
    the randomized matrix-free path otherwise.  With ``out_dir`` set,
    writes spectrum.csv, one grid CSV per U column, rendered heatmaps and
    a sidecar manifest with the method record.
    """
    W, H = grid_shape
    n_cells = W * H
    if mode not in ("auto", "exact", "randomized"):
        raise ValueError(f"unknown mode {mode!r}")
    dense_fits = n_cells * mlp.param_count * 8 <= max_bytes
    if mode == "auto":
        mode = "exact" if dense_fits else "randomized"
    if mode == "exact":
        if not dense_fits:
            raise CapacityError(
                f"dense Jacobian ({n_cells} x {mlp.param_count}) exceeds "
                f"{max_bytes} bytes; use mode='randomized'")
        J = weight_jacobian(mlp, Z, max_bytes=max_bytes)
    else:
        J = JacobianOperator(mlp, Z)
    result = truncated_svd(J, k, mode=mode, seed=seed, keep_v=False)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "spectrum.csv"), "w") as f:
            f.write("index,singular_value\n")
            for i, v in enumerate(result.values):
                f.write(f"{i},{float(v)!r}\n")
        from nfinv.render import render_heatmap
        for i in range(result.k):
            grid = result.U[:, i]
            csv_path = os.path.join(out_dir, f"u_{i:03d}.csv")
            write_grid_csv(csv_path, grid, nx=W, nz=H, dx=dx, dz=dz)
            render_heatmap(csv_path, os.path.join(out_dir, f"u_{i:03d}.png"))
        sidecar = dict(result.method)
        sidecar["grid_shape"] = [W, H]
        sidecar["param_count"] = mlp.param_count
        if result.k >= 10:
            sidecar["decay_ratio_1_10"] = result.decay_ratio(0, 9)
        with open(os.path.join(out_dir, "svd_manifest.json"), "w") as f:
            json.dump(sidecar, f, indent=2, sort_keys=True)
    return result
