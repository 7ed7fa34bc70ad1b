import json

import numpy as np
import pytest

from nfinv import svd_analysis
from nfinv.encoding import encode
from nfinv.errors import CapacityError
from nfinv.mesh import build_tomo_mesh, normalized_centers
from nfinv.neural_field import (
    JacobianOperator,
    init_kaiming,
    set_weights,
    weight_jacobian,
)
from nfinv.svd_analysis import analyze_trained_network, truncated_svd


class TestTruncatedSvd:
    def test_diagonal_matrix(self):
        J = np.diag([3.0, 2.0, 1.0])
        res = truncated_svd(J, k=2)
        assert np.allclose(res.values, [3.0, 2.0])
        assert np.allclose(np.abs(res.U), np.eye(3)[:, :2])

    def test_rank_one(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=12)
        v = rng.normal(size=7)
        res = truncated_svd(np.outer(u, v), k=2)
        assert res.values[0] == pytest.approx(
            np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)
        assert res.values[1] == pytest.approx(0.0, abs=1e-10)

    def test_matches_lapack_flat_spectrum(self):
        # iid Gaussian entries give a nearly flat spectrum: small gaps
        # between the Gram eigenvalues
        rng = np.random.default_rng(1)
        J = rng.normal(size=(50, 80))
        exact = np.linalg.svd(J, compute_uv=False)[:10]
        res = truncated_svd(J, k=10)
        assert np.max(np.abs(res.values - exact) / exact) < 1e-3

    def test_orthonormality(self):
        rng = np.random.default_rng(2)
        J = rng.normal(size=(40, 60))
        res = truncated_svd(J, k=8)
        assert np.max(np.abs(res.U.T @ res.U - np.eye(8))) < 1e-6
        assert np.max(np.abs(res.V.T @ res.V - np.eye(8))) < 1e-6
        assert np.all(np.diff(res.values) <= 1e-12)

    def test_reconstruction_tail_bound(self):
        rng = np.random.default_rng(3)
        J = rng.normal(size=(25, 30))
        k = 10
        res = truncated_svd(J, k=k)
        approx = res.U @ np.diag(res.values) @ res.V.T
        tail = np.linalg.svd(J, compute_uv=False)[k:]
        bound = np.sqrt(np.sum(tail ** 2))
        assert np.linalg.norm(J - approx, "fro") <= bound * (1 + 1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        J = rng.normal(size=(30, 45))
        a = truncated_svd(J, k=5)
        b = truncated_svd(J, k=5)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.U, b.U)

    def test_operator_path_matches_dense_path(self):
        mlp = init_kaiming((2, 12, 8, 1), seed=5)
        z = np.random.default_rng(6).normal(size=(40, 2))
        dense = weight_jacobian(mlp, z)
        op = JacobianOperator(mlp, z)
        a = truncated_svd(dense, k=6)
        b = truncated_svd(op, k=6)
        assert np.allclose(a.values, b.values, rtol=1e-10)
        assert np.allclose(a.U, b.U, rtol=1e-8, atol=1e-10)

    def test_k_too_large(self):
        # ARPACK needs k < n_rows
        for k in (4, 5):
            with pytest.raises(ValueError):
                truncated_svd(np.eye(4), k=k)

    def test_sign_convention(self):
        rng = np.random.default_rng(7)
        J = rng.normal(size=(20, 20))
        res = truncated_svd(J, k=4)
        for i in range(4):
            assert res.U[np.argmax(np.abs(res.U[:, i])), i] > 0


def _identity_net(nx, nz, hidden, **init):
    mesh = build_tomo_mesh(nx, nz, 1.0, 1.0)
    z = encode(normalized_centers(mesh, 0.0, 1.0), "identity")
    return init_kaiming((2, *hidden, 1), **init), z, mesh


class TestAnalyzeTrainedNetwork:
    def test_zero_weight_network_rank_deficient(self):
        mlp, z, mesh = _identity_net(8, 10, (8, 8),
                                     output_activation="sigmoid")
        set_weights(mlp, np.zeros(mlp.param_count))
        res = analyze_trained_network(mlp, z, 3, mesh)
        assert res.values[1] / res.values[0] < 1e-12

    @pytest.mark.parametrize("k", [4, 10])
    def test_exports(self, tmp_path, k):
        mlp, z, mesh = _identity_net(6, 9, (16, 16), seed=8)
        out = tmp_path / "svd"
        res = analyze_trained_network(mlp, z, k, mesh, out_dir=out)
        spectrum = [float(row.split(",")[1]) for row in
                    (out / "spectrum.csv").read_text().splitlines()[1:]]
        assert spectrum == res.values.tolist()
        for i in range(k):
            assert (out / f"u_{i:03d}.csv").exists()
            assert (out / f"u_{i:03d}.png").exists()
        sidecar = json.loads((out / "svd_manifest.json").read_text())
        want = {"k": k, "grid_shape": [6, 9], "param_count": mlp.param_count}
        if k >= 10:  # the decay ratio needs a tenth singular value
            want["decay_ratio_1_10"] = spectrum[0] / spectrum[9]
        assert sidecar == want
        norms = np.linalg.norm(res.U, axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-6

    def test_exports_are_byte_identical(self, tmp_path):
        mlp, z, mesh = _identity_net(7, 11, (16, 16), seed=3)
        for run in ("a", "b"):
            analyze_trained_network(mlp, z, 5, mesh, out_dir=tmp_path / run)
        names = ["spectrum.csv"] + [f"u_{i:03d}.csv" for i in range(5)]
        for name in names:
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    def test_capacity_guard(self, monkeypatch):
        # the 256-cell Gram matrix takes 512 KB
        mlp, z, mesh = _identity_net(16, 16, (64, 64), seed=0)
        monkeypatch.setattr(svd_analysis, "MAX_BYTES", 256 * 256 * 8 - 1)
        with pytest.raises(CapacityError):
            analyze_trained_network(mlp, z, 2, mesh)
        monkeypatch.setattr(svd_analysis, "MAX_BYTES", 256 * 256 * 8)
        res = analyze_trained_network(mlp, z, 2, mesh)
        assert res.k == 2
