import json
import math

import numpy as np
import pytest

from nfinv import neural_field
from nfinv.encoding import EncodingConfig, encode
from nfinv.errors import CapacityError
from nfinv.mesh import build_tomo_mesh, normalized_centers
from nfinv.neural_field import (
    JacobianOperator,
    forward,
    get_weights,
    init_kaiming,
    load_checkpoint,
    param_count,
    save_checkpoint,
    set_weights,
    vjp,
    weight_jacobian,
)

PAPER_HIDDEN = (128, 256, 256, 256, 256, 128)


class TestInit:
    def test_paper_param_count_identity_input(self):
        dims = (2,) + PAPER_HIDDEN + (1,)
        assert param_count(dims) == 263809
        mlp = init_kaiming(dims)
        assert mlp.param_count == 263809

    def test_affine_param_count(self):
        assert init_kaiming((2, 1)).param_count == 3

    def test_paper_param_count_basic_input(self):
        dims = (4,) + PAPER_HIDDEN + (1,)
        assert param_count(dims) == 263809 + 2 * 128

    def test_deterministic(self):
        a = init_kaiming((3, 8, 1), seed=5)
        b = init_kaiming((3, 8, 1), seed=5)
        assert np.array_equal(get_weights(a), get_weights(b))
        c = init_kaiming((3, 8, 1), seed=6)
        assert not np.array_equal(get_weights(a), get_weights(c))

    def test_biases_zero_and_weight_scale(self):
        mlp = init_kaiming((100, 400, 1), hidden_slope=0.01, seed=0)
        assert np.all(mlp.biases[0] == 0)
        # empirical std close to sqrt(2 / (1.0001 * fan_in))
        want = math.sqrt(2.0 / (1.0 + 0.01 ** 2) / 100)
        assert mlp.weights[0].std() == pytest.approx(want, rel=0.05)

    def test_empty_dims(self):
        with pytest.raises(ValueError):
            init_kaiming((4,))

    @pytest.mark.parametrize("slope", [-0.01, 1.5, math.nan])
    def test_hidden_slope_outside_unit_interval(self, slope, tmp_path):
        # the LeakyReLU is max(a, slope * a), which needs 0 <= slope <= 1
        with pytest.raises(ValueError, match="slope"):
            init_kaiming((2, 4, 1), hidden_slope=slope)
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, init_kaiming((2, 4, 1)))
        header, body = path.read_bytes().split(b"\n", 1)
        fields = json.loads(header)
        fields["hidden_slope"] = slope
        path.write_bytes(json.dumps(fields).encode() + b"\n" + body)
        with pytest.raises(ValueError, match="slope"):
            load_checkpoint(path)

    @pytest.mark.parametrize("slope", [0.0, 0.3, 1.0])
    def test_hidden_slope_in_unit_interval(self, slope):
        mlp = init_kaiming((2, 6, 1), hidden_slope=slope,
                           output_activation="none", seed=2)
        z = np.random.default_rng(0).normal(size=(30, 2))
        a = z @ mlp.weights[0] + mlp.biases[0]
        h = np.where(a > 0, a, slope * a)
        want = (h @ mlp.weights[1] + mlp.biases[1])[:, 0]
        assert np.array_equal(forward(mlp, z), want)


class TestForward:
    def test_zero_weights_tanh_gives_offset(self):
        mlp = init_kaiming((2, 4, 1), output_activation="tanh",
                           output_scale=3.0, output_offset=0.25)
        set_weights(mlp, np.zeros(mlp.param_count))
        m = forward(mlp, np.random.default_rng(0).normal(size=(6, 2)))
        assert np.allclose(m, 0.25)

    def test_zero_weights_sigmoid_gives_half_scale(self):
        mlp = init_kaiming((2, 4, 1), output_activation="sigmoid",
                           output_scale=4.0, output_offset=-4.0)
        set_weights(mlp, np.zeros(mlp.param_count))
        m = forward(mlp, np.zeros((3, 2)))
        assert np.allclose(m, -4.0 + 4.0 / 2)

    def test_matches_scalar_reference(self):
        # independent per-cell evaluation with python floats
        mlp = init_kaiming((2, 3, 1), output_activation="tanh",
                           output_scale=2.0, output_offset=0.5, seed=11)
        mesh = build_tomo_mesh(2, 2, 1.0, 1.0)
        z = encode(EncodingConfig(kind="identity"),
                   normalized_centers(mesh, 0.0, 1.0))
        got = forward(mlp, z)

        def leaky(v):
            return v if v > 0 else 0.01 * v

        for i, (x0, x1) in enumerate(z):
            h = [leaky(sum(float(mlp.weights[0][k, j]) * [x0, x1][k]
                           for k in range(2)) + float(mlp.biases[0][j]))
                 for j in range(3)]
            raw = sum(float(mlp.weights[1][j, 0]) * h[j] for j in range(3))
            raw += float(mlp.biases[1][0])
            want = 0.5 + 2.0 * math.tanh(raw)
            assert got[i] == pytest.approx(want, rel=1e-12)

    def test_sigmoid_head_bounded(self):
        mlp = init_kaiming((2, 32, 1), output_activation="sigmoid",
                           output_scale=4.0, output_offset=-4.0, seed=3)
        m = forward(mlp, np.random.default_rng(1).normal(size=(100, 2)))
        assert np.all(m > -4.0) and np.all(m < 0.0)

    def test_dimension_mismatch(self):
        mlp = init_kaiming((4, 2, 1))
        with pytest.raises(ValueError):
            forward(mlp, np.zeros((5, 3)))


def _fd_weight_grad(mlp, z, cotangent, idx, h=1e-6):
    w = get_weights(mlp)
    out = np.zeros(len(idx))
    for n, j in enumerate(idx):
        step = h * max(1.0, abs(w[j]))
        for sgn in (+1.0, -1.0):
            wj = w.copy()
            wj[j] += sgn * step
            set_weights(mlp, wj)
            out[n] += sgn * float(cotangent @ forward(mlp, z))
        out[n] /= 2 * step
    set_weights(mlp, w)
    return out


class TestVjp:
    def test_zero_cotangent(self):
        mlp = init_kaiming((2, 8, 1), seed=0)
        z = np.random.default_rng(0).normal(size=(10, 2))
        assert np.all(vjp(mlp, z, np.zeros(10)) == 0)

    @pytest.mark.parametrize("out_act", ["tanh", "sigmoid", "none"])
    def test_matches_central_differences(self, out_act):
        # FD step 1e-6 (scaled by |w|); documented tolerance 1e-5 relative
        mlp = init_kaiming((3, 12, 10, 1), output_activation=out_act,
                           output_scale=1.7, output_offset=0.2, seed=21)
        rng = np.random.default_rng(5)
        z = rng.normal(size=(17, 3))
        u = rng.normal(size=17)
        g = vjp(mlp, z, u)
        idx = rng.choice(mlp.param_count, size=20, replace=False)
        fd = _fd_weight_grad(mlp, z, u, idx)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(g[idx] - fd) / denom) < 1e-5

    def test_linearity(self):
        mlp = init_kaiming((2, 6, 1), seed=9)
        rng = np.random.default_rng(2)
        z = rng.normal(size=(8, 2))
        u, v = rng.normal(size=8), rng.normal(size=8)
        a, b = 0.3, -1.7
        lhs = vjp(mlp, z, a * u + b * v)
        rhs = a * vjp(mlp, z, u) + b * vjp(mlp, z, v)
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-15)


class TestJacobian:
    def test_affine_network_rows(self):
        mlp = init_kaiming((2, 1), output_activation="none", seed=1)
        z = np.random.default_rng(3).normal(size=(5, 2))
        j = weight_jacobian(mlp, z)
        want = np.column_stack([z, np.ones(5)])
        assert np.allclose(j, want, atol=1e-15)

    def test_directional_finite_difference(self):
        mlp = init_kaiming((2, 10, 8, 1), output_activation="tanh", seed=4)
        rng = np.random.default_rng(7)
        z = rng.normal(size=(12, 2))
        j = weight_jacobian(mlp, z)
        w0 = get_weights(mlp)
        dw = rng.normal(size=mlp.param_count)
        dw /= np.linalg.norm(dw)
        eps = 1e-6
        set_weights(mlp, w0 + eps * dw)
        mp = forward(mlp, z)
        set_weights(mlp, w0 - eps * dw)
        mm = forward(mlp, z)
        set_weights(mlp, w0)
        fd = (mp - mm) / (2 * eps)
        jd = j @ dw
        assert np.max(np.abs(jd - fd)) / np.max(np.abs(fd)) < 1e-4

    def test_case1_row_count_via_operator(self):
        mesh = build_tomo_mesh(64, 128, 1.0, 1.0)
        z = encode(EncodingConfig(kind="basic"),
                   normalized_centers(mesh, 0.0, 1.0))
        mlp = init_kaiming((4,) + PAPER_HIDDEN + (1,))
        op = JacobianOperator(mlp, z)
        assert op.shape == (8192, 264065)

    def test_capacity_error(self):
        mlp = init_kaiming((2, 64, 1))
        z = np.zeros((100, 2))
        with pytest.raises(CapacityError):
            weight_jacobian(mlp, z, max_bytes=1000)

    def test_operator_matches_dense(self):
        mlp = init_kaiming((2, 7, 5, 1), seed=2)
        rng = np.random.default_rng(11)
        z = rng.normal(size=(9, 2))
        j = weight_jacobian(mlp, z)
        op = JacobianOperator(mlp, z)
        v = rng.normal(size=mlp.param_count)
        u = rng.normal(size=9)
        assert np.allclose(op.matmat(v[:, None])[:, 0], j @ v, rtol=1e-12,
                           atol=1e-13)
        assert np.allclose(op.rmatvec(u), j.T @ u, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("r", [1, 3, 20])
    def test_batched_products_match_dense(self, r, monkeypatch):
        # 8 KB blocks and a prime cell count leave a partial last block
        monkeypatch.setattr(neural_field, "_BLOCK_BYTES", 8192)
        mlp = init_kaiming((3, 16, 12, 1), output_scale=1.7, seed=6)
        rng = np.random.default_rng(r)
        z = rng.normal(size=(211, 3))
        op = JacobianOperator(mlp, z)
        assert any(s.stop > 211 for s in op._blocks(16 * r))
        j = weight_jacobian(mlp, z)
        v = rng.normal(size=(mlp.param_count, r))
        u = rng.normal(size=(211, r))
        for got, want in ((op.matmat(v), j @ v), (op.rmatmat(u), j.T @ u)):
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())

    def test_gram_matches_dense(self, monkeypatch):
        # 8 KB blocks and a prime cell count leave a partial last block
        monkeypatch.setattr(neural_field, "_BLOCK_BYTES", 8192)
        mlp = init_kaiming((3, 16, 12, 1), output_activation="sigmoid",
                           output_scale=1.7, seed=7)
        z = np.random.default_rng(14).normal(size=(211, 3))
        op = JacobianOperator(mlp, z)
        assert any(s.stop > 211 for s in op._blocks(211))
        j = weight_jacobian(mlp, z)
        want = j @ j.T
        np.testing.assert_allclose(op.gram(), want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("slope", [0.0, 0.01, 0.3, 1.0])
    def test_sweep_matches_where_backprop_bitwise(self, slope):
        mlp = init_kaiming((3, 6, 5, 4, 1), hidden_slope=slope,
                           output_scale=1.7, seed=9)
        # zeroed columns and biases make some pre-activations exactly 0
        for w, b in zip(mlp.weights[:2], mlp.biases[:2]):
            w[:, 1] = 0.0
            b[1] = 0.0
        rng = np.random.default_rng(15)
        z = rng.normal(size=(40, 3))
        u = rng.normal(size=40)

        xs = [z]
        for w, b in zip(mlp.weights[:-1], mlp.biases[:-1]):
            a = xs[-1] @ w + b
            xs.append(np.where(a > 0, a, slope * a))
        assert all(np.any(x[:, 1] == 0.0) for x in xs[1:3])
        t = np.tanh((xs[-1] @ mlp.weights[-1] + mlp.biases[-1])[:, 0])
        deriv = 1.0 - t * t

        def backprop(head):
            deltas = [head[:, None]]
            for x, w in zip(xs[:0:-1], mlp.weights[:0:-1]):
                d = deltas[-1] @ w.T
                deltas.append(d * np.where(x > 0, 1.0, slope))
            return deltas[::-1]

        op = JacobianOperator(mlp, z)
        unit = backprop(mlp.output_scale * deriv)
        assert all(np.array_equal(got, want)
                   for got, want in zip(op._unit_deltas(), unit))
        grad = np.concatenate([
            part for x, d in zip(xs, backprop(u * mlp.output_scale * deriv))
            for part in ((x.T @ d).ravel(), d.sum(axis=0))])
        assert np.array_equal(op.rmatvec(u), grad)

    def test_jvp_vjp_adjoint_identity(self):
        mlp = init_kaiming((3, 9, 1), output_activation="sigmoid", seed=8)
        rng = np.random.default_rng(13)
        z = rng.normal(size=(14, 3))
        v = rng.normal(size=mlp.param_count)
        u = rng.normal(size=14)
        lhs = float(u @ JacobianOperator(mlp, z).matmat(v[:, None])[:, 0])
        rhs = float(vjp(mlp, z, u) @ v)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        mlp = init_kaiming((4, 16, 8, 1), output_activation="sigmoid",
                           output_scale=4.0, output_offset=-4.0, seed=44)
        path = tmp_path / "weights.ckpt"
        save_checkpoint(path, mlp, epoch=12)
        back, header = load_checkpoint(path)
        assert header["epoch"] == 12
        assert back.layer_dims == mlp.layer_dims
        assert np.array_equal(get_weights(back), get_weights(mlp))
        z = np.random.default_rng(1).normal(size=(6, 4))
        assert np.array_equal(forward(back, z), forward(mlp, z))

    def test_header_is_text_line(self, tmp_path):
        mlp = init_kaiming((2, 3, 1))
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, mlp)
        first = path.read_bytes().split(b"\n", 1)[0]
        assert b"layer_dims" in first
