import numpy as np
import pytest

from nfinv import dcr, inversion, runner
from nfinv.encoding import EncodingConfig, encode
from nfinv.inversion import (
    Adam,
    CoolingSchedule,
    Regularization,
    RegularizationConfig,
    conventional_invert,
    data_misfit,
    nfs_invert,
    sensitivity_weights,
)
from nfinv.manifest import default_manifest
from nfinv.mesh import build_tomo_mesh, normalized_centers
from nfinv.neural_field import (forward, get_weights, init_kaiming,
                                set_weights, vjp)
from nfinv.scenarios import NoiseSpec, add_noise, make_case1
from nfinv.tomo import TomoSimulator, build_crosshole_survey, build_ray_matrix


class LinearSimulator:
    """predict = A m, for toy quadratic problems."""

    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)
        self.n_data, self.n_model = self.A.shape

    def predict(self, m):
        return self.A @ m

    def gradient(self, cot):
        return self.A.T @ cot

    def sensitivity(self):
        return self.A


class TestDataMisfit:
    def test_perfect_fit(self):
        value, cot = data_misfit(1.0, np.arange(4.0), np.arange(4.0))
        assert value == 0.0
        assert np.all(cot == 0.0)

    def test_identity_weight_example(self):
        value, _ = data_misfit(1.0, np.array([3.0, 4.0]), np.zeros(2))
        assert value == 12.5

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(0.5, 2.0, 20)
        d_obs = rng.normal(size=20)
        d_pred = rng.normal(size=20)
        value, cot = data_misfit(w, d_obs, d_pred)
        want = 0.5 * sum((w[i] * (d_obs[i] - d_pred[i])) ** 2
                         for i in range(20))
        assert value == pytest.approx(want, rel=1e-14)
        want_cot = [-w[i] ** 2 * (d_obs[i] - d_pred[i]) for i in range(20)]
        assert np.allclose(cot, want_cot, rtol=1e-14)


class TestBetaSchedule:
    def test_endpoints(self):
        sched = CoolingSchedule(tau=800.0)
        assert sched.beta(0) == 1.0
        assert sched.beta(800) == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_strictly_decreasing(self):
        sched = CoolingSchedule(tau=10.0)
        ts = np.arange(50)
        vals = [sched.beta(t) for t in ts]
        assert np.all(np.diff(vals) < 0)

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            CoolingSchedule(tau=0.0)


class TestRegularization:
    def test_constant_model_zero(self):
        cfg = RegularizationConfig(alpha_s=1.0, alpha_x=0.5, alpha_z=0.5,
                                   m_ref=3.0)
        reg = Regularization(cfg, nx=4, nz=3, dx=1.0, dz=1.0)
        value, grad = reg.value_and_grad(np.full(12, 3.0))
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_single_step_edge_hand_computation(self):
        # 3x1 grid, m = (0, 0, s): one active x-face, value
        # alpha_x * (s/dx)^2 * face_volume
        dx, dz, s = 2.0, 3.0, 5.0
        cfg = RegularizationConfig(alpha_x=0.7)
        reg = Regularization(cfg, nx=3, nz=1, dx=dx, dz=dz)
        value, _ = reg.value_and_grad(np.array([0.0, 0.0, s]))
        assert value == pytest.approx(0.7 * (s / dx) ** 2 * (dx * dz))

    def test_case1_conventional_config_valid(self):
        cfg = RegularizationConfig(alpha_s=0.0, alpha_x=0.5, alpha_z=0.5,
                                   p_x=2.0, p_z=2.0)
        assert cfg.alpha_x == cfg.alpha_z == 0.5

    def test_gradient_matches_fd(self):
        cfg = RegularizationConfig(alpha_s=0.3, alpha_x=0.5, alpha_z=0.8,
                                   m_ref=-2.0)
        reg = Regularization(cfg, nx=5, nz=4, dx=1.5, dz=0.5)
        rng = np.random.default_rng(1)
        m = rng.normal(size=20)
        _, grad = reg.value_and_grad(m)
        h = 1e-7
        for j in rng.choice(20, 8, replace=False):
            mp, mm = m.copy(), m.copy()
            mp[j] += h
            mm[j] -= h
            fd = (reg.value_and_grad(mp)[0] - reg.value_and_grad(mm)[0]) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_hessian_is_exact_for_quadratic(self):
        cfg = RegularizationConfig(alpha_s=0.2, alpha_x=0.4, alpha_z=0.6,
                                   m_ref=1.0)
        reg = Regularization(cfg, nx=4, nz=4, dx=1.0, dz=1.0)
        rng = np.random.default_rng(2)
        m = rng.normal(size=16)
        d = rng.normal(size=16)
        v0, g0 = reg.value_and_grad(m)
        v1, _ = reg.value_and_grad(m + d)
        quad = v0 + g0 @ d + 0.5 * d @ (reg.hessian() @ d)
        assert v1 == pytest.approx(quad, rel=1e-12)

    def test_cell_weights_match_hand_written_terms(self):
        # every cell and face of a 3x2 grid written out as its own row
        # k * (g . m - b)^2; face weights average the two cells' weights
        nx, nz, dx, dz, eps = 3, 2, 2.0, 0.5, 0.5
        n, v = nx * nz, dx * dz
        cfg = RegularizationConfig(alpha_s=0.3, alpha_x=0.7, alpha_z=1.1,
                                   p_s=1.0, p_x=0.5, p_z=2.0, m_ref=0.2,
                                   irls_epsilon=eps)
        reg = Regularization(cfg, nx=nx, nz=nz, dx=dx, dz=dz)
        rng = np.random.default_rng(9)
        c = rng.uniform(0.1, 2.0, n)
        m0, m = rng.normal(size=n), rng.normal(size=n)
        reg.set_cell_weights(c)
        reg.update_irls(m0)

        def irls(r, p):
            return (r * r + eps * eps) ** (p / 2.0 - 1.0)

        rows = []
        for i in range(n):
            g = np.zeros(n)
            g[i] = 1.0
            rows.append((0.3 * v * c[i] * irls(m0[i] - 0.2, 1.0), g, 0.2))
        for a, b, h, alpha, p in (
                [(r * nx + k, r * nx + k + 1, dx, 0.7, 0.5)
                 for r in range(nz) for k in range(nx - 1)]
                + [(r * nx + k, (r + 1) * nx + k, dz, 1.1, 2.0)
                   for r in range(nz - 1) for k in range(nx)]):
            g = np.zeros(n)
            g[a], g[b] = -1.0 / h, 1.0 / h
            rows.append((alpha * v * (c[a] + c[b]) / 2.0 * irls(g @ m0, p),
                         g, 0.0))
        assert len(rows) == n + nz * (nx - 1) + (nz - 1) * nx

        value, grad = reg.value_and_grad(m)
        assert value == pytest.approx(
            sum(k * (g @ m - b) ** 2 for k, g, b in rows), rel=1e-12)
        assert np.allclose(grad, sum(2.0 * k * (g @ m - b) * g
                                     for k, g, b in rows), rtol=1e-12, atol=0)
        assert np.allclose(reg.hessian().toarray(),
                           sum(2.0 * k * np.outer(g, g) for k, g, _ in rows),
                           rtol=1e-12, atol=0)

    def test_irls_weights_formula(self):
        cfg = RegularizationConfig(alpha_s=1.0, p_s=1.0, irls_epsilon=0.1)
        reg = Regularization(cfg, nx=2, nz=1, dx=1.0, dz=1.0)
        m = np.array([0.0, 3.0])
        reg.update_irls(m)
        want = (m ** 2 + 0.01) ** (-0.5)
        assert np.allclose(reg.irls_weights[0], want)

    def test_p0_limit_form(self):
        cfg = RegularizationConfig(alpha_s=1.0, p_s=0.0, irls_epsilon=0.1)
        reg = Regularization(cfg, nx=2, nz=1, dx=1.0, dz=1.0)
        reg.update_irls(np.array([0.0, 3.0]))
        assert np.allclose(reg.irls_weights[0],
                           (np.array([0.0, 9.0]) + 0.01) ** -1.0)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            RegularizationConfig(alpha_s=-1.0)
        with pytest.raises(ValueError):
            RegularizationConfig(p_s=-0.5)
        with pytest.raises(ValueError):
            RegularizationConfig(p_s=2.5)
        with pytest.raises(ValueError):
            RegularizationConfig(p_s=1.0, irls_epsilon=0.0)

    def test_epsilon_cooling_floor(self):
        cfg = RegularizationConfig(alpha_s=1.0, p_s=1.0, irls_epsilon=1e-4)
        reg = Regularization(cfg, nx=2, nz=1, dx=1.0, dz=1.0)
        for _ in range(20):
            reg.cool_epsilon()
        assert reg.epsilon == 1e-6


class TestAdam:
    def test_first_step_formula(self):
        adam = Adam(3, learning_rate=0.01)
        w = np.array([1.0, -2.0, 0.5])
        g = np.array([0.1, -0.4, 0.0])
        w1 = adam.step(w.copy(), g)
        m_hat = g  # bias correction cancels at t=1
        v_hat = g * g
        want = w - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(w1, want, rtol=1e-12)

    def test_zero_gradient_no_move(self):
        adam = Adam(4)
        w = np.ones(4)
        assert np.array_equal(adam.step(w.copy(), np.zeros(4)), w)


def small_tomo_setup(nx=16, nz=32, seed=0, hidden=(32, 64, 64, 32)):
    mesh = build_tomo_mesh(nx, nz, 1.0, 1.0)
    survey = build_crosshole_survey(mesh, 2.0)
    sim = TomoSimulator(build_ray_matrix(mesh, survey))
    s_true = make_case1(mesh)
    d_clean = sim.predict(s_true)
    d_obs, w_d = add_noise(d_clean, NoiseSpec("absolute_gaussian", std=0.020,
                                              seed=seed))
    grid = normalized_centers(mesh, 0.0, 1.0)
    z = encode(EncodingConfig(kind="basic"), grid)
    mlp = init_kaiming((z.shape[1],) + hidden + (1,), output_activation="tanh",
                       output_scale=5e-3, output_offset=1e-3, seed=seed)
    return mesh, sim, s_true, d_obs, w_d, z, mlp


class TestNfsInvert:
    def test_zero_residual_keeps_weights(self):
        _, sim, _, _, w_d, z, mlp = small_tomo_setup()
        d_obs = sim.predict(forward(mlp, z))  # exact fit at the start
        w0 = get_weights(mlp).copy()
        result = nfs_invert(sim, d_obs, w_d, mlp, z, epochs=1)
        assert np.array_equal(get_weights(mlp), w0)
        assert result.misfit_history[0] == 0.0

    def test_surrogate_gradient_identity(self):
        # backprop of (J_v . m(w)) with frozen J_v equals the end-to-end
        # misfit gradient; verified against finite differences
        _, sim, _, d_obs, w_d, z, mlp = small_tomo_setup(nx=8, nz=8,
                                                         hidden=(16, 16))
        m = forward(mlp, z)
        _, cot = data_misfit(w_d, d_obs, sim.predict(m))
        j_v = sim.gradient(cot)
        g = vjp(mlp, z, j_v)

        from nfinv.neural_field import set_weights
        w0 = get_weights(mlp)
        rng = np.random.default_rng(3)
        idx = rng.choice(mlp.param_count, 15, replace=False)
        h = 1e-6
        for j in idx:
            wp, wm = w0.copy(), w0.copy()
            wp[j] += h
            wm[j] -= h
            set_weights(mlp, wp)
            fp = data_misfit(w_d, d_obs, sim.predict(forward(mlp, z)))[0]
            set_weights(mlp, wm)
            fm = data_misfit(w_d, d_obs, sim.predict(forward(mlp, z)))[0]
            fd = (fp - fm) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-4, abs=1e-10)
        set_weights(mlp, w0)

    def test_misfit_drops_tenfold_on_desk_case1(self):
        _, sim, _, d_obs, w_d, z, mlp = small_tomo_setup(seed=1)
        adam = Adam(mlp.param_count, learning_rate=1e-3)
        result = nfs_invert(sim, d_obs, w_d, mlp, z, epochs=400, adam=adam)
        assert result.final_misfit < result.misfit_history[0] / 10.0
        assert len(result.misfit_history) == 400
        assert np.all(result.beta_history == 0.0)

    def test_histories_one_entry_per_epoch(self):
        _, sim, _, d_obs, w_d, z, mlp = small_tomo_setup(nx=8, nz=8,
                                                         hidden=(8, 8))
        result = nfs_invert(sim, d_obs, w_d, mlp, z, epochs=7,
                            schedule=CoolingSchedule(tau=800.0))
        assert result.n_epochs == 7
        assert len(result.beta_history) == 7
        assert len(result.wall_clock) == 7
        assert result.beta_history[0] == pytest.approx(np.exp(-1 / 800))

    def test_early_stop_at_target(self):
        _, sim, _, d_obs, w_d, z, mlp = small_tomo_setup(seed=2)
        big_target = data_misfit(w_d, d_obs,
                                 sim.predict(forward(mlp, z)))[0] * 0.5
        result = nfs_invert(sim, d_obs, w_d, mlp, z, epochs=4000,
                            target_misfit=big_target)
        assert result.converged
        assert result.n_epochs < 4000
        assert result.misfit_history[-1] <= big_target

    def test_epochs_bitwise_match_separate_forward_and_backward(self):
        # reference epoch: an np.where LeakyReLU forward, then a backward
        # pass that recomputes that forward, in the operation order the
        # weight gradient has always used
        def ref_forward(mlp, x):
            xs, pre = [x], []
            for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
                a = xs[-1] @ w + b
                pre.append(a)
                if i < mlp.n_layers - 1:
                    xs.append(np.where(a > 0, a, mlp.hidden_slope * a))
            raw = pre[-1][:, 0]
            return mlp.output_offset + mlp.output_scale * np.tanh(raw), xs, pre

        def ref_vjp(mlp, x, c):
            _, xs, pre = ref_forward(mlp, x)
            t = np.tanh(pre[-1][:, 0])
            d = (c * mlp.output_scale * (1.0 - t * t))[:, None]
            deltas = [d]
            for i in range(mlp.n_layers - 2, -1, -1):
                d = (d @ mlp.weights[i + 1].T) * np.where(pre[i] > 0, 1.0,
                                                          mlp.hidden_slope)
                deltas.append(d)
            return np.concatenate([
                part for xi, di in zip(xs, deltas[::-1])
                for part in ((xi.T @ di).ravel(), di.sum(axis=0))])

        rng = np.random.default_rng(8)
        z = rng.uniform(0.0, 1.0, size=(40, 3))
        sim = LinearSimulator(rng.normal(size=(25, 40)))
        d_obs = rng.normal(size=25)

        def net():
            return init_kaiming((3, 16, 12, 1), hidden_slope=0.1,
                                output_scale=2.0, output_offset=0.5, seed=4)

        mlp = net()
        result = nfs_invert(sim, d_obs, 1.5, mlp, z, epochs=12,
                            adam=Adam(mlp.param_count, learning_rate=1e-2))

        ref = net()
        adam = Adam(ref.param_count, learning_rate=1e-2)
        w, misfits = get_weights(ref), []
        for _ in range(12):
            m, _, _ = ref_forward(ref, z)
            phi_d, cot = data_misfit(1.5, d_obs, sim.predict(m))
            misfits.append(phi_d)
            w = adam.step(w, ref_vjp(ref, z, (1.0 - 0.0) * sim.gradient(cot)))
            set_weights(ref, w)
        assert np.array_equal(result.misfit_history, misfits)
        assert np.array_equal(get_weights(mlp), w)
        assert np.array_equal(result.model, ref_forward(ref, z)[0])


class TestConventional:
    def test_gauss_newton_one_step_on_quadratic(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(30, 10))
        sim = LinearSimulator(A)
        d_obs = rng.normal(size=30)
        m_star = np.linalg.lstsq(A, d_obs, rcond=None)[0]
        phi_star = 0.5 * np.sum((A @ m_star - d_obs) ** 2)
        result = conventional_invert(
            sim, d_obs, 1.0, np.zeros(10), reg=None, optimizer="gauss_newton",
            max_iterations=2, gn_cg_maxiter=100, gn_cg_rtol=1e-12)
        # after one outer iteration the quadratic is solved
        assert result.misfit_history[1] == pytest.approx(phi_star, rel=1e-9,
                                                         abs=1e-12)

    def test_gradient_descent_reduces_misfit(self):
        _, sim, s_true, d_obs, w_d, _, _ = small_tomo_setup(seed=3)
        cfg = RegularizationConfig(alpha_x=0.5, alpha_z=0.5)
        reg = Regularization(cfg, nx=16, nz=32, dx=1.0, dz=1.0)
        m0 = np.full(sim.n_model, 1e-3)
        result = conventional_invert(sim, d_obs, w_d, m0, reg=reg,
                                     optimizer="gradient_descent",
                                     max_iterations=150)
        assert result.final_misfit < result.misfit_history[0] / 10.0

    def test_target_misfit_stop(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(20, 20)) + 5 * np.eye(20)
        sim = LinearSimulator(A)
        d_obs = rng.normal(size=20)
        result = conventional_invert(sim, d_obs, 1.0, np.zeros(20), reg=None,
                                     optimizer="gauss_newton",
                                     max_iterations=50, gn_cg_maxiter=200,
                                     gn_cg_rtol=1e-10, target_misfit=1e-6)
        assert result.converged

    def test_line_search_failure_status(self):
        class LyingSimulator(LinearSimulator):
            def gradient(self, cot):  # wrong sign: ascent direction
                return -super().gradient(cot)

        rng = np.random.default_rng(6)
        A = rng.normal(size=(12, 6))
        sim = LyingSimulator(A)
        d_obs = rng.normal(size=12) + 10.0
        result = conventional_invert(sim, d_obs, 1.0, np.zeros(6), reg=None,
                                     optimizer="gradient_descent",
                                     max_iterations=10)
        assert result.status == "line_search_failed"
        assert not result.converged
        # the final misfit is that of the model returned, not of the
        # rejected trials the simulator saw last
        assert result.final_misfit == data_misfit(1.0, d_obs,
                                                  A @ result.model)[0]

    def test_cg_exit_codes_per_gauss_newton_iteration(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(30, 10))
        d_obs = rng.normal(size=30)
        exact = conventional_invert(
            LinearSimulator(A), d_obs, 1.0, np.zeros(10), reg=None,
            optimizer="gauss_newton", max_iterations=2, gn_cg_maxiter=100,
            gn_cg_rtol=1e-12)
        assert exact.cg_info.tolist() == [0, 0]
        # one CG step cannot solve a 10-dimensional system to 1e-12
        capped = conventional_invert(
            LinearSimulator(A), d_obs, 1.0, np.zeros(10), reg=None,
            optimizer="gauss_newton", max_iterations=3, gn_cg_maxiter=1,
            gn_cg_rtol=1e-12)
        assert len(capped.cg_info) == 3 and np.all(capped.cg_info > 0)
        descent = conventional_invert(
            LinearSimulator(A), d_obs, 1.0, np.zeros(10), reg=None,
            optimizer="gradient_descent", max_iterations=3)
        assert descent.cg_info.size == 0

    def test_unknown_optimizer(self):
        with pytest.raises(ValueError):
            conventional_invert(LinearSimulator(np.eye(2)), np.zeros(2), 1.0,
                                np.zeros(2), optimizer="bfgs")

    def test_unregularized_run_has_more_artifact_energy(self):
        # run-to-budget descent with no penalty accumulates along-ray
        # structure; the smoothness-regularized run stopped at the noise
        # level stays clean
        mesh, sim, s_true, d_obs, w_d, _, _ = small_tomo_setup(seed=7)
        bg = 1e-3
        off = s_true == bg
        m0 = np.full(sim.n_model, bg)

        unreg = conventional_invert(sim, d_obs, w_d, m0, reg=None,
                                    optimizer="gradient_descent",
                                    max_iterations=500)
        cfg = RegularizationConfig(alpha_x=0.5, alpha_z=0.5)
        reg = Regularization(cfg, nx=16, nz=32, dx=1.0, dz=1.0)
        smooth = conventional_invert(sim, d_obs, w_d, m0, reg=reg,
                                     optimizer="gradient_descent",
                                     max_iterations=500,
                                     target_misfit=sim.n_data / 2)

        def artifact(m):
            return float(np.sum((m[off] - bg) ** 2))

        assert artifact(unreg.model) > artifact(smooth.model)


@pytest.mark.parametrize("kind", ["dense", "ray_matrix"])
def test_sensitivity_weights_are_column_norms(kind):
    rng = np.random.default_rng(10)
    if kind == "dense":
        J = rng.normal(size=(9, 6))
        J[:, 4] *= 1e-5  # below the floor
        dense = J
    else:
        mesh = build_tomo_mesh(6, 8, 1.0, 1.0)
        J = build_ray_matrix(mesh, build_crosshole_survey(mesh, 2.0)).A
        dense = J.toarray()
    w_d = rng.uniform(0.5, 2.0, dense.shape[0])
    norms = np.array([np.sqrt(sum((w_d[i] * dense[i, c]) ** 2
                                  for i in range(dense.shape[0])))
                      for c in range(dense.shape[1])])
    want = np.maximum(norms / norms.max(), 1e-3)
    got = sensitivity_weights(J, w_d)
    assert np.allclose(got, want, rtol=1e-12, atol=0)
    assert got.max() == 1.0
    if kind == "dense":
        assert got[4] == 1e-3


def test_gauss_newton_weights_terms_by_exact_sensitivity():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(8, 6))
    w_d = rng.uniform(0.5, 2.0, 8)
    cfg = RegularizationConfig(alpha_s=1.0, alpha_x=1.0,
                               sensitivity_weighting=True)
    reg = Regularization(cfg, nx=3, nz=2, dx=1.0, dz=1.0)
    conventional_invert(LinearSimulator(A), rng.normal(size=8), w_d,
                        np.zeros(6), reg=reg, optimizer="gauss_newton",
                        max_iterations=1)
    assert np.array_equal(reg.term_weights[0], sensitivity_weights(A, w_d))


@pytest.fixture(scope="module")
def desk_case3_gauss_newton():
    """The default desk case-3 Gauss-Newton run, counting predicts and
    data-misfit evaluations."""
    man = default_manifest(3, "conventional")
    asm = runner.assemble(man)
    calls = {"predict": 0, "data_misfit": 0}
    predict, misfit = asm.simulator.predict, inversion.data_misfit

    def counted_predict(m):
        calls["predict"] += 1
        return predict(m)

    def counted_misfit(*args):
        calls["data_misfit"] += 1
        return misfit(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(asm.simulator, "predict", counted_predict)
        mp.setattr(inversion, "data_misfit", counted_misfit)
        result = runner.run_conventional(man, asm)
    return man, asm, result, calls


class TestGaussNewtonDcr:
    def test_one_predict_per_line_search_trial(self, desk_case3_gauss_newton):
        _, _, result, calls = desk_case3_gauss_newton
        assert result.status == "ok" and result.converged
        # one misfit per iteration, one per line-search trial, one at the end
        trials = calls["data_misfit"] - result.n_epochs - 1
        assert trials >= result.n_epochs - 1
        assert calls["predict"] == 1 + trials

    def test_final_misfit_is_that_of_the_model(self, desk_case3_gauss_newton):
        _, asm, result, _ = desk_case3_gauss_newton
        fresh, _ = data_misfit(asm.w_d, asm.d_obs,
                               asm.simulator.predict(result.model))
        assert result.final_misfit == fresh
        assert result.misfit_history[-1] == fresh

    def test_cg_exit_codes_reach_the_metrics(self, desk_case3_gauss_newton):
        man, asm, result, _ = desk_case3_gauss_newton
        # the converged last iteration stops before its CG solve
        assert len(result.cg_info) == result.n_epochs - 1
        assert result.cg_info.dtype.kind == "i"
        metrics = runner.compute_metrics(man, asm, result)
        assert metrics["gn_cg_unconverged"] == int(np.sum(result.cg_info > 0))


def test_network_epochs_never_build_the_dc_sensitivity(monkeypatch):
    # one adjoint per epoch: the explicit Jacobian would only cost time
    def refuse(self):
        raise AssertionError("sensitivity built during a network run")

    monkeypatch.setattr(dcr.PolePotentials, "sensitivity",
                        property(refuse))
    man = default_manifest(3, "nfs")
    man["epochs"] = 2
    result, _, _ = runner.run_nfs(man, runner.assemble(man))
    assert result.n_epochs == 2
