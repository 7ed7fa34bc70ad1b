"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines.  The inversion-based criteria (7-9) train small networks and take a
few minutes total.
"""

import hashlib
from contextlib import contextmanager

import numpy as np
import pytest

from nfinv.dcr import assemble_system, build_dipole_dipole_survey
from nfinv.encoding import encode, gaussian_frequencies
from nfinv.inversion import (
    conventional_invert,
    cooling_beta,
    data_misfit,
    nfs_invert,
)
from nfinv.manifest import DESK_HIDDEN, PAPER_HIDDEN, default_manifest
from nfinv.mesh import build_dcr_mesh, build_tomo_mesh, normalized_centers
from nfinv.neural_field import (
    forward,
    get_weights,
    init_kaiming,
    param_count,
    set_weights,
    vjp,
    weight_jacobian,
)
from nfinv.runner import run_case
from nfinv.scenarios import (
    add_noise,
    gaussian_random_field,
    make_case1,
    make_case2,
)
from nfinv.svd_analysis import truncated_svd
from nfinv.tomo import (
    TomoSimulator,
    build_crosshole_survey,
    build_ray_matrix,
)


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except Exception:
        print(f"[criterion {num:>2}] FAIL  {label}")
        raise
    print(f"[criterion {num:>2}] PASS  {label}")


# --- shared desk-scale case-1 assets -------------------------------------


@pytest.fixture(scope="module")
def case1_desk():
    """32x64 case-1 problem shared by the inversion criteria."""
    mesh = build_tomo_mesh(32, 64, 1.0, 1.0)
    survey = build_crosshole_survey(mesh, 1.0)
    sim = TomoSimulator(build_ray_matrix(mesh, survey))
    truth = make_case1(mesh)
    d_clean = sim.predict(truth)
    return mesh, sim, truth, d_clean


def _case1_network(mesh, seed):
    """Untrained case-1 network (identity encoding, desk widths) and its
    encoded coordinates."""
    z = encode(normalized_centers(mesh, 0.0, 1.0), "identity")
    mlp = init_kaiming((z.shape[1],) + DESK_HIDDEN + (1,),
                       output_activation="tanh", output_scale=5e-3,
                       output_offset=1e-3, seed=seed)
    return mlp, z


def _nfs_case1(mesh, sim, d_obs, w_d, seed, epochs, lr=1e-3):
    mlp, z = _case1_network(mesh, seed)
    return nfs_invert(sim, d_obs, w_d, mlp, z, epochs=epochs,
                      learning_rate=lr)


# --- criteria -------------------------------------------------------------


def test_criterion_1_parameter_count():
    with criterion(1, "263809 trainable parameters for the reference "
                      "architecture (identity encoding)"):
        dims = (2,) + PAPER_HIDDEN + (1,)
        assert param_count(dims) == 263809
        assert init_kaiming(dims).param_count == 263809


def test_criterion_2_survey_enumeration():
    with criterion(2, "dipole-dipole 700 m line / 25 m stations / max 24 "
                      "receivers gives exactly 348 data"):
        survey = build_dipole_dipole_survey(700.0, 25.0, 24)
        assert survey.n_data == 348


def test_criterion_3_tomography_forward_oracle():
    with criterion(3, "uniform 1000 m/s: travel times = ray length / 1000 "
                      "and row sums = ray lengths, both within 1e-9"):
        mesh = build_tomo_mesh(64, 128, 1.0, 1.0)
        survey = build_crosshole_survey(mesh, 1.0)
        rm = build_ray_matrix(mesh, survey)
        assert rm.A.shape[0] == 16384
        t = rm.A @ np.full(mesh.n_cells, 1.0 / 1000.0)
        want = rm.ray_lengths / 1000.0
        assert np.max(np.abs(t - want) / want) < 1e-9
        sums = np.asarray(rm.A.sum(axis=1)).ravel()
        assert np.max(np.abs(sums - rm.ray_lengths) / rm.ray_lengths) < 1e-9


def test_criterion_4_dcr_analytic_oracle():
    with criterion(4, "uniform half-space potentials match "
                      "-(rho I / pi) ln r + C within 2%"):
        rho = 100.0
        mesh = build_dcr_mesh(80, 24, 5.0, 5.0, 8, 1.5)
        system = assemble_system(mesh, np.full(mesh.n_cells, 1.0 / rho))
        centers = mesh.x_centers
        src_col = int(np.argmin(np.abs(centers - 200.0)))
        b = np.zeros(mesh.n_cells)
        b[src_col] = 1.0
        phi = system.solve(b)
        # receivers >= 3 cells from the source; the Dirichlet sides are
        # ~370 m of padding away (>> 5 cells)
        offs = np.arange(3, 21)
        r = np.abs(centers[src_col + offs] - centers[src_col])
        pred = phi[src_col + offs]
        an0 = -(rho / np.pi) * np.log(r)
        an = an0 + np.mean(pred - an0)
        assert np.max(np.abs(pred - an) / np.abs(an)) < 0.02


def test_criterion_5_gradient_adjoint_suite():
    with criterion(5, "network vjp vs FD < 1e-5; DCR adjoint vs FD < 1e-4 "
                      "on 20 coordinates; tomography adjoint identity "
                      "< 1e-12"):
        # network weight gradient against central differences (step 1e-6)
        rng = np.random.default_rng(0)
        mlp = init_kaiming((4, 24, 16, 1), output_activation="tanh",
                           output_scale=5e-3, output_offset=1e-3, seed=3)
        z = rng.normal(size=(25, 4))
        u = rng.normal(size=25)
        g = vjp(mlp, z, u)
        w0 = get_weights(mlp)
        idx = rng.choice(mlp.param_count, 20, replace=False)
        h = 1e-6
        for j in idx:
            wp, wm = w0.copy(), w0.copy()
            wp[j] += h
            wm[j] -= h
            set_weights(mlp, wp)
            fp = float(u @ forward(mlp, z))
            set_weights(mlp, wm)
            fm = float(u @ forward(mlp, z))
            fd = (fp - fm) / (2 * h)
            assert abs(g[j] - fd) / max(abs(fd), 1e-8) < 1e-5
        set_weights(mlp, w0)

        # DCR adjoint-state gradient against central differences
        from nfinv.dcr import DcrSimulator
        mesh = build_dcr_mesh(20, 8, 5.0, 5.0, 4, 1.5)
        survey = build_dipole_dipole_survey(100.0, 25.0, 24)
        sim = DcrSimulator(mesh, survey, background_sigma=0.01)
        m = np.full(mesh.n_active, -2.0) + rng.normal(0, 0.1, mesh.n_active)
        v = rng.normal(size=survey.n_data)
        sim.predict(m)
        grad = sim.gradient(v)
        hm = 1e-5
        for j in rng.choice(mesh.n_active, 20, replace=False):
            mp, mm = m.copy(), m.copy()
            mp[j] += hm
            mm[j] -= hm
            fd = (v @ sim.predict(mp) - v @ sim.predict(mm)) / (2 * hm)
            assert abs(grad[j] - fd) / max(abs(fd), 1e-12) < 1e-4

        # tomography adjoint identity
        tmesh = build_tomo_mesh(16, 32, 1.0, 1.0)
        tsim = TomoSimulator(build_ray_matrix(
            tmesh, build_crosshole_survey(tmesh, 2.0)))
        s = rng.normal(size=tmesh.n_cells)
        uu = rng.normal(size=tsim.ray_matrix.A.shape[0])
        lhs = float(tsim.predict(s) @ uu)
        rhs = float(s @ tsim.gradient(uu))
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-12


def test_criterion_6_beta_schedule():
    with criterion(6, "beta(0) = 1 and beta(tau) = 1/e to machine "
                      "precision"):
        for tau in (1.0, 800.0, 3.7):
            assert cooling_beta(0, tau) == 1.0
            assert cooling_beta(tau, tau) == np.exp(-1.0)


def test_criterion_8_svd_properties():
    with criterion(8, "converged case-1 network: U orthonormal (1e-6), "
                      "spectrum nonincreasing, l1/l10 > 3, truncated SVD "
                      "vs LAPACK top-10 within 1e-3"):
        # identity encoding (the weight-Jacobian analysis setting) on a
        # grid and network small enough for an exact dense SVD
        mesh = build_tomo_mesh(31, 62, 1.0, 1.0)
        survey = build_crosshole_survey(mesh, 1.0)
        sim = TomoSimulator(build_ray_matrix(mesh, survey))
        truth = make_case1(mesh)
        d_obs, w_d = add_noise(sim.predict(truth), 0.020, seed=0)
        grid = normalized_centers(mesh, 0.0, 1.0)
        z = encode(grid, "identity")
        mlp = init_kaiming((2, 24, 48, 48, 48, 48, 24, 1),
                           output_activation="tanh", output_scale=5e-3,
                           output_offset=1e-3, seed=0)
        assert mlp.param_count <= 20000
        nfs_invert(sim, d_obs, w_d, mlp, z, epochs=600, learning_rate=1e-3)

        J = weight_jacobian(mlp, z, max_bytes=2 ** 31)
        assert J.shape[0] <= 2000
        res = truncated_svd(J, k=12)
        assert np.max(np.abs(res.U.T @ res.U - np.eye(12))) < 1e-6
        assert np.all(np.diff(res.values) <= 1e-12)
        assert res.values[0] / res.values[9] > 3.0
        exact = np.linalg.svd(J, compute_uv=False)[:10]
        rel = np.abs(res.values[:10] - exact) / exact
        assert np.max(rel) < 1e-3


@pytest.fixture(scope="module")
def case1_nfs_runs(case1_desk):
    """Three seeded unregularized network inversions of desk case 1.

    Identity encoding (the least artifact-prone configuration measured),
    fixed 800-epoch budget, learning rate 1e-3.
    """
    mesh, sim, truth, d_clean = case1_desk
    runs = []
    for seed in (0, 1, 2):
        d_obs, w_d = add_noise(d_clean, 0.020, seed=seed)
        result = _nfs_case1(mesh, sim, d_obs, w_d, seed, epochs=800)
        runs.append((seed, d_obs, w_d, result))
    return runs


def _case1_metrics(model, truth):
    bg = 1e-3
    off = truth == bg
    rmse = float(np.sqrt(np.mean((model - truth) ** 2)))
    artifact = float(np.sum((model[off] - bg) ** 2))
    return rmse, artifact


def test_criterion_7_artifact_suppression_matched_misfit(case1_desk,
                                                         case1_nfs_runs):
    """Criterion 7: matched final misfit (+/- 10%), shared starting model.

    Both methods start from the same model: the untrained network's output
    m(w0) for that seed, built by the same construction the network run
    trains.  Starting the descent at the uniform background instead would
    hand it the answer the artifact metric measures against (it scores 0
    before its first step), and its updates lie in range(A^T), so it never
    leaves the background in the ray matrix's null space; the comparison
    would then measure the starting points, not what each method's updates
    add.  The descent iterate compared is the one whose misfit is nearest
    the network's: the trial step of the descent grows after every
    accepted step, so near the noise floor one iterate moves the misfit by
    tens of percent and the first iterate below the target can land
    outside the band.  README.md ("Tests and acceptance suite") records
    the measured numbers under both protocols.
    """
    with criterion(7, "case 1: network inversion beats unregularized "
                      "descent from the same initial model, compared at "
                      "the descent iterate nearest the network's misfit "
                      "(+/- 10%), on RMSE and artifact energy (3 seeds)"):
        mesh, sim, truth, d_clean = case1_desk
        rows = []
        for seed, d_obs, w_d, res_n in case1_nfs_runs:
            mlp0, z0 = _case1_network(mesh, seed)
            m0 = forward(mlp0, z0)
            target = res_n.final_misfit
            probe = conventional_invert(
                sim, d_obs, w_d, m0, reg=None, optimizer="gradient_descent",
                max_iterations=8000, target_misfit=target)
            j = int(np.argmin(np.abs(probe.misfit_history - target)))
            res_c = conventional_invert(
                sim, d_obs, w_d, m0, reg=None, optimizer="gradient_descent",
                max_iterations=j)
            # matched within +/- 10%, on the model that is scored
            assert abs(res_c.final_misfit - target) / target <= 0.10, (
                f"seed {seed}: descent misfit {res_c.final_misfit:.1f} at "
                f"iterate {j} vs network {target:.1f}")
            rows.append((_case1_metrics(res_n.model, truth),
                         _case1_metrics(res_c.model, truth)))
        rmse_n = np.mean([r[0][0] for r in rows])
        rmse_c = np.mean([r[1][0] for r in rows])
        art_n = np.mean([r[0][1] for r in rows])
        art_c = np.mean([r[1][1] for r in rows])
        assert rmse_n < rmse_c and art_n < art_c, (
            f"from the shared initial model at matched misfit, seed-mean "
            f"RMSE network {rmse_n:.5f} vs descent {rmse_c:.5f}; artifact "
            f"energy network {art_n:.5f} vs descent {art_c:.5f} "
            f"(criterion expects the network to win both)")


def test_artifact_suppression_at_natural_stopping(case1_desk,
                                                  case1_nfs_runs):
    """Companion property (not a numbered criterion): same comparison with
    the run-to-budget protocol, where the unregularized conventional run keeps
    iterating to its fixed budget (it has no noise-referenced stop) and
    overfits, while the network run plateaus near the noise floor.
    """
    with criterion(0, "case 1 companion: network inversion beats "
                      "run-to-budget unregularized descent on RMSE and "
                      "artifact energy (3 seeds)"):
        mesh, sim, truth, d_clean = case1_desk
        rows = []
        for seed, d_obs, w_d, res_n in case1_nfs_runs:
            res_c = conventional_invert(
                sim, d_obs, w_d, np.full(mesh.n_cells, 1e-3), reg=None,
                optimizer="gradient_descent", max_iterations=800)
            rows.append((_case1_metrics(res_n.model, truth),
                         _case1_metrics(res_c.model, truth)))
        rmse_n = np.mean([r[0][0] for r in rows])
        rmse_c = np.mean([r[1][0] for r in rows])
        art_n = np.mean([r[0][1] for r in rows])
        art_c = np.mean([r[1][1] for r in rows])
        assert rmse_n < rmse_c
        assert art_n < art_c


def test_unregularized_network_loss_decreases_per_window(case1_nfs_runs):
    """With beta = 0 and linear physics the misfit falls over every
    100-epoch window (window means, 3 seeds); once a run reaches its
    converged plateau (within 1% of the final level) ties inside a 0.1%
    band are statistical noise, not systematic increase.
    """
    with criterion(0, "case 1 companion: misfit decreases over every "
                      "100-epoch window of the network runs (3 seeds)"):
        for _, _, _, res in case1_nfs_runs:
            h = res.misfit_history
            means = [h[t:t + 100].mean() for t in range(0, len(h) - 99, 100)]
            plateau = means[-1]
            for a, b in zip(means[:-1], means[1:]):
                if a > 1.01 * plateau:
                    assert b < a
                else:
                    assert b <= 1.001 * a


def _hf_energy(m: np.ndarray, nx: int, nz: int, cut: float = 0.125) -> float:
    """Power above the Nyquist/4 band (cycles per cell), Hann-windowed.

    The window keeps smooth non-periodic trends (ramps, blobs) from
    leaking broadband energy into the high-frequency band.
    """
    g = m.reshape(nz, nx)
    g = (g - g.mean()) * np.hanning(nz)[:, None] * np.hanning(nx)[None, :]
    F = np.fft.fft2(g)
    kx = np.fft.fftfreq(nx)
    kz = np.fft.fftfreq(nz)
    K = np.sqrt(kx[None, :] ** 2 + kz[:, None] ** 2)
    return float(np.sum(np.abs(F[K > cut]) ** 2) / (nx * nz))


def test_criterion_9_encoding_ablation():
    with criterion(9, "case 2: gaussian encoding recovers more "
                      "high-frequency energy than identity at matched "
                      "misfit (3 seeds)"):
        nx, nz = 32, 64
        mesh = build_tomo_mesh(nx, nz, 1.0, 1.0)
        survey = build_crosshole_survey(mesh, 1.0)
        sim = TomoSimulator(build_ray_matrix(mesh, survey))
        truth = make_case2(mesh, gaussian_random_field(
            nx, nz, 1.0, 1.0, variance=100.0 ** 2, len_x=12.0, len_z=8.0,
            seed=11))
        d_clean = sim.predict(truth)
        n = survey.n_data
        target = 1.05 * n / 2  # both encodings reach this comfortably

        hf = {"identity": [], "gaussian": []}
        finals = {"identity": [], "gaussian": []}
        grid = normalized_centers(mesh, -1.0, 1.0)
        for seed in (0, 1, 2):
            d_obs, w_d = add_noise(d_clean, 0.020, seed=seed)
            for kind in ("identity", "gaussian"):
                z = encode(grid, kind,
                           b=gaussian_frequencies(128, 0.5, seed=100 + seed))
                mlp = init_kaiming((z.shape[1],) + DESK_HIDDEN + (1,),
                                   output_activation="tanh",
                                   output_scale=5e-3, output_offset=1e-3,
                                   seed=seed)
                res = nfs_invert(sim, d_obs, w_d, mlp, z, epochs=400,
                                 learning_rate=1e-3, target_misfit=target)
                assert res.converged, f"{kind} seed {seed} missed the target"
                hf[kind].append(_hf_energy(res.model, nx, nz))
                finals[kind].append(res.final_misfit)

        # matched misfit: both stopped at the common target
        for i, g in zip(finals["identity"], finals["gaussian"]):
            assert abs(i - g) / g <= 0.10
        # sharper detail with the gaussian features, every seed and on mean
        for i, g in zip(hf["identity"], hf["gaussian"]):
            assert g > i
        assert np.mean(hf["gaussian"]) > np.mean(hf["identity"])


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "rerunning a manifest reproduces byte-identical CSV "
                       "outputs"):
        man = default_manifest(1, method="nfs", seed=4)
        man["mesh"] = {"nx": 12, "nz": 16, "dx": 1.0, "dz": 1.0}
        man["survey"] = {"spacing": 2.0}
        man["epochs"] = 10
        man["network"]["hidden"] = [16, 16]
        run_case(man, tmp_path / "a")
        run_case(man, tmp_path / "b")
        compared = 0
        for p in sorted((tmp_path / "a").glob("*.csv")):
            ha = hashlib.sha256(p.read_bytes()).hexdigest()
            hb = hashlib.sha256((tmp_path / "b" / p.name).read_bytes()
                                ).hexdigest()
            assert ha == hb, p.name
            compared += 1
        assert compared >= 4
