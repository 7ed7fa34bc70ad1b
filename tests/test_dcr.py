import csv
import threading

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from nfinv import blas, dcr
from nfinv.dcr import (
    DcrSimulator,
    DcrSurvey,
    FvSystem,
    apparent_resistivity,
    assemble_system,
    build_dipole_dipole_survey,
    electrode_cells,
    write_dcr_data_csv,
)
from nfinv.errors import GeometryError, SolverError
from nfinv.manifest import default_manifest
from nfinv.mesh import build_dcr_mesh, embed_core
from nfinv.runner import assemble


def small_mesh():
    return build_dcr_mesh(20, 8, 5.0, 5.0, 4, 1.5)


def small_survey():
    # 5 electrodes, 2 transmitting dipoles, 3 data
    return build_dipole_dipole_survey(100.0, 25.0, 24)


def predict_uniform(mesh, survey, sigma):
    """A simulator and its data on a uniform half-space of ``sigma``; the
    padding holds ``sigma`` too."""
    sim = DcrSimulator(mesh, survey, background_sigma=sigma)
    return sim, sim.predict(np.full(mesh.n_active, np.log10(sigma)))


def mesh_order_operator(mesh, system):
    """The system's L, held in band order, permuted back to mesh order."""
    rank = mesh.band_pattern[0]
    return system.L.tocsr()[rank][:, rank].tocsc()


class TestSurveyEnumeration:
    def test_paper_line_348_data(self):
        survey = build_dipole_dipole_survey(700.0, 25.0, 24)
        assert len(survey.electrode_x) == 29
        assert survey.n_data == 348

    def test_four_electrodes_one_datum(self):
        survey = build_dipole_dipole_survey(75.0, 25.0, 24)
        assert len(survey.electrode_x) == 4
        assert survey.n_data == 1
        assert survey.src_dipoles == ((0, 1),)
        assert survey.rx_dipoles == (((2, 3),),)

    def test_degenerate_line_yields_no_data(self):
        # runner.assemble turns an empty survey into a manifest error
        survey = build_dipole_dipole_survey(50.0, 25.0, 24)
        assert survey.n_data == 0

    def test_max_rx_caps_receivers(self):
        survey = build_dipole_dipole_survey(700.0, 25.0, 3)
        assert all(len(r) <= 3 for r in survey.rx_dipoles)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            build_dipole_dipole_survey(0.0, 25.0, 24)
        with pytest.raises(ValueError):
            build_dipole_dipole_survey(700.0, 25.0, 0)


class TestAssembly:
    def test_uniform_interior_stencil(self):
        mesh = small_mesh()
        sigma = np.full(mesh.n_cells, 0.02)
        L = mesh_order_operator(mesh, assemble_system(mesh, sigma))
        # interior core cell away from padding: uniform 5 m cells
        c = 3 * mesh.nx_full + mesh.n_pad + 10
        row = L[c].toarray().ravel()
        # four neighbors at sigma * (face area / center distance) = 0.02*5/5
        neighbors = [c - 1, c + 1, c - mesh.nx_full, c + mesh.nx_full]
        assert np.allclose(row[neighbors], -0.02)
        assert row[c] == pytest.approx(0.08)

    def test_symmetry_exact(self):
        mesh = small_mesh()
        sigma = np.random.default_rng(0).uniform(1e-3, 1.0, mesh.n_cells)
        L = mesh_order_operator(mesh, assemble_system(mesh, sigma))
        diff = (L - L.T).toarray()
        assert np.max(np.abs(diff)) == 0.0

    def test_positive_definite_probe(self):
        mesh = small_mesh()
        sigma = np.random.default_rng(1).uniform(1e-3, 1.0, mesh.n_cells)
        L = mesh_order_operator(mesh, assemble_system(mesh, sigma))
        rng = np.random.default_rng(2)
        for _ in range(5):
            v = rng.normal(size=mesh.n_cells)
            assert v @ (L @ v) > 0.0

    def test_rejects_nonpositive_sigma(self):
        mesh = small_mesh()
        sigma = np.full(mesh.n_cells, 0.01)
        sigma[17] = 0.0
        with pytest.raises(ValueError):
            assemble_system(mesh, sigma)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_sigma(self, bad):
        mesh = small_mesh()
        sigma = np.full(mesh.n_cells, 0.01)
        sigma[17] = bad
        with pytest.raises(ValueError, match="finite and positive"):
            assemble_system(mesh, sigma)

    def test_offdiag_sign_structure(self):
        mesh = small_mesh()
        L = mesh_order_operator(
            mesh, assemble_system(mesh, np.full(mesh.n_cells, 0.1))).tocoo()
        off = L.data[L.row != L.col]
        assert np.all(off < 0)
        assert np.all(L.diagonal() > 0)


class TestAnalyticOracle:
    def test_half_space_line_source_potentials(self):
        # pure pole injection against phi = -(rho I / pi) ln r + C
        rho = 100.0
        mesh = build_dcr_mesh(80, 24, 5.0, 5.0, 8, 1.5)
        sigma = np.full(mesh.n_cells, 1.0 / rho)
        system = assemble_system(mesh, sigma)

        src_x = 200.0
        centers = mesh.x_centers
        src_col = int(np.argmin(np.abs(centers - src_x)))
        b = np.zeros(mesh.n_cells)
        b[src_col] = 1.0  # +I only; current exits via Dirichlet sides
        phi = system.solve(b)

        # surface receivers 3 to 20 cells from the source
        offs = np.arange(3, 21)
        rx_cols = src_col + offs
        r = np.abs(centers[rx_cols] - centers[src_col])
        pred = phi[rx_cols]
        an0 = -(rho * 1.0 / np.pi) * np.log(r)
        c_fit = np.mean(pred - an0)
        an = an0 + c_fit
        assert np.max(np.abs(pred - an) / np.abs(an)) < 0.02

        # pole-pole differences are constant-free; the discrete log kernel
        # needs ~5 cells of standoff before local differences settle
        d_pred = pred[2:-1] - pred[2 + 1:]
        d_an = an0[2:-1] - an0[2 + 1:]
        assert np.max(np.abs(d_pred - d_an) / np.abs(d_an)) < 0.02

    def test_refinement_sanity(self):
        # halving cell size changes uniform half-space data by < 1%;
        # padding counts keep the truncation boundary ~1 km out in both runs
        def run(dx, n_pad):
            n = int(200 / dx)
            mesh = build_dcr_mesh(n, int(60 / dx), dx, dx, n_pad, 1.5)
            survey = build_dipole_dipole_survey(100.0, 25.0, 24, x0=50.0)
            return predict_uniform(mesh, survey, 0.01)[1]

        coarse = run(2.5, 12)
        fine = run(1.25, 14)
        assert np.max(np.abs(fine - coarse) / np.abs(fine)) < 0.01


class TestPredict:
    def test_reciprocity(self):
        mesh = small_mesh()
        rng = np.random.default_rng(5)
        m = np.log10(rng.uniform(0.005, 0.05, mesh.n_active))
        xs = np.arange(5) * 25.0
        fwd = DcrSurvey(xs, ((0, 1),), (((3, 4),),))
        rev = DcrSurvey(xs, ((3, 4),), (((0, 1),),))
        d1 = DcrSimulator(mesh, fwd, background_sigma=0.01).predict(m)
        d2 = DcrSimulator(mesh, rev, background_sigma=0.01).predict(m)
        assert d1[0] == pytest.approx(d2[0], rel=1e-8)

    def test_sigma_scaling(self):
        mesh = small_mesh()
        survey = small_survey()
        d1 = predict_uniform(mesh, survey, 0.01)[1]
        d2 = predict_uniform(mesh, survey, 0.04)[1]
        assert np.allclose(d2, d1 / 4.0, rtol=1e-10)

    def test_electrode_outside_core(self):
        mesh = small_mesh()
        survey = build_dipole_dipole_survey(100.0, 25.0, 24, x0=50.0)
        with pytest.raises(GeometryError):
            electrode_cells(mesh, survey)


class TestGradient:
    def test_zero_cotangent(self):
        mesh = small_mesh()
        survey = small_survey()
        sim, _ = predict_uniform(mesh, survey, 0.01)
        g = sim.gradient(np.zeros(survey.n_data))
        assert np.all(g == 0.0)

    def test_matches_finite_differences(self):
        mesh = small_mesh()
        survey = small_survey()
        rng = np.random.default_rng(7)
        m = np.full(mesh.n_active, -2.0) + rng.normal(0, 0.1, mesh.n_active)
        v = rng.normal(size=survey.n_data)

        sim = DcrSimulator(mesh, survey, background_sigma=0.01)
        sim.predict(m)
        g = sim.gradient(v)
        assert g.shape == (mesh.n_active,)

        h = 1e-5
        idx = rng.choice(mesh.n_active, size=20, replace=False)
        for j in idx:
            mp, mm = m.copy(), m.copy()
            mp[j] += h
            mm[j] -= h
            fd = (v @ sim.predict(mp) - v @ sim.predict(mm)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-4)

    def test_gradient_length_on_paper_mesh(self):
        mesh = build_dcr_mesh(200, 45, 5.0, 5.0, 7, 1.5)
        survey = build_dipole_dipole_survey(700.0, 25.0, 24, x0=150.0)
        sim = DcrSimulator(mesh, survey, background_sigma=0.01)
        sim.predict(np.full(mesh.n_active, -2.0))
        g = sim.gradient(np.ones(survey.n_data))
        assert g.shape == (9000,)

    def test_adjoint_consistency(self):
        mesh = small_mesh()
        survey = small_survey()
        rng = np.random.default_rng(9)
        sim = DcrSimulator(mesh, survey, background_sigma=0.01)
        sim.predict(np.full(mesh.n_active, -2.0)
                    + rng.normal(0, 0.2, mesh.n_active))
        dm = rng.normal(size=mesh.n_active)
        u = rng.normal(size=survey.n_data)
        lhs = float(sim.jvp(dm) @ u)
        rhs = float(dm @ sim.gradient(u))
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-8


def test_apparent_resistivity_uniform():
    # must recover the true resistivity on a uniform half-space
    rho = 50.0
    mesh = build_dcr_mesh(80, 24, 5.0, 5.0, 8, 1.5)
    survey = build_dipole_dipole_survey(200.0, 25.0, 4, x0=100.0)
    _, d = predict_uniform(mesh, survey, 1.0 / rho)
    rho_a = apparent_resistivity(survey, d)
    assert np.allclose(rho_a, rho, rtol=0.05)


def test_data_csv_round_trip(tmp_path):
    survey = small_survey()
    d = np.array([0.31, -0.12, 0.045])
    u = np.array([0.01, 0.01, 0.02])
    path = tmp_path / "dcr.csv"
    write_dcr_data_csv(path, survey, d, u)
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    d2, u2 = table[:, 4], table[:, 5]
    assert np.array_equal(d2, d)
    assert np.array_equal(u2, u)
    header = path.read_text().splitlines()[0]
    assert header.startswith("A_x,B_x,M_x,N_x,dV_volts,uncertainty_volts")


# ---------------------------------------------- pole potentials vs dipoles

def desk_case3():
    """Desk case-3 mesh and its centered dipole-dipole line (78 data)."""
    mc = default_manifest(3, "conventional")["mesh"]
    mesh = build_dcr_mesh(mc["nx_core"], mc["nz_core"], mc["dx"], mc["dz"],
                          mc["n_pad"], mc["pad_factor"])
    lo, hi = mesh.core_x_extent
    return mesh, build_dipole_dipole_survey(350.0, 25.0, 24,
                                            x0=lo + 0.5 * (hi - lo - 350.0))


def shared_reordered_survey():
    """Non-adjacent dipoles sharing electrodes, some listed B before A."""
    xs = 150.0 + 25.0 * np.arange(8)
    src = ((0, 3), (5, 2), (6, 1), (3, 4))
    rx = (((4, 7), (6, 5), (2, 1)),
          ((7, 0), (3, 6)),
          ((4, 2), (0, 7), (3, 5)),
          ((6, 0),))
    return DcrSurvey(xs, src, rx, current=2.5)


def dipole_reference(mesh, survey, m, v, dm):
    """Data, gradient of v . data and J dm, one solve per dipole.

    The forward fields come from one solve per source dipole, the adjoint
    fields from one solve per source's receiver dipoles, and J dm from one
    solve per source of the perturbed operator applied to its field.
    """
    sigma = embed_core(mesh, 10.0 ** m, 0.01)
    system = assemble_system(mesh, sigma)
    cells = electrode_cells(mesh, survey)
    n, n_src = mesh.n_cells, len(survey.src_dipoles)
    fwd = np.zeros((n, n_src))
    adj = np.zeros((n, n_src))
    k = 0
    for s, (a, b) in enumerate(survey.src_dipoles):
        fwd[cells[a], s] += survey.current
        fwd[cells[b], s] -= survey.current
        for mm, nn in survey.rx_dipoles[s]:
            adj[cells[mm], s] += v[k]
            adj[cells[nn], s] -= v[k]
            k += 1
    phi = system.solve(fwd)
    lam = system.solve(adj)

    fi, fj, area, di, dj, bc, b_area, b_dist = mesh.faces
    g = area / (di / sigma[fi] + dj / sigma[fj])
    dg_i = g * g * di / (area * sigma[fi] ** 2)
    dg_j = g * g * dj / (area * sigma[fj] ** 2)
    dgb = b_area / b_dist
    act = mesh.active_indices

    wf = np.einsum("fs,fs->f", lam[fi] - lam[fj], phi[fi] - phi[fj])
    wb = np.einsum("fs,fs->f", lam[bc], phi[bc])
    grad = np.zeros(n)
    np.add.at(grad, fi, -wf * dg_i)
    np.add.at(grad, fj, -wf * dg_j)
    np.add.at(grad, bc, -wb * dgb)

    dsigma = np.zeros(n)
    dsigma[act] = sigma[act] * np.log(10.0) * dm
    flux = (dg_i * dsigma[fi] + dg_j * dsigma[fj])[:, None] \
        * (phi[fi] - phi[fj])
    r = np.zeros_like(phi)
    np.add.at(r, fi, flux)
    np.add.at(r, fj, -flux)
    np.add.at(r, bc, (dgb * dsigma[bc])[:, None] * phi[bc])
    dphi = -system.solve(r)

    data, jdm = [], []
    for s in range(n_src):
        for mm, nn in survey.rx_dipoles[s]:
            data.append(phi[cells[mm], s] - phi[cells[nn], s])
            jdm.append(dphi[cells[mm], s] - dphi[cells[nn], s])
    return (np.array(data), grad[act] * sigma[act] * np.log(10.0),
            np.array(jdm))


@pytest.mark.parametrize("which", ["desk_dipole_dipole", "shared_reordered",
                                   "unpadded"])
def test_pole_potentials_match_dipole_solves(which):
    mesh, survey = desk_case3()
    if which == "shared_reordered":
        survey = shared_reordered_survey()
    elif which == "unpadded":
        # boundary faces on active cells: their conductances vary too
        mesh, survey = build_dcr_mesh(20, 8, 5.0, 5.0, 0, 1.5), small_survey()
    rng = np.random.default_rng(11)
    m = -2.0 + rng.normal(0.0, 0.3, mesh.n_active)
    v = rng.normal(size=survey.n_data)
    dm = rng.normal(size=mesh.n_active)
    want = dipole_reference(mesh, survey, m, v, dm)

    sim = DcrSimulator(mesh, survey, background_sigma=0.01)
    got = (sim.predict(m), sim.gradient(v), sim.jvp(dm))
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


def test_one_solve_per_predict_and_none_per_product(monkeypatch):
    mesh, survey = desk_case3()
    columns = []
    solve = FvSystem.solve

    def counted(self, b):
        columns.append(b.shape[1] if b.ndim == 2 else 1)
        return solve(self, b)

    monkeypatch.setattr(FvSystem, "solve", counted)
    sim = DcrSimulator(mesh, survey, background_sigma=0.01)
    rng = np.random.default_rng(12)
    m = -2.0 + rng.normal(0.0, 0.1, mesh.n_active)
    sim.predict(m)
    assert columns == [len(survey.electrode_x)]
    for _ in range(3):
        sim.gradient(rng.normal(size=survey.n_data))
        sim.jvp(rng.normal(size=mesh.n_active))
    assert columns == [len(survey.electrode_x)]
    sim.predict(m + 0.1)
    assert columns == [len(survey.electrode_x)] * 2


def test_shared_reordered_reciprocity_and_adjoint():
    mesh = desk_case3()[0]
    survey = shared_reordered_survey()
    swapped = DcrSurvey(survey.electrode_x,
                        tuple(r for rx in survey.rx_dipoles for r in rx),
                        tuple((s,) for s, rx in zip(survey.src_dipoles,
                                                    survey.rx_dipoles)
                              for _ in rx),
                        survey.current)
    rng = np.random.default_rng(13)
    m = -2.0 + rng.normal(0.0, 0.2, mesh.n_active)
    sim = DcrSimulator(mesh, survey, background_sigma=0.01)
    d = sim.predict(m)
    d_sw = DcrSimulator(mesh, swapped, background_sigma=0.01).predict(m)
    assert np.max(np.abs(d_sw - d)) <= 1e-8 * np.max(np.abs(d))

    dm = rng.normal(size=mesh.n_active)
    u = rng.normal(size=survey.n_data)
    lhs = float(sim.jvp(dm) @ u)
    rhs = float(dm @ sim.gradient(u))
    assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-8


def reference_case(which):
    """Mesh and survey of the dipole-solve reference comparisons."""
    if which == "unpadded":
        # boundary faces on active cells: their conductances vary too
        return build_dcr_mesh(20, 8, 5.0, 5.0, 0, 1.5), small_survey()
    mesh, survey = desk_case3()
    if which == "shared_reordered":
        survey = shared_reordered_survey()
    return mesh, survey


@pytest.mark.parametrize("which", ["desk_dipole_dipole", "shared_reordered",
                                   "unpadded"])
def test_sensitivity_matches_dipole_solves(which):
    mesh, survey = reference_case(which)
    rng = np.random.default_rng(15)
    m = -2.0 + rng.normal(0.0, 0.3, mesh.n_active)
    v = rng.normal(size=survey.n_data)
    dm = rng.normal(size=mesh.n_active)
    sim = DcrSimulator(mesh, survey, background_sigma=0.01)
    sim.predict(m)
    J = sim.sensitivity()
    assert J.shape == (survey.n_data, mesh.n_active)
    # an F-ordered J would change the rounding of every product with it
    assert J.flags.c_contiguous

    _, grad, jdm = dipole_reference(mesh, survey, m, v, dm)
    pairs = [(J @ dm, jdm), (J.T @ v, grad)]
    # single rows: the gradient of one datum
    for d in sorted({0, survey.n_data // 2, survey.n_data - 1}):
        unit = np.zeros(survey.n_data)
        unit[d] = 1.0
        pairs.append((J[d], dipole_reference(mesh, survey, m, unit, dm)[1]))
    for got, want in pairs:
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("which", ["desk_dipole_dipole", "shared_reordered",
                                   "unpadded"])
def test_sensitivity_transpose_is_gradient(which):
    mesh, survey = reference_case(which)
    rng = np.random.default_rng(16)
    sim = DcrSimulator(mesh, survey, background_sigma=0.01)
    sim.predict(-2.0 + rng.normal(0.0, 0.3, mesh.n_active))
    J = sim.sensitivity()
    for _ in range(3):
        v = rng.normal(size=survey.n_data)
        g = sim.gradient(v)
        assert np.max(np.abs(J.T @ v - g)) <= 1e-12 * np.max(np.abs(g))
        dm = rng.normal(size=mesh.n_active)
        assert np.array_equal(sim.jvp(dm), J @ dm)
    with pytest.raises(ValueError, match="dm must"):
        sim.jvp(dm[:-1])


@pytest.mark.parametrize("which", ["desk_dipole_dipole", "unpadded"])
def test_sensitivity_equals_two_term_sum_bitwise(which):
    # the interior-face term plus the boundary-face term, datum by datum;
    # on a padded mesh the boundary term is all zeros and is skipped
    mesh, survey = reference_case(which)
    rng = np.random.default_rng(17)
    sim = DcrSimulator(mesh, survey, background_sigma=0.01)
    sim.predict(-2.0 + rng.normal(0.0, 0.3, mesh.n_active))
    J = sim.sensitivity()
    fi, fj, *_, bc, _, _ = mesh.faces
    dg_i, dg_j, dgb = sim._dg()
    terms = [(sim.phi[fi] - sim.phi[fj],
              sim._face_to_active((fi, fj), (dg_i, dg_j))),
             (sim.phi[bc], sim._face_to_active((bc,), (dgb,)))]
    assert (terms[1][1].nnz == 0) == (which != "unpadded")
    want = np.array([
        np.add(*(C @ ((p[:, m] - p[:, n]) * (p[:, a] - p[:, b]))
                 for p, C in terms))
        for a, b, m, n in survey.abmn])
    assert np.array_equal(J, want)
    assert np.array_equal(np.signbit(J), np.signbit(want))


def test_sensitivity_kept_per_predict_without_solve(monkeypatch):
    mesh, survey = desk_case3()
    sim = DcrSimulator(mesh, survey, background_sigma=0.01)
    for derivative in (sim.sensitivity, lambda: sim.gradient(np.zeros(
            survey.n_data)), lambda: sim.jvp(np.zeros(mesh.n_active))):
        with pytest.raises(SolverError, match="before any predict"):
            derivative()
    held = []
    solve = FvSystem.solve

    def counted(self, b):
        held.append(sim.phi is not None)
        return solve(self, b)

    monkeypatch.setattr(FvSystem, "solve", counted)
    rng = np.random.default_rng(18)
    m = -2.0 + rng.normal(0.0, 0.1, mesh.n_active)
    sim.predict(m)
    J = sim.sensitivity()
    sim.jvp(rng.normal(size=mesh.n_active))
    assert sim.sensitivity() is J
    assert held == [False]
    sim.predict(m + 0.1)
    # potentials with a built Jacobian are dropped before the next solve;
    # without one they are kept until the new ones exist
    assert held == [False, False]
    phi = sim.phi
    sim.predict(m + 0.2)
    assert held == [False, False, True]
    assert sim.phi is not phi
    assert sim.sensitivity() is not J


def loop_data_csv(path, survey, data_v, uncertainty_v):
    """The per-datum writer the survey index replaced."""
    xs = survey.electrode_x
    unc = np.broadcast_to(np.asarray(uncertainty_v, dtype=float),
                          np.shape(data_v))
    rho = []
    for s, (ia, ib) in enumerate(survey.src_dipoles):
        for im, in_ in survey.rx_dipoles[s]:
            geom = np.log(abs(xs[im] - xs[ib]) * abs(xs[in_] - xs[ia])
                          / (abs(xs[im] - xs[ia]) * abs(xs[in_] - xs[ib])))
            rho.append(np.pi * data_v[len(rho)] / (survey.current * geom))
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["A_x", "B_x", "M_x", "N_x", "dV_volts",
                    "uncertainty_volts", "rho_app_ohm_m"])
        k = 0
        for s, (ia, ib) in enumerate(survey.src_dipoles):
            for im, in_ in survey.rx_dipoles[s]:
                w.writerow([repr(float(xs[ia])), repr(float(xs[ib])),
                            repr(float(xs[im])), repr(float(xs[in_])),
                            repr(float(data_v[k])), repr(float(unc[k])),
                            repr(float(rho[k]))])
                k += 1
    return np.array(rho)


@pytest.mark.parametrize("which", ["desk_dipole_dipole", "shared_reordered"])
def test_indexed_csv_matches_datum_loop(tmp_path, which):
    survey = desk_case3()[1] if which == "desk_dipole_dipole" \
        else shared_reordered_survey()
    rng = np.random.default_rng(14)
    d = rng.normal(0.0, 1e-3, survey.n_data)
    u = np.abs(rng.normal(0.0, 1e-4, survey.n_data))
    rho = loop_data_csv(tmp_path / "loop.csv", survey, d, u)
    write_dcr_data_csv(tmp_path / "indexed.csv", survey, d, u)
    assert (tmp_path / "indexed.csv").read_bytes() \
        == (tmp_path / "loop.csv").read_bytes()
    assert np.array_equal(apparent_resistivity(survey, d), rho)


# ------------------------------------- factorization of the SPD operator

def coo_operator(mesh, sigma):
    """L built COO -> CSC from the faces in mesh order, without the band."""
    fi, fj, *_, bc, b_area, b_dist = mesh.faces
    g = dcr._face_conductance(mesh, sigma)
    gb = b_area * sigma[bc] / b_dist
    rows = np.concatenate([fi, fj, fi, fj, bc])
    cols = np.concatenate([fi, fj, fj, fi, bc])
    vals = np.concatenate([g, g, -g, -g, gb])
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(mesh.n_cells, mesh.n_cells)).tocsc()


class ColamdSystem:
    """The COO-built operator factored by SuperLU with its defaults (COLAMD
    ordering, partial pivoting): a reference independent of FvSystem."""

    def __init__(self, mesh, sigma):
        self.L = coo_operator(mesh, sigma)
        self.solve = spla.splu(self.L).solve


def desk_case3_truth():
    """Desk case-3 mesh, survey and the full-mesh truth conductivity."""
    asm = assemble(default_manifest(3, "conventional"))
    sigma = embed_core(asm.mesh, 10.0 ** asm.truth, 0.01)
    return asm.mesh, asm.survey, asm.truth, sigma


@pytest.mark.parametrize("args", [(100, 24, 5.0, 5.0, 6, 1.5),
                                  (20, 8, 5.0, 5.0, 0, 1.5),
                                  (1, 1, 5.0, 5.0, 0, 1.5),
                                  (1, 5, 5.0, 5.0, 0, 1.5),
                                  (7, 1, 5.0, 5.0, 0, 1.5)],
                         ids=["desk", "unpadded", "one_cell", "one_column",
                              "one_row"])
def test_pattern_operator_equals_coo_operator(args):
    mesh = build_dcr_mesh(*args)
    sigma = 10.0 ** np.random.default_rng(21).uniform(-4, 2, mesh.n_cells)
    system = assemble_system(mesh, sigma)
    kd = mesh.band_pattern[2]
    assert system.L.format == "dia"
    assert set(system.L.offsets) == {0, 1, -1, kd, -kd}
    L = mesh_order_operator(mesh, system)
    ref = coo_operator(mesh, sigma)
    assert np.array_equal(L.indptr, ref.indptr)
    assert np.array_equal(L.indices, ref.indices)
    assert np.max(np.abs(L.data - ref.data)) \
        <= 1e-15 * np.max(np.abs(ref.data))


def test_band_ordering_has_bandwidth_30_on_desk_case3():
    mesh, _, _, sigma = desk_case3_truth()
    rank, _, kd = mesh.band_pattern
    assert (mesh.nx_full, mesh.nz_full, kd) == (112, 30, 30)
    # numbered z fastest, the operator's nonzeros lie within kd places
    L = mesh_order_operator(mesh, assemble_system(mesh, sigma)).tocoo()
    assert np.max(np.abs(rank[L.row] - rank[L.col])) == kd


def test_deep_mesh_is_numbered_x_fastest():
    mesh = build_dcr_mesh(4, 20, 5.0, 5.0, 2, 1.5)  # 8 x 22 cells
    rank, _, kd = mesh.band_pattern
    assert kd == mesh.nx_full == 8
    assert np.array_equal(rank, np.arange(mesh.n_cells))
    sigma = 10.0 ** np.random.default_rng(24).uniform(-3, -1, mesh.n_cells)
    system = assemble_system(mesh, sigma)
    L = mesh_order_operator(mesh, system).tocoo()
    assert np.max(np.abs(rank[L.row] - rank[L.col])) == kd
    b = np.random.default_rng(25).normal(size=(mesh.n_cells, 3))
    ref = ColamdSystem(mesh, sigma).solve(b)
    assert np.max(np.abs(system.solve(b) - ref)) \
        <= 1e-12 * np.max(np.abs(ref))


def test_one_cell_mesh_solves():
    mesh = build_dcr_mesh(1, 1, 5.0, 5.0, 0, 1.5)
    system = assemble_system(mesh, np.array([0.01]))
    x = system.solve(np.array([2.0]))
    assert np.allclose(x, 2.0 / system.L.toarray()[0, 0], rtol=1e-14)


def test_non_positive_definite_band_raises(monkeypatch):
    mesh, _ = desk_case3()
    dpbtrf = dcr.lapack.dpbtrf

    def negated_diagonal(ab, **kwargs):
        ab[0, 5] = -ab[0, 5]  # the diagonal of the sixth cell in the band
        return dpbtrf(ab, **kwargs)

    monkeypatch.setattr(dcr.lapack, "dpbtrf", negated_diagonal)
    with pytest.raises(SolverError,
                       match=r"factorization failed: dpbtrf info 6$"):
        assemble_system(mesh, np.full(mesh.n_cells, 0.01))


@pytest.mark.parametrize("which", ["desk", "unpadded"])
def test_predict_matches_colamd_reference(which, monkeypatch):
    if which == "desk":
        mesh, survey, m, _ = desk_case3_truth()
    else:
        mesh, survey = build_dcr_mesh(20, 8, 5.0, 5.0, 0, 1.5), small_survey()
        m = np.random.default_rng(22).uniform(-3, -1, mesh.n_active)
    d = DcrSimulator(mesh, survey, background_sigma=0.01).predict(m)
    monkeypatch.setattr(dcr, "assemble_system", ColamdSystem)
    ref = DcrSimulator(mesh, survey, background_sigma=0.01).predict(m)
    assert np.max(np.abs(d - ref) / np.abs(ref)) < 1e-12


def test_wide_conductivity_range_passes_residual_check():
    mesh, survey = desk_case3()
    rng = np.random.default_rng(23)
    m = rng.uniform(-4, 2, mesh.n_active)
    m[:2] = -4.0, 2.0
    sim = DcrSimulator(mesh, survey, background_sigma=1e-4)
    d = sim.predict(m)  # SolverError above the 1e-8 residual check
    assert np.all(np.isfinite(d))
    sigma = embed_core(mesh, 10.0 ** m, 1e-4)
    b = rng.normal(size=(mesh.n_cells, 4))
    assemble_system(mesh, sigma).solve(b)


# ---------------------------------------------- direct-solve health

def test_direct_solve_above_residual_raises(monkeypatch):
    mesh, _ = desk_case3()
    system = assemble_system(mesh, np.full(mesh.n_cells, 0.01))
    b = np.random.default_rng(19).normal(size=(mesh.n_cells, 3))
    dpbtrs = dcr._dpbtrs

    def perturbed(factor, x):
        # column 1 of b, whichever block of columns it was solved in
        hit = np.isclose(np.linalg.norm(x, axis=0), np.linalg.norm(b[:, 1]),
                         rtol=1e-12, atol=0.0)
        info = dpbtrs(factor, x)
        x[:, hit] *= 1.0 + 1e-4
        return info

    monkeypatch.setattr(dcr, "_dpbtrs", perturbed)
    with pytest.raises(SolverError, match=r"1 column\(s\) above the 1e-8 "
                                          r"relative residual \(worst \d"):
        system.solve(b)


def test_direct_solve_nan_rhs_raises():
    mesh, _ = desk_case3()
    system = assemble_system(mesh, np.full(mesh.n_cells, 0.01))
    b = np.ones((mesh.n_cells, 3))
    b[7, 1] = np.nan
    with pytest.raises(SolverError, match=r"1 column\(s\) above the 1e-8"):
        system.solve(b)


def test_predict_rejects_nonpositive_conductivity():
    mesh, survey = desk_case3()
    sim = DcrSimulator(mesh, survey, background_sigma=0.01)
    m = np.full(mesh.n_active, -2.0)
    m[:5] = -400.0          # 10**m underflows to 0
    m[5] = np.nan
    with pytest.raises(SolverError, match="6 cell"):
        sim.predict(m)
    m[:6] = 400.0           # 10**m overflows to inf
    with pytest.raises(SolverError, match=r"m in \[-2, 400\]"), \
            np.errstate(over="ignore"):
        sim.predict(m)


def raw_dpbtrs_solve(system, b):
    """f2py's dpbtrs on all columns at once, permuted to band order and
    back: the serial solve that the column split must reproduce."""
    rank = system._rank
    banded = np.empty_like(b)
    banded[rank] = b
    x, info = lapack.dpbtrs(system._factor, banded, lower=1)
    assert info == 0
    return x[rank]


def test_solve_equals_raw_dpbtrs():
    mesh, _ = desk_case3()
    rng = np.random.default_rng(20)
    system = assemble_system(mesh, 10.0 ** rng.normal(-2.0, 0.3, mesh.n_cells))
    b = rng.normal(size=(mesh.n_cells, 16))
    assert np.array_equal(system.solve(b), raw_dpbtrs_solve(system, b))


@pytest.mark.parametrize("cols", [None, 1, 2, 15, 29])
def test_split_solve_equals_raw_dpbtrs(cols):
    # None: a 1-D right-hand side
    mesh, _ = desk_case3()
    rng = np.random.default_rng(20)
    system = assemble_system(mesh, 10.0 ** rng.normal(-2.0, 0.3, mesh.n_cells))
    b = rng.normal(size=mesh.n_cells if cols is None else (mesh.n_cells, cols))
    x = system.solve(b)
    assert x.shape == b.shape and x.flags.c_contiguous
    assert np.array_equal(x, raw_dpbtrs_solve(system, b))


@pytest.mark.parametrize("mesh_args, cols", [
    ((100, 24, 5.0, 5.0, 6, 1.5), 0),   # no right-hand side
    ((7, 1, 5.0, 5.0, 0, 1.5), 3)],     # one row of cells: kd = 1
    ids=["no_columns", "one_row"])
def test_dpbtrs_equals_f2py_dpbtrs(mesh_args, cols):
    mesh = build_dcr_mesh(*mesh_args)
    rng = np.random.default_rng(31)
    system = assemble_system(mesh, 10.0 ** rng.normal(-2.0, 0.3, mesh.n_cells))
    b = rng.normal(size=(mesh.n_cells, cols))
    x = b.copy(order="F")
    assert dcr._dpbtrs(system._factor, x) == 0
    want, info = lapack.dpbtrs(system._factor, b, lower=1)
    assert info == 0
    assert x.shape == want.shape and np.array_equal(x, want)


def test_dpbtrs_refuses_arrays_it_cannot_pass(monkeypatch):
    def no_call():
        raise AssertionError("LAPACK was called")

    mesh = small_mesh()
    factor = assemble_system(mesh, np.full(mesh.n_cells, 0.01))._factor
    x = np.zeros((mesh.n_cells, 2), order="F")
    monkeypatch.setattr(dcr, "_lapack_dpbtrs", no_call)
    for f, b in [(factor, np.ascontiguousarray(x)),
                 (np.ascontiguousarray(factor), x),
                 (factor, x.astype(np.float32)),
                 (factor.astype(np.float32), x.astype(np.float32))]:
        with pytest.raises(ValueError, match="F-ordered float64"):
            dcr._dpbtrs(f, b)


def test_one_core_solves_serially_without_threads(monkeypatch):
    def no_pool():
        raise AssertionError("a worker pool was asked for")

    monkeypatch.setattr(blas, "_cores", lambda: 1)
    monkeypatch.setattr(blas, "_workers", no_pool)
    before = set(threading.enumerate())
    mesh, survey = desk_case3()
    rng = np.random.default_rng(26)
    system = assemble_system(mesh, 10.0 ** rng.normal(-2.0, 0.3, mesh.n_cells))
    b = rng.normal(size=(mesh.n_cells, 15))
    assert np.array_equal(system.solve(b), raw_dpbtrs_solve(system, b))
    sim = DcrSimulator(mesh, survey, background_sigma=0.01)
    sim.predict(-2.0 + rng.normal(0.0, 0.3, mesh.n_active))
    sim.sensitivity()
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("fault", ["residual", "info"])
def test_worker_block_failure_raises_in_caller(fault, monkeypatch):
    mesh, _ = desk_case3()
    system = assemble_system(mesh, np.full(mesh.n_cells, 0.01))
    b = np.random.default_rng(27).normal(size=(mesh.n_cells, 15))
    dpbtrs = dcr._dpbtrs
    faulted = []

    def worker_fault(factor, x):
        info = dpbtrs(factor, x)
        if threading.current_thread() is threading.main_thread():
            return info
        faulted.append(x.shape[1])
        if fault == "info":
            return -7
        x[:, 0] *= 1.0 + 1e-4
        return info

    monkeypatch.setattr(blas, "_cores", lambda: 2)
    monkeypatch.setattr(dcr, "_dpbtrs", worker_fault)
    want = (r"dpbtrs info -7$" if fault == "info"
            else r"1 column\(s\) above the 1e-8 relative residual")
    with pytest.raises(SolverError, match=want):
        system.solve(b)
    assert faulted == [7]  # the caller solves columns 0-7, the worker 8-14


def test_split_under_thread_stress(thread_stress):
    # every column still lands in its place
    mesh, _ = desk_case3()
    rng = np.random.default_rng(30)
    system = assemble_system(mesh, 10.0 ** rng.normal(-2.0, 0.3, mesh.n_cells))
    b = rng.normal(size=(mesh.n_cells, 29))
    x_ref = raw_dpbtrs_solve(system, b)
    for _ in range(10):
        assert np.array_equal(system.solve(b), x_ref)
    workers = [t for t in threading.enumerate()
               if t.name.startswith("nfinv_")]
    assert 1 < len(workers) <= 7


def test_dipole_index():
    survey = shared_reordered_survey()
    index = survey.dipole_index
    assert survey.dipole_index is index
    abmn = survey.abmn
    assert np.array_equal(index.dipoles[index.src], abmn[:, :2])
    assert np.array_equal(index.dipoles[index.rx], abmn[:, 2:])
    assert len(np.unique(index.dipoles, axis=0)) == len(index.dipoles)
    # (5, 2) and (2, 5) are distinct: a drop's sign follows the listed order
    assert {(5, 2), (4, 7), (6, 0)} <= set(map(tuple, index.dipoles))
    assert index.rows == (slice(0, 3), slice(3, 5), slice(5, 8),
                          slice(8, 9))
    for (a, b), d in zip(survey.src_dipoles, index.rows):
        assert np.all(abmn[d, :2] == (a, b))


def test_source_without_receivers_adds_no_rows():
    mesh, _ = desk_case3()
    survey = shared_reordered_survey()
    gapped = DcrSurvey(survey.electrode_x,
                       survey.src_dipoles[:2] + ((1, 2),)
                       + survey.src_dipoles[2:] + ((7, 6),),
                       survey.rx_dipoles[:2] + ((),) + survey.rx_dipoles[2:]
                       + ((),), survey.current)
    assert gapped.dipole_index.rows[2] == slice(5, 5)
    m = -2.0 + np.random.default_rng(29).normal(0.0, 0.3, mesh.n_active)
    Js = []
    for s in (survey, gapped):
        sim = DcrSimulator(mesh, s, background_sigma=0.01)
        sim.predict(m)
        Js.append(sim.sensitivity())
    assert np.array_equal(Js[0], Js[1])
