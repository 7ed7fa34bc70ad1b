import csv

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nfinv.errors import GeometryError
from nfinv.mesh import build_dcr_mesh, build_tomo_mesh
from nfinv.tomo import (
    CrossholeSurvey,
    TomoSimulator,
    build_crosshole_survey,
    build_ray_matrix,
    write_tomo_data_csv,
)


class TestSurvey:
    def test_case1_counts(self):
        mesh = build_tomo_mesh(64, 128, 1.0, 1.0)
        survey = build_crosshole_survey(mesh, 1.0)
        assert len(survey.src_positions) == 128
        assert len(survey.rx_positions) == 128
        assert survey.n_data == 16384

    def test_two_deep(self):
        mesh = build_tomo_mesh(4, 2, 1.0, 1.0)
        survey = build_crosshole_survey(mesh, 1.0)
        assert survey.n_data == 4

    def test_borehole_columns(self):
        mesh = build_tomo_mesh(64, 16, 1.0, 1.0)
        survey = build_crosshole_survey(mesh, 1.0)
        assert np.all(survey.src_positions[:, 0] == 0.0)
        assert np.all(survey.rx_positions[:, 0] == 64.0)
        assert survey.separation == 64.0

    def test_spacing_too_large(self):
        mesh = build_tomo_mesh(4, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_crosshole_survey(mesh, 3.0)

    def test_spacing_must_divide(self):
        mesh = build_tomo_mesh(4, 10, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_crosshole_survey(mesh, 3.0)


class TestRayMatrix:
    def test_horizontal_ray(self):
        mesh = build_tomo_mesh(64, 4, 1.0, 1.0)
        survey = CrossholeSurvey(np.array([[0.0, 2.5]]),
                                 np.array([[64.0, 2.5]]), 64.0)
        rm = build_ray_matrix(mesh, survey)
        row = rm.A[0].toarray().ravel()
        assert (row > 0).sum() == 64
        assert np.allclose(row[row > 0], 1.0)

    def test_diagonal_ray(self):
        mesh = build_tomo_mesh(4, 4, 1.0, 1.0)
        survey = CrossholeSurvey(np.array([[0.0, 0.0]]),
                                 np.array([[4.0, 4.0]]), 4.0)
        rm = build_ray_matrix(mesh, survey)
        row = rm.A[0].toarray().ravel()
        diag_cells = [i * 4 + i for i in range(4)]
        assert np.allclose(row[diag_cells], np.sqrt(2.0))
        assert row.sum() == pytest.approx(4 * np.sqrt(2.0), rel=1e-12)

    def test_row_sums_equal_ray_lengths(self):
        mesh = build_tomo_mesh(16, 32, 1.0, 1.0)
        survey = build_crosshole_survey(mesh, 2.0)
        rm = build_ray_matrix(mesh, survey)
        sums = np.asarray(rm.A.sum(axis=1)).ravel()
        assert np.max(np.abs(sums - rm.ray_lengths) / rm.ray_lengths) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_random_ray_row_sum(self, seed):
        rng = np.random.default_rng(seed)
        mesh = build_tomo_mesh(10, 7, 0.8, 1.3)
        p0 = np.array([0.0, rng.uniform(0, 9.1)])
        p1 = np.array([8.0, rng.uniform(0, 9.1)])
        survey = CrossholeSurvey(p0[None, :], p1[None, :], 8.0)
        rm = build_ray_matrix(mesh, survey)
        want = np.hypot(*(p1 - p0))
        assert rm.A.sum() == pytest.approx(want, rel=1e-9)

    def test_all_entries_nonnegative(self):
        mesh = build_tomo_mesh(8, 8, 1.0, 1.0)
        survey = build_crosshole_survey(mesh, 2.0)
        rm = build_ray_matrix(mesh, survey)
        assert rm.A.data.min() >= 0.0

    def test_ray_outside_mesh(self):
        mesh = build_tomo_mesh(4, 4, 1.0, 1.0)
        survey = CrossholeSurvey(np.array([[0.0, -1.0]]),
                                 np.array([[4.0, 2.0]]), 4.0)
        with pytest.raises(GeometryError):
            build_ray_matrix(mesh, survey)

    def test_corner_graze_no_double_count(self):
        # ray through the corner between 4 cells: total length preserved
        mesh = build_tomo_mesh(2, 2, 1.0, 1.0)
        survey = CrossholeSurvey(np.array([[0.0, 0.0]]),
                                 np.array([[2.0, 2.0]]), 2.0)
        rm = build_ray_matrix(mesh, survey)
        assert rm.A.sum() == pytest.approx(2 * np.sqrt(2.0), rel=1e-12)


def trace_ray_loop(mesh, p0, p1):
    """Per-ray reference: cells crossed by p0 -> p1 and the length in each."""
    xe, ze = mesh.cell_x_edges, mesh.cell_z_edges
    d = p1 - p0
    length = float(np.hypot(d[0], d[1]))
    if length == 0.0:
        return np.empty(0, dtype=int), np.empty(0)
    eps = 1e-12 * max(xe[-1] - xe[0], ze[-1] - ze[0])
    for p in (p0, p1):
        if not (xe[0] - eps <= p[0] <= xe[-1] + eps
                and ze[0] - eps <= p[1] <= ze[-1] + eps):
            raise GeometryError(f"ray endpoint {tuple(p)} outside mesh")
    ts = [0.0, 1.0]
    if d[0] != 0.0:
        t = (xe - p0[0]) / d[0]
        ts.append(t[(t > 0.0) & (t < 1.0)])
    if d[1] != 0.0:
        t = (ze - p0[1]) / d[1]
        ts.append(t[(t > 0.0) & (t < 1.0)])
    ts = np.unique(np.hstack([np.atleast_1d(v) for v in ts]))
    seg = np.diff(ts)
    keep = seg > 1e-12
    tm = (ts[:-1] + 0.5 * seg)[keep]
    ix = np.searchsorted(xe, p0[0] + tm * d[0], side="right") - 1
    iz = np.searchsorted(ze, p0[1] + tm * d[1], side="right") - 1
    if (ix.min(initial=0) < 0 or iz.min(initial=0) < 0
            or ix.max(initial=0) >= mesh.nx_full
            or iz.max(initial=0) >= mesh.nz_full):
        raise GeometryError("ray leaves the mesh between its endpoints")
    return iz * mesh.nx_full + ix, seg[keep] * length


def ray_matrix_loop(mesh, survey):
    rows, cols, vals, lengths = [], [], [], []
    for src in survey.src_positions:
        for rx in survey.rx_positions:
            cells, lens = trace_ray_loop(mesh, src, rx)
            rows.append(np.full(len(cells), len(lengths)))
            cols.append(cells)
            vals.append(lens)
            lengths.append(np.hypot(*(rx - src)))
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(lengths), mesh.n_cells)).tocsr()
    return A, np.array(lengths)


def edge_case_survey():
    """Rays along grid lines, through or just past grid corners, vertical
    and empty (the last one passes each corner 1e-11 to 1e-10 apart)."""
    src = np.array([[0.0, 2.0], [2.0, 0.0], [3.5, 6.0], [0.0, 0.0],
                    [1.0, 1.0], [0.3, 4.7]])
    rx = np.array([[6.0, 2.0], [2.0, 7.0], [3.5, 0.5], [6.0, 6.0],
                   [1.0, 1.0], [4.0, 7.0], [6.0, 6.0 + 6e-10]])
    return CrossholeSurvey(src, rx, 6.0)


@pytest.mark.parametrize("which", ["desk", "edges_uniform", "edges_padded"])
def test_vectorized_tracer_matches_per_ray_loop(which):
    if which == "desk":
        mesh = build_tomo_mesh(32, 64, 1.0, 1.0)
        survey = build_crosshole_survey(mesh, 1.0)
    else:
        mesh = build_tomo_mesh(6, 7, 1.0, 1.0) if which == "edges_uniform" \
            else build_dcr_mesh(4, 4, 1.0, 1.0, 2, 1.5)
        survey = edge_case_survey()
        if which == "edges_padded":
            survey = CrossholeSurvey(survey.src_positions - [2.5, 0.0],
                                     survey.rx_positions - [2.5, 0.0], 6.0)
    A, lengths = ray_matrix_loop(mesh, survey)
    rm = build_ray_matrix(mesh, survey)
    assert np.array_equal(rm.A.indptr, A.indptr)
    assert np.array_equal(rm.A.indices, A.indices)
    assert np.array_equal(rm.A.data, A.data)
    assert np.array_equal(rm.ray_lengths, lengths)


@pytest.mark.parametrize("where, match", [
    # an endpoint above the mesh top
    ([[0.0, 1.0], [0.0, -1.0]], "outside mesh"),
    # both endpoints within the edge tolerance below the mesh bottom
    ([[0.0, 1.0], [0.0, 4.0 + 1e-13]], "leaves the mesh"),
])
def test_geometry_errors_match_per_ray_loop(where, match):
    mesh = build_tomo_mesh(4, 4, 1.0, 1.0)
    src = np.array(where)
    rx = np.array([[4.0, src[1, 1]]])
    with pytest.raises(GeometryError, match=match):
        trace_ray_loop(mesh, src[1], rx[0])
    with pytest.raises(GeometryError, match=match):
        build_ray_matrix(mesh, CrossholeSurvey(src, rx, 4.0))


class TestPredict:
    def test_uniform_medium(self):
        mesh = build_tomo_mesh(16, 8, 1.0, 1.0)
        survey = build_crosshole_survey(mesh, 1.0)
        rm = build_ray_matrix(mesh, survey)
        t = rm.A @ np.full(mesh.n_cells, 1.0 / 1000.0)
        want = rm.ray_lengths / 1000.0
        assert np.max(np.abs(t - want) / want) < 1e-9

    def test_block_model_matches_dense_summation(self):
        mesh = build_tomo_mesh(12, 16, 1.0, 1.0)
        survey = build_crosshole_survey(mesh, 4.0)
        rm = build_ray_matrix(mesh, survey)
        s = np.full(mesh.n_cells, 1e-3)
        s.reshape(16, 12)[5:10, 4:8] = 5e-3
        t = rm.A @ s
        dense = rm.A.toarray()
        want = np.array([float(sum(dense[i, j] * s[j]
                                   for j in range(mesh.n_cells)))
                         for i in range(rm.A.shape[0])])
        assert np.array_equal(t, want) or np.allclose(t, want, rtol=1e-15)

    def test_linearity(self):
        mesh = build_tomo_mesh(8, 8, 1.0, 1.0)
        rm = build_ray_matrix(mesh, build_crosshole_survey(mesh, 2.0))
        rng = np.random.default_rng(4)
        s1 = rng.uniform(1e-4, 1e-2, mesh.n_cells)
        s2 = rng.uniform(1e-4, 1e-2, mesh.n_cells)
        a, b = 0.7, 1.9
        lhs = rm.A @ (a * s1 + b * s2)
        rhs = a * (rm.A @ s1) + b * (rm.A @ s2)
        assert np.allclose(lhs, rhs, rtol=1e-13)

    def test_doubling_slowness_doubles_times(self):
        mesh = build_tomo_mesh(6, 6, 1.0, 1.0)
        rm = build_ray_matrix(mesh, build_crosshole_survey(mesh, 3.0))
        s = np.full(mesh.n_cells, 2e-3)
        assert np.allclose(rm.A @ (2 * s), 2 * (rm.A @ s))

    def test_adjoint_identity(self):
        mesh = build_tomo_mesh(10, 12, 1.0, 1.0)
        rm = build_ray_matrix(mesh, build_crosshole_survey(mesh, 2.0))
        sim = TomoSimulator(rm)
        rng = np.random.default_rng(8)
        s = rng.normal(size=mesh.n_cells)
        u = rng.normal(size=rm.A.shape[0])
        lhs = float(sim.predict(s) @ u)
        rhs = float(s @ sim.gradient(u))
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-12

    def test_sensitivity_is_the_ray_matrix(self):
        mesh = build_tomo_mesh(10, 12, 1.0, 1.0)
        rm = build_ray_matrix(mesh, build_crosshole_survey(mesh, 2.0))
        sim = TomoSimulator(rm)
        assert sim.sensitivity() is rm.A
        rng = np.random.default_rng(9)
        s = rng.normal(size=mesh.n_cells)
        u = rng.normal(size=rm.A.shape[0])
        assert np.array_equal(sim.sensitivity() @ s, sim.predict(s))
        assert np.array_equal(sim.sensitivity().T @ u, sim.gradient(u))


def test_data_csv_round_trip(tmp_path):
    mesh = build_tomo_mesh(4, 4, 1.0, 1.0)
    survey = build_crosshole_survey(mesh, 2.0)
    rm = build_ray_matrix(mesh, survey)
    t = rm.A @ np.full(mesh.n_cells, 1e-3)
    path = tmp_path / "data.csv"
    write_tomo_data_csv(path, survey, t, np.full(survey.n_data, 0.02))
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    t_back, u_back = table[:, 4] * 1e-3, table[:, 5] * 1e-3
    assert np.allclose(t_back, t, rtol=1e-15)
    assert np.allclose(u_back, 0.02)
    header = path.read_text().splitlines()[0]
    assert header == "src_x,src_z,rx_x,rx_z,t_obs_ms,uncertainty_ms"


def loop_data_csv(path, survey, t_obs_s, uncertainty_s):
    """The per-datum writer the column build replaced."""
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


def test_data_csv_matches_datum_loop(tmp_path):
    # 3 sources and 5 receivers: swapping the source and receiver columns'
    # repeat and tile changes the rows
    rng = np.random.default_rng(25)
    survey = CrossholeSurvey(
        src_positions=np.column_stack([np.zeros(3), rng.uniform(0, 9, 3)]),
        rx_positions=np.column_stack([np.full(5, 7.5),
                                      rng.uniform(0, 9, 5)]),
        separation=7.5)
    t = rng.uniform(1e-3, 5e-3, survey.n_data)
    t[:3] = [np.nan, -0.0, 1e13]
    u = rng.uniform(1e-6, 1e-5, survey.n_data)
    loop_data_csv(tmp_path / "loop.csv", survey, t, u)
    write_tomo_data_csv(tmp_path / "columns.csv", survey, t, u)
    assert (tmp_path / "columns.csv").read_bytes() \
        == (tmp_path / "loop.csv").read_bytes()
