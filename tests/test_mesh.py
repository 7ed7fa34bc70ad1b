import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfinv.mesh import (
    build_dcr_mesh,
    build_tomo_mesh,
    embed_core,
    normalized_centers,
    read_grid_csv,
    write_grid_csv,
)


class TestBuildTomoMesh:
    def test_case1_dimensions(self):
        mesh = build_tomo_mesh(64, 128, 1.0, 1.0)
        assert mesh.n_active == 8192
        assert np.allclose(mesh.x_widths, 1.0)
        assert np.allclose(mesh.z_widths, 1.0)

    def test_single_cell(self):
        mesh = build_tomo_mesh(1, 1, 2.0, 2.0)
        assert mesh.n_active == 1
        assert mesh.n_cells == 1

    def test_hand_computed_edges(self):
        mesh = build_tomo_mesh(3, 2, 1.0, 0.5)
        assert mesh.n_active == 6
        assert np.allclose(mesh.cell_z_edges, [0.0, 0.5, 1.0])
        assert np.allclose(mesh.cell_x_edges, [0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("args", [
        (0, 4, 1.0, 1.0), (4, 0, 1.0, 1.0),
        (4, 4, 0.0, 1.0), (4, 4, 1.0, -2.0),
    ])
    def test_invalid_args(self, args):
        with pytest.raises(ValueError):
            build_tomo_mesh(*args)

    def test_edges_strictly_increasing(self):
        mesh = build_tomo_mesh(7, 9, 0.3, 1.7)
        assert np.all(np.diff(mesh.cell_x_edges) > 0)
        assert np.all(np.diff(mesh.cell_z_edges) > 0)


class TestBuildDcrMesh:
    def test_paper_mesh(self):
        mesh = build_dcr_mesh(200, 45, 5.0, 5.0, 7, 1.5)
        assert mesh.n_active == 9000
        assert mesh.nx_full == 214
        assert mesh.nz_full == 52

    def test_zero_padding(self):
        mesh = build_dcr_mesh(10, 5, 1.0, 1.0, 0, 1.5)
        assert mesh.n_cells == mesh.n_active == 50

    def test_geometric_padding_widths(self):
        mesh = build_dcr_mesh(4, 4, 2.0, 2.0, 2, 1.5)
        # rightmost padding cell: 2 * 1.5^2 = 4.5
        assert mesh.x_widths[-1] == pytest.approx(4.5)
        assert mesh.x_widths[0] == pytest.approx(4.5)
        assert mesh.x_widths[-2] == pytest.approx(3.0)

    def test_total_width_geometric_sum(self):
        nx, dx, n_pad, pf = 12, 5.0, 7, 1.5
        mesh = build_dcr_mesh(nx, 6, dx, dx, n_pad, pf)
        pad_sum = dx * pf * (pf ** n_pad - 1) / (pf - 1)
        want = nx * dx + 2 * pad_sum
        got = mesh.cell_x_edges[-1] - mesh.cell_x_edges[0]
        assert got == pytest.approx(want, rel=1e-12)

    def test_core_placement(self):
        mesh = build_dcr_mesh(6, 4, 2.0, 3.0, 3, 1.4)
        assert mesh.core_x_extent == pytest.approx((0.0, 12.0))
        assert mesh.core_z_extent == pytest.approx((0.0, 12.0))
        # top row of the full mesh is core (no padding above the surface)
        assert mesh.active_mask[:mesh.n_pad].sum() == 0
        assert mesh.active_mask.reshape(mesh.nz_full, mesh.nx_full)[0, 3:9].all()

    def test_bad_pad_factor(self):
        with pytest.raises(ValueError):
            build_dcr_mesh(4, 4, 1.0, 1.0, 2, 0.9)


class TestEmbedExtract:
    def test_zero_padding_identity(self):
        mesh = build_tomo_mesh(5, 3, 1.0, 1.0)
        v = np.arange(15.0)
        assert np.array_equal(embed_core(mesh, v, -1.0), v)

    def test_uniform_field(self):
        mesh = build_dcr_mesh(214 - 14, 45, 5.0, 5.0, 7, 1.5)
        full = embed_core(mesh, np.full(mesh.n_active, 0.01), 0.01)
        assert np.all(full == 0.01)

    def test_length_mismatch(self):
        mesh = build_dcr_mesh(4, 4, 1.0, 1.0, 1, 1.5)
        with pytest.raises(ValueError):
            embed_core(mesh, np.zeros(7), 0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 3),
           st.integers(0, 2 ** 31 - 1))
    def test_round_trip(self, nx, nz, n_pad, seed):
        mesh = build_dcr_mesh(nx, nz, 1.0, 2.0, n_pad, 1.5)
        v = np.random.default_rng(seed).normal(size=mesh.n_active)
        full = embed_core(mesh, v, 9.9)
        assert np.array_equal(full[mesh.active_indices], v)

    def test_background_fills_padding(self):
        mesh = build_dcr_mesh(3, 2, 1.0, 1.0, 2, 2.0)
        full = embed_core(mesh, np.zeros(6), 7.0)
        assert (full == 7.0).sum() == mesh.n_cells - 6


class TestNormalizedCenters:
    def test_2x2_endpoints(self):
        mesh = build_tomo_mesh(2, 2, 1.0, 1.0)
        grid = normalized_centers(mesh, 0.0, 1.0)
        assert sorted(set(grid[:, 0])) == [0.0, 1.0]
        assert sorted(set(grid[:, 1])) == [0.0, 1.0]

    def test_affine_step(self):
        mesh = build_tomo_mesh(64, 128, 1.0, 1.0)
        grid = normalized_centers(mesh, 0.0, 1.0)
        xs = np.unique(grid[:, 0])
        assert xs[0] == 0.0 and xs[-1] == 1.0
        assert np.allclose(np.diff(xs), 1.0 / 63.0)

    def test_dcr_core_endpoints(self):
        mesh = build_dcr_mesh(200, 45, 5.0, 5.0, 7, 1.5)
        grid = normalized_centers(mesh, -1.0, 1.0)
        assert grid[:, 0].min() == pytest.approx(-1.0)
        assert grid[:, 0].max() == pytest.approx(1.0)
        assert grid[:, 1].min() == pytest.approx(-1.0)
        assert grid[:, 1].max() == pytest.approx(1.0)
        assert grid.shape == (9000, 2)

    def test_degenerate_axis_maps_to_midpoint(self):
        mesh = build_tomo_mesh(1, 4, 1.0, 1.0)
        grid = normalized_centers(mesh, -1.0, 1.0)
        assert np.all(grid[:, 0] == 0.0)

    def test_row_major_x_fastest(self):
        mesh = build_tomo_mesh(3, 2, 1.0, 1.0)
        grid = normalized_centers(mesh, 0.0, 1.0)
        # first three entries share z and sweep x
        assert np.all(grid[:3, 1] == grid[0, 1])
        assert np.all(np.diff(grid[:3, 0]) > 0)

    def test_bad_interval(self):
        mesh = build_tomo_mesh(2, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            normalized_centers(mesh, 1.0, 1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 9), st.integers(2, 9))
    def test_monotone_affine(self, nx, nz):
        mesh = build_tomo_mesh(nx, nz, 0.7, 1.3)
        grid = normalized_centers(mesh, -2.0, 3.0)
        xs = np.unique(grid[:, 0])
        assert np.all(np.diff(xs) > 0)
        # affine: equal spacing for a uniform mesh
        assert np.allclose(np.diff(xs), xs[1] - xs[0])


class TestGridCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "grid.csv"
        values = np.random.default_rng(3).normal(size=12)
        write_grid_csv(path, values, nx=4, nz=3, dx=1.0, dz=0.5)
        back, nx, nz, dx, dz = read_grid_csv(path)
        assert (nx, nz, dx, dz) == (4, 3, 1.0, 0.5)
        assert np.array_equal(back, values)

    def test_header_first_line(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_grid_csv(path, np.zeros(4), nx=2, nz=2, dx=1.0, dz=1.0)
        first = path.read_text().splitlines()[0]
        assert first.startswith("2,2,")
