import numpy as np
import pytest

from nfinv.mesh import build_dcr_mesh, build_tomo_mesh
from nfinv.scenarios import (
    add_noise,
    gaussian_random_field,
    make_case1,
    make_case2,
    make_case3,
    make_case4,
)


class TestCase1:
    def test_property_values(self):
        mesh = build_tomo_mesh(64, 128, 1.0, 1.0)
        s = make_case1(mesh)
        vals = np.unique(s)
        assert np.allclose(sorted(vals), [1.0 / 1000.0, 1.0 / 200.0])

    def test_block_area_fraction(self):
        mesh = build_tomo_mesh(64, 128, 1.0, 1.0)
        s = make_case1(mesh)
        frac = np.mean(s == 1.0 / 200.0)
        assert 0.0 < frac < 1.0

    def test_block_is_square_in_meters(self):
        mesh = build_tomo_mesh(64, 128, 1.0, 1.0)
        s = make_case1(mesh).reshape(128, 64)
        rows = np.flatnonzero((s == 5e-3).any(axis=1))
        cols = np.flatnonzero((s == 5e-3).any(axis=0))
        assert len(rows) == len(cols) == 24  # 0.375 * 64 m


class TestGrf:
    def test_zero_variance(self):
        f = gaussian_random_field(16, 8, 1.0, 1.0, variance=0.0, len_x=4.0,
                                  len_z=4.0, seed=0)
        assert np.all(f == 0.0)

    def test_determinism(self):
        spec = dict(variance=100.0, len_x=8.0, len_z=4.0)
        a = gaussian_random_field(32, 16, 1.0, 1.0, **spec, seed=42)
        b = gaussian_random_field(32, 16, 1.0, 1.0, **spec, seed=42)
        assert np.array_equal(a, b)
        c = gaussian_random_field(32, 16, 1.0, 1.0, **spec, seed=43)
        assert not np.array_equal(a, c)

    def test_empirical_variance(self):
        # Monte-Carlo over seeds: mean spatial variance within 10% of spec
        var = 50.0
        vs = []
        for seed in range(20):
            f = gaussian_random_field(64, 128, 1.0, 1.0, variance=var,
                                      len_x=8.0, len_z=8.0, seed=seed)
            vs.append(np.mean(f ** 2))
        assert np.mean(vs) == pytest.approx(var, rel=0.10)

    def test_mean_zero(self):
        vals = [gaussian_random_field(64, 64, 1.0, 1.0, variance=25.0,
                                      len_x=6.0, len_z=6.0, seed=s).mean()
                for s in range(20)]
        assert abs(np.mean(vals)) < 1.5  # sigma=5, ~few correlation patches

    def test_correlation_length_effect(self):
        # longer correlation gives smoother fields: smaller lag-1 increments
        rough = gaussian_random_field(64, 64, 1.0, 1.0, variance=1.0,
                                      len_x=2.0, len_z=2.0, seed=0)
        smooth = gaussian_random_field(64, 64, 1.0, 1.0, variance=1.0,
                                       len_x=16.0, len_z=16.0, seed=0)
        def lag1(f):
            g = f.reshape(64, 64)
            return np.mean(np.diff(g, axis=1) ** 2)
        assert lag1(smooth) < lag1(rough)

    def test_bad_correlation_length(self):
        with pytest.raises(ValueError):
            gaussian_random_field(8, 8, 1.0, 1.0, variance=1.0, len_x=0.0,
                                  len_z=1.0, seed=0)


class TestCase2:
    def test_zero_variance_reduces_to_background_plus_ellipse(self):
        mesh = build_tomo_mesh(64, 128, 1.0, 1.0)
        s = make_case2(mesh, np.zeros(64 * 128))
        vals = np.unique(s)
        assert np.allclose(sorted(vals), [1.0 / 1000.0, 1.0 / 400.0])

    def test_ellipse_mask_shape(self):
        mesh = build_tomo_mesh(64, 128, 1.0, 1.0)
        s = make_case2(mesh, np.zeros(64 * 128), cx_frac=0.5,
                       cz_frac=0.4, rx_m=12, rz_m=20,
                       velocity=400.0).reshape(128, 64)
        target = s == 1.0 / 400.0
        # widest row spans about 2*rx, tallest column about 2*rz
        assert abs(target.sum(axis=1).max() - 24) <= 2
        assert abs(target.sum(axis=0).max() - 40) <= 2

    def test_same_seed_identical(self):
        mesh = build_tomo_mesh(32, 64, 1.0, 1.0)
        def case2():
            return make_case2(mesh, gaussian_random_field(
                32, 64, 1.0, 1.0, variance=100.0, len_x=8.0, len_z=8.0,
                seed=5))

        assert np.array_equal(case2(), case2())

    def test_slowness_positive(self):
        mesh = build_tomo_mesh(32, 64, 1.0, 1.0)
        s = make_case2(mesh, gaussian_random_field(
            32, 64, 1.0, 1.0, variance=400.0 ** 2, len_x=4.0, len_z=4.0,
            seed=3))
        assert np.all(s > 0)


class TestCase3:
    def test_property_values(self):
        mesh = build_dcr_mesh(200, 45, 5.0, 5.0, 7, 1.5)
        m = make_case3(mesh, dip_angle_deg=63.0)
        assert np.isclose(m.min(), -2.0)  # background 0.01 S/m
        assert np.isclose(m.max(), -1.0)  # dike 0.1 S/m
        assert np.isclose(sorted(np.unique(m))[1], np.log10(0.02))

    def test_vertical_dike_constant_extent(self):
        mesh = build_dcr_mesh(200, 45, 5.0, 5.0, 7, 1.5)
        m = make_case3(mesh, dip_angle_deg=90.0).reshape(45, 200)
        dike_cols = [np.flatnonzero(row == -1.0) for row in m]
        spans = {tuple(c) for c in dike_cols if len(c)}
        assert len(spans) == 1

    def test_dipping_dike_walks_sideways(self):
        mesh = build_dcr_mesh(200, 45, 5.0, 5.0, 7, 1.5)
        m = make_case3(mesh, dip_angle_deg=45.0).reshape(45, 200)
        centers = [np.mean(np.flatnonzero(row == -1.0))
                   for row in m if (row == -1.0).any()]
        assert centers[-1] > centers[0]

    def test_dike_depth_extent(self):
        mesh = build_dcr_mesh(200, 45, 5.0, 5.0, 7, 1.5)
        m = make_case3(mesh, dip_angle_deg=90.0).reshape(45, 200)
        dike_rows = np.flatnonzero((m == -1.0).any(axis=1))
        # layer occupies z < 25 (rows 0-4); dike reaches 125 m (row 24)
        assert dike_rows[0] == 5
        assert dike_rows[-1] == 24

    def test_bad_dip(self):
        mesh = build_dcr_mesh(20, 10, 5.0, 5.0, 2, 1.5)
        with pytest.raises(ValueError):
            make_case3(mesh, dip_angle_deg=0.0)


class TestCase4:
    def test_row_values(self):
        mesh = build_dcr_mesh(200, 45, 5.0, 5.0, 7, 1.5)
        m = make_case4(mesh).reshape(45, 200)
        assert 10.0 ** m[0, 0] == pytest.approx(0.02)
        assert 10.0 ** m[-1, 0] == pytest.approx(0.001)
        assert 10.0 ** m[22, 0] == pytest.approx(0.0105)

    def test_dike_present(self):
        mesh = build_dcr_mesh(200, 45, 5.0, 5.0, 7, 1.5)
        m = make_case4(mesh)
        assert np.isclose(m.max(), -1.0)


class TestNoise:
    def test_tomography_spec(self):
        data = np.linspace(0.01, 0.3, 10000)
        noisy, w = add_noise(data, 0.020, seed=0)
        assert np.allclose(w, 1.0 / 0.020)  # identity-equivalent weighting
        assert np.std(noisy - data) == pytest.approx(0.020, rel=0.05)

    def test_relative_noise_statistics(self):
        data = np.full(10000, 3.0)
        noisy, w = add_noise(data, 0.05 * np.abs(data) + 1e-9, seed=2)
        assert np.std((noisy - data) / data) == pytest.approx(0.05, rel=0.05)
        assert np.allclose(w, 1.0 / (0.05 * 3.0 + 1e-9))

    def test_seeded_reproducibility(self):
        d = np.zeros(16)
        a, _ = add_noise(d, 1.0, seed=9)
        b, _ = add_noise(d, 1.0, seed=9)
        assert np.array_equal(a, b)

    def test_no_uncertainty_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.ones(3), 0.0, seed=0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.array([1.0, np.inf]), 1.0, seed=0)
