import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfinv.encoding import encode, gaussian_frequencies, write_b_matrix_csv
from nfinv.manifest import default_manifest, layer_dims
from nfinv.mesh import build_tomo_mesh, normalized_centers
from nfinv.runner import encode_cells


def test_identity_row():
    out = encode(np.array([[0.25, 0.5]]), "identity")
    assert np.array_equal(out, [[0.25, 0.5]])
    assert not out.flags.writeable


def test_basic_row_at_origin():
    out = encode(np.array([[0.0, 0.0]]), "basic")
    assert out.shape[1] == 4
    assert np.allclose(out, [[1.0, 1.0, 0.0, 0.0]])


def test_basic_row_layout():
    # cos block for both coordinates first, then sin block
    x, z = 0.13, 0.71
    out = encode(np.array([[x, z]]), "basic")
    want = [np.cos(2 * np.pi * x), np.cos(2 * np.pi * z),
            np.sin(2 * np.pi * x), np.sin(2 * np.pi * z)]
    assert np.allclose(out[0], want)


def test_linear_frequency_ladder():
    x = np.array([[0.3, -0.4]])
    out = encode(x, "linear", m=8)
    assert out.shape == (1, 32)
    for i in range(1, 9):
        k = i / 2.0
        block = out[0, 4 * (i - 1):4 * i]
        p = 2 * np.pi * k * x[0]
        assert np.allclose(block, [np.cos(p[0]), np.cos(p[1]),
                                   np.sin(p[0]), np.sin(p[1])])


def test_gaussian_dims():
    b = gaussian_frequencies(128, 0.5, seed=1)
    assert b.shape == (128, 2)
    out = encode(np.array([[0.1, 0.2], [0.3, 0.4]]), "gaussian", b=b)
    assert out.shape == (2, 256)


def test_output_dims_table():
    # the manifest's network input width is the width encode produces
    man = default_manifest(1)
    mesh = build_tomo_mesh(3, 2, 1.0, 1.0)
    for enc, width in (({"kind": "identity"}, 2), ({"kind": "basic"}, 4),
                       ({"kind": "linear", "m": 5}, 20),
                       ({"kind": "gaussian", "b_rows": 128, "b_std": 0.5},
                        256)):
        man["encoding"] = {**enc, "coord_range": [0.0, 1.0]}
        _, z = encode_cells(man, mesh)
        assert layer_dims(man)[0] == z.shape[1] == width


def test_gaussian_rejects_bad_rows():
    with pytest.raises(ValueError):
        gaussian_frequencies(0, 0.5, seed=0)


def test_unknown_kind():
    with pytest.raises(ValueError):
        encode(np.zeros((1, 2)), "fourier")


def test_determinism():
    mesh = build_tomo_mesh(8, 8, 1.0, 1.0)
    grid = normalized_centers(mesh, -1.0, 1.0)
    def z(seed):
        return encode(grid, "gaussian", b=gaussian_frequencies(16, 0.5, seed))

    a, b = z(7), z(7)
    assert np.array_equal(a, b)
    c = z(8)
    assert not np.array_equal(a, c)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["basic", "linear", "gaussian"]),
       st.integers(0, 2 ** 31 - 1))
def test_trig_kinds_bounded(kind, seed):
    pts = np.random.default_rng(seed).uniform(-1, 1, size=(20, 2))
    out = encode(pts, kind, m=4, b=gaussian_frequencies(8, 0.5, seed))
    assert np.max(np.abs(out)) <= 1.0 + 1e-12


def test_rows_match_per_point_eval():
    pts = np.random.default_rng(0).uniform(-1, 1, size=(5, 2))
    full = encode(pts, "linear", m=3)
    for i, p in enumerate(pts):
        single = encode(p[None, :], "linear", m=3)[0]
        assert np.array_equal(full[i], single)


def test_b_matrix_dump(tmp_path):
    b = gaussian_frequencies(4, 0.5, seed=3)
    path = tmp_path / "b.csv"
    write_b_matrix_csv(b, path)
    rows = [line.split(",") for line in path.read_text().splitlines()]
    loaded = np.array([[float(v) for v in r] for r in rows])
    assert np.array_equal(loaded, b)


def test_coord_shape_validation():
    with pytest.raises(ValueError):
        encode(np.zeros((4, 3)), "basic")
