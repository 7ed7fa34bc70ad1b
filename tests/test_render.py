import hashlib
import struct
import zlib

import numpy as np

from nfinv.mesh import build_dcr_mesh
from nfinv.render import render_heatmap, write_png
from nfinv.scenarios import make_case3


def read_png(path) -> tuple[np.ndarray, dict]:
    """Decode a PNG written by ``write_png`` (filter 0 rows only)."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError("not a PNG file")
    pos = 8
    idat = b""
    text = {}
    w = h = None
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        tag = data[pos + 4:pos + 8]
        payload = data[pos + 8:pos + 8 + length]
        if tag == b"IHDR":
            w, h = struct.unpack(">II", payload[:8])
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"tEXt":
            key, _, val = payload.partition(b"\x00")
            text[key.decode("latin-1")] = val.decode("latin-1")
        pos += 12 + length
    raw = zlib.decompress(idat)
    stride = 1 + 3 * w
    rows = []
    for r in range(h):
        row = raw[r * stride:(r + 1) * stride]
        if row[0] != 0:
            raise ValueError("unsupported PNG filter")
        rows.append(np.frombuffer(row[1:], dtype=np.uint8).reshape(w, 3))
    return np.stack(rows), text


def test_png_round_trip(tmp_path):
    rgb = np.random.default_rng(0).integers(0, 256, size=(5, 7, 3),
                                            dtype=np.uint8)
    path = tmp_path / "img.png"
    write_png(path, rgb, text={"note": "hello"})
    back, text = read_png(path)
    assert np.array_equal(back, rgb)
    assert text["note"] == "hello"


def test_constant_grid_single_color(tmp_path):
    img = render_heatmap(np.full((2, 3), 2.5), tmp_path / "grid.png",
                         scale=4)
    # the cell blocks, left of the color strip
    flat = img[:, :3 * 4].reshape(-1, 3)
    assert len(np.unique(flat, axis=0)) == 1


def test_2x2_grid_four_blocks(tmp_path):
    scale = 4
    img = render_heatmap(np.array([[0.0, 1.0], [2.0, 3.0]]),
                         tmp_path / "grid.png", scale=scale)
    # the cell blocks, left of the 2-pixel gap and the color strip
    assert img.shape == (2 * scale, 2 * scale + 2 + 4, 3)
    cells = img[:, :2 * scale]
    blocks = {tuple(cells[r * scale, c * scale]) for r in range(2)
              for c in range(2)}
    assert len(blocks) == 4
    # each block is internally uniform
    block = cells[:scale, :scale].reshape(-1, 3)
    assert len(np.unique(block, axis=0)) == 1


def test_color_range_metadata(tmp_path):
    render_heatmap(np.array([[1.0, 5.0]]), tmp_path / "grid.png")
    _, text = read_png(tmp_path / "grid.png")
    assert text["color_range"] == "1.0..5.0"


def test_case3_dike_band_visible_and_hash_stable(tmp_path):
    mesh = build_dcr_mesh(100, 30, 5.0, 5.0, 0, 1.5)
    grid = make_case3(mesh, dip_angle_deg=90.0).reshape(30, 100)
    img = render_heatmap(grid, tmp_path / "a.png", scale=2)
    r, c_dike = 10, int(np.flatnonzero(grid[10] == -1.0)[0])
    c_bg = 2
    assert tuple(img[r * 2, c_dike * 2]) != tuple(img[r * 2, c_bg * 2])
    render_heatmap(grid, tmp_path / "b.png", scale=2)
    h1 = hashlib.sha256((tmp_path / "a.png").read_bytes()).hexdigest()
    h2 = hashlib.sha256((tmp_path / "b.png").read_bytes()).hexdigest()
    assert h1 == h2
