"""Heatmap rendering for model grids.

Writes PNGs directly (stdlib zlib, fixed compression level) so identical
grids always produce identical bytes.  Purely presentational; nothing in
the pipeline consumes these images.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

# fixed sequential colormap anchors (dark violet to yellow), linear blend
_ANCHORS = np.array([
    [0.267004, 0.004874, 0.329415],
    [0.190631, 0.407061, 0.556089],
    [0.127568, 0.566949, 0.550556],
    [0.369214, 0.788888, 0.382914],
    [0.993248, 0.906157, 0.143936],
])


def colormap(values01: np.ndarray) -> np.ndarray:
    """Map values in [0, 1] to RGB uint8 via the fixed anchor palette."""
    v = np.clip(np.asarray(values01, dtype=float), 0.0, 1.0)
    pos = v * (len(_ANCHORS) - 1)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, len(_ANCHORS) - 1)
    frac = (pos - lo)[..., None]
    rgb = _ANCHORS[lo] * (1.0 - frac) + _ANCHORS[hi] * frac
    return (rgb * 255.0 + 0.5).astype(np.uint8)


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload)))


def write_png(path, rgb: np.ndarray, text: dict | None = None) -> None:
    """Write an 8-bit RGB PNG; optional tEXt metadata entries."""
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    h, w, _ = rgb.shape
    raw = b"".join(b"\x00" + rgb[r].tobytes() for r in range(h))
    out = [b"\x89PNG\r\n\x1a\n",
           _chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))]
    for key, val in (text or {}).items():
        out.append(_chunk(b"tEXt", key.encode("latin-1") + b"\x00"
                          + str(val).encode("latin-1")))
    out.append(_chunk(b"IDAT", zlib.compress(raw, 6)))
    out.append(_chunk(b"IEND", b""))
    with open(path, "wb") as f:
        f.write(b"".join(out))


def render_heatmap(grid: np.ndarray, out_path, vmin: float | None = None,
                   vmax: float | None = None, scale: int = 8) -> np.ndarray:
    """Render an (nz, nx) grid to a PNG heatmap; returns the pixel array.

    Each cell becomes a ``scale`` x ``scale`` pixel block; a color strip
    on the right, after a 2-pixel white gap, spans the value range top
    (max) to bottom (min).  The numeric range is recorded in a tEXt chunk.
    """
    lo = float(grid.min()) if vmin is None else float(vmin)
    hi = float(grid.max()) if vmax is None else float(vmax)
    if hi > lo:
        norm = (grid - lo) / (hi - lo)
    else:
        norm = np.full_like(grid, 0.5)
    rgb = colormap(norm)
    img = np.repeat(np.repeat(rgb, scale, axis=0), scale, axis=1)
    hpx = img.shape[0]
    ramp = colormap(np.linspace(1.0, 0.0, hpx))[:, None, :]
    strip = np.repeat(ramp, max(4, scale), axis=1)
    gap = np.full((hpx, 2, 3), 255, dtype=np.uint8)
    img = np.concatenate([img, gap, strip], axis=1)
    write_png(out_path, img, text={"color_range": f"{lo!r}..{hi!r}"})
    return img
