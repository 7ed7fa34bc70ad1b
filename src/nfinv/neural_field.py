"""Coordinate MLP mapping encoded positions to physical-property values.

The network is evaluated in double precision with plain numpy, so that
its outputs are bit-reproducible given a seed.  Work is split over the
cores by rows, or between independent products (``nfinv.blas._split``),
never across a sum, so the bits do not depend on the core count; with
numpy's BLAS pool at one thread, as the program holds it
(``nfinv.blas.one_thread``), they do not depend on the pool either.
All weight vectors use one fixed flattening: for each layer in order,
W.ravel() (C order, shape (fan_in, fan_out)) followed by the bias.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from nfinv import blas
from nfinv.errors import MAX_BYTES, CapacityError

OUTPUT_ACTIVATIONS = ("tanh", "sigmoid", "relu", "none")


@dataclass
class Mlp:
    """Fully connected network with LeakyReLU hidden layers and scalar output.

    The physical-property head is ``offset + scale * act(raw)``; with a
    sigmoid head the output is confined to (offset, offset + scale).
    """

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    hidden_slope: float = 0.01
    output_activation: str = "tanh"
    output_scale: float = 1.0
    output_offset: float = 0.0
    seed: int | None = None

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def param_count(self) -> int:
        return param_count(self.layer_dims)


def param_count(layer_dims) -> int:
    """Trainable parameter count for the given layer widths."""
    dims = list(layer_dims)
    return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))


def init_kaiming(layer_dims, hidden_slope: float = 0.01,
                 output_activation: str = "tanh",
                 output_scale: float = 1.0, output_offset: float = 0.0,
                 seed: int = 0) -> Mlp:
    """Gaussian fan-in initialization, gain adjusted for the LeakyReLU slope.

    Weights ~ N(0, 2 / ((1 + slope^2) * fan_in)), biases zero.  Deterministic
    per seed.  The LeakyReLU slope must lie in [0, 1].
    """
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise ValueError("need at least input and output dims")
    if any(d < 1 for d in dims):
        raise ValueError(f"layer dims must be >= 1, got {dims}")
    if not 0.0 <= hidden_slope <= 1.0:
        raise ValueError(f"hidden slope must lie in [0, 1], got {hidden_slope}")
    if output_activation not in OUTPUT_ACTIVATIONS:
        raise ValueError(f"unknown output activation {output_activation!r}")

    rng = np.random.default_rng(seed)
    gain2 = 2.0 / (1.0 + hidden_slope ** 2)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        std = np.sqrt(gain2 / fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Mlp(dims, weights, biases, hidden_slope, output_activation,
               output_scale, output_offset, seed)


def get_weights(mlp: Mlp) -> np.ndarray:
    """Flatten all parameters into a single vector (fixed layer order)."""
    parts = []
    for w, b in zip(mlp.weights, mlp.biases):
        parts.append(w.ravel())
        parts.append(b)
    return np.concatenate(parts)


def set_weights(mlp: Mlp, flat: np.ndarray) -> None:
    """Write a flat parameter vector back into the layer arrays."""
    flat = np.asarray(flat, dtype=float)
    if flat.shape != (mlp.param_count,):
        raise ValueError(f"expected {mlp.param_count} parameters, "
                         f"got {flat.shape}")
    pos = 0
    for w, b in zip(mlp.weights, mlp.biases):
        w[...] = flat[pos:pos + w.size].reshape(w.shape)
        pos += w.size
        b[...] = flat[pos:pos + b.size]
        pos += b.size


def _head(raw: np.ndarray, kind: str):
    """Output activation and its derivative at the raw output."""
    if kind == "tanh":
        t = np.tanh(raw)
        return t, 1.0 - t * t
    if kind == "sigmoid":
        s = 1.0 / (1.0 + np.exp(-raw))
        return s, s * (1.0 - s)
    if kind == "relu":
        return np.maximum(raw, 0.0), (raw > 0).astype(float)
    return raw, np.ones_like(raw)


# bytes of one cell block's temporary in matmat / rmatmat / gram
_BLOCK_BYTES = 4 * 2 ** 20
# rows of one chunk of the elementwise passes of the forward and backward
# sweeps: a chunk's temporaries stay in cache, and a whole layer's would
# add an (n_cells, width) array to the peak memory
_CHUNK_ROWS = 256


def _chunks(part: slice) -> list[slice]:
    """The rows of ``part`` in chunks of at most _CHUNK_ROWS."""
    return [slice(lo, min(lo + _CHUNK_ROWS, part.stop))
            for lo in range(part.start, part.stop, _CHUNK_ROWS)]


class JacobianOperator:
    """The network linearized at its current weights, J = d(model)/d(weights).

    Construction runs one forward pass over every cell and keeps only the
    layer inputs X_l (X_0 = Z) and the head derivative; ``m`` is the model.
    ``rmatvec`` backpropagates its cotangent through that cache, so it
    equals a separate forward and backward pass bit for bit.  A
    scalar-output network's backprop sensitivities are linear in the
    cotangent, Delta_l(c) = c * Delta_l(1) row by row, so the unit
    sensitivities Delta_l(1), computed on first use, give ``matmat``,
    ``rmatmat``, ``gram`` and the dense Jacobian as GEMMs per layer (the
    per-example gradient identity, Goodfellow, arXiv:1510.01799).
    Every product is exact.  The cache holds the weights at construction:
    build a new operator after changing them.  shape is (n_cells, n_params).
    """

    def __init__(self, mlp: Mlp, z):
        x = np.asarray(z, dtype=float)
        if x.ndim != 2 or x.shape[1] != mlp.input_dim:
            raise ValueError(f"Z must have shape (n, {mlp.input_dim}), "
                             f"got {x.shape}")
        self._mlp = mlp
        n = x.shape[0]
        self.shape = (n, mlp.param_count)
        slope = mlp.hidden_slope
        hidden = list(zip(mlp.weights[:-1], mlp.biases[:-1]))
        self._xs = [x] + [np.empty((n, w.shape[1])) for w, _ in hidden]
        # one chunk of slope * a per part; a part takes the next one
        # (``next`` is atomic under the GIL), so no worker allocates
        width = max((w.shape[1] for w, _ in hidden), default=0)
        slots = iter(list(np.empty((blas._cores(), _CHUNK_ROWS * width))))

        def rows(part: slice) -> None:
            # the rows' pass through every hidden layer, into the caller's
            # arrays; no barrier between layers
            scaled = next(slots)
            for (w, b), x, a in zip(hidden, self._xs, self._xs[1:]):
                np.matmul(x[part], w, out=a[part])
                for c in _chunks(part):
                    ac = a[c]
                    ac += b
                    # LeakyReLU; equals np.where(a > 0, a, slope * a) for a
                    # slope in [0, 1], which init_kaiming enforces
                    t = scaled[:ac.size].reshape(ac.shape)
                    np.multiply(ac, slope, out=t)
                    np.maximum(ac, t, out=ac)

        # numpy's BLAS runs a one-row product, and the one-column product of
        # the output layer, as a matrix-vector product, whose rounding of a
        # row depends on where the row block starts: every part gets two
        # rows or more, and the output layer runs whole
        blas._split(rows, n, least=2)
        raw = (self._xs[-1] @ mlp.weights[-1] + mlp.biases[-1])[:, 0]
        act, self._head_deriv = _head(raw, mlp.output_activation)
        self.m = mlp.output_offset + mlp.output_scale * act
        self._unit = None

    def _slices(self):
        """(layer input, W, weight slice, bias slice) in flat-vector order."""
        pos = 0
        for x, w in zip(self._xs, self._mlp.weights):
            end = pos + w.size
            yield x, w, slice(pos, end), slice(end, end + w.shape[1])
            pos = end + w.shape[1]

    def _backward(self, d: np.ndarray, grad: np.ndarray | None = None):
        """Yield Delta_l, the sensitivities of layer l's pre-activation, last
        layer first.

        ``d`` holds those of the raw output, shape (n_cells, 1).  Delta_{l-1}
        is (Delta_l @ W_l.T) times the LeakyReLU derivative at X_l, which
        the caller forms.  Given ``grad``, a worker thread writes layer l's
        weight gradient X_l.T @ Delta_l and bias gradient (the sum over
        cells) into it at the same time (``_split``), each over all cells,
        so no sum is cut and the result does not depend on the core count.
        """
        layers = list(self._slices())
        slope = self._mlp.hidden_slope
        width = max((x.shape[1] for x, *_ in layers[1:]), default=0)
        mask = np.empty(_CHUNK_ROWS * width, dtype=bool)
        factor = np.empty(_CHUNK_ROWS * width)
        for i in range(len(layers) - 1, -1, -1):
            x, w, ws, bs = layers[i]
            yield d
            below = []

            def propagate():
                d_in = d @ w.T
                for c in _chunks(slice(0, len(x))):
                    # LeakyReLU derivative: X_i > 0 exactly where the
                    # argument of layer i - 1 was positive (slope >= 0).
                    # The factor pos * (1 - s) + s equals np.where(x > 0,
                    # 1.0, s) bit for bit and runs faster: for s in [0, 1],
                    # fl(1 - s) + s rounds to 1 and 0 * (1 - s) + s = s.
                    # x = +-0.0 and NaN get s, as with np.where.
                    xc, dc = x[c], d_in[c]
                    pos = mask[:xc.size].reshape(xc.shape)
                    f = factor[:xc.size].reshape(xc.shape)
                    np.greater(xc, 0, out=pos)
                    np.copyto(f, pos)
                    f *= 1.0 - slope
                    f += slope
                    dc *= f
                below.append(d_in)

            def gradient():
                np.matmul(x.T, d, out=grad[ws].reshape(w.shape))
                np.sum(d, axis=0, out=grad[bs])

            # the caller runs the first task, a worker the second
            tasks = [propagate] * (i > 0) + [gradient] * (grad is not None)
            blas._split(lambda part: [task() for task in tasks[part]],
                        len(tasks))
            if i:
                d = below[0]

    def _unit_deltas(self) -> list[np.ndarray]:
        """Delta_l(1) = d(model)/d(pre-activation of layer l), all cells."""
        if self._unit is None:
            head = (self._mlp.output_scale * self._head_deriv)[:, None]
            self._unit = list(self._backward(head))[::-1]
        return self._unit

    def _blocks(self, width: int):
        """Cell slices whose (rows, width) float64 temporaries fit a block."""
        rows = max(1, _BLOCK_BYTES // (8 * width))
        return [slice(s, s + rows) for s in range(0, self.shape[0], rows)]

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """J.T @ u: the weight gradient of (u . m), one reverse sweep."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.shape[0],):
            raise ValueError(f"cotangent must have length {self.shape[0]}, "
                             f"got {u.shape}")
        out = np.empty(self.shape[1])
        head = (u * self._mlp.output_scale * self._head_deriv)[:, None]
        for _ in self._backward(head, out):
            pass
        return out

    def matmat(self, v: np.ndarray) -> np.ndarray:
        """J @ V for V of shape (n_params, r)."""
        v = np.asarray(v, dtype=float)
        r = v.shape[1]
        out = np.zeros((self.shape[0], r))
        for (x, w, ws, bs), d in zip(self._slices(), self._unit_deltas()):
            fan_in, fan_out = w.shape
            out += d @ v[bs]
            vw = v[ws].reshape(fan_in, fan_out * r)
            for s in self._blocks(fan_out * r):
                t = (x[s] @ vw).reshape(-1, fan_out, r)
                out[s] += np.einsum("njk,nj->nk", t, d[s])
        return out

    def rmatmat(self, u: np.ndarray) -> np.ndarray:
        """J.T @ U for U of shape (n_cells, r)."""
        u = np.asarray(u, dtype=float)
        r = u.shape[1]
        out = np.empty((self.shape[1], r))
        for (x, w, ws, bs), d in zip(self._slices(), self._unit_deltas()):
            fan_in, fan_out = w.shape
            out[bs] = d.T @ u
            g = out[ws].reshape(fan_in, fan_out * r)
            g[...] = 0.0
            for s in self._blocks(fan_out * r):
                du = d[s][:, :, None] * u[s][:, None, :]
                g += x[s].T @ du.reshape(-1, fan_out * r)
        return out

    def gram(self) -> np.ndarray:
        """J @ J.T, the (n_cells, n_cells) empirical neural tangent kernel.

        Row i of J holds x_i (x) delta_i and delta_i for each layer, so
        (J J^T)_ij = sum_l (x_i . x_j + 1) (delta_i . delta_j).  A row
        block is summed up to its diagonal, then mirrored above it.
        """
        n = self.shape[0]
        out = np.zeros((n, n))
        for s in self._blocks(n):
            for x, d in zip(self._xs, self._unit_deltas()):
                t = x[s] @ x[:s.stop].T
                t += 1.0
                t *= d[s] @ d[:s.stop].T
                out[s, :s.stop] += t
            out[:s.start, s] = out[s, :s.start].T
        return out

    def dense(self) -> np.ndarray:
        """The whole Jacobian; row i is the weight gradient of m_i."""
        out = np.empty(self.shape)
        n = self.shape[0]
        for (x, w, ws, bs), d in zip(self._slices(), self._unit_deltas()):
            np.multiply(x[:, :, None], d[:, None, :],
                        out=out[:, ws].reshape(n, *w.shape))
            out[:, bs] = d
        return out


def forward(mlp: Mlp, z) -> np.ndarray:
    """Evaluate the network on every row of Z; returns the model vector."""
    return JacobianOperator(mlp, z).m


def vjp(mlp: Mlp, z, cotangent: np.ndarray) -> np.ndarray:
    """Gradient of (cotangent . m(w)) with respect to the flat weights."""
    return JacobianOperator(mlp, z).rmatvec(cotangent)


def weight_jacobian(mlp: Mlp, z, max_bytes: int = MAX_BYTES) -> np.ndarray:
    """Dense Jacobian d(model)/d(weights); row i is vjp with cotangent e_i.

    Refuses to allocate more than ``max_bytes``; use
    :class:`JacobianOperator` beyond that.
    """
    n, p = len(z), mlp.param_count
    need = n * p * 8
    if need > max_bytes:
        raise CapacityError(
            f"dense Jacobian needs {need} bytes (> budget {max_bytes}); "
            "use JacobianOperator for the matrix-free path")
    return JacobianOperator(mlp, z).dense()


def save_checkpoint(path, mlp: Mlp, epoch: int | None = None) -> None:
    """One-line JSON header followed by the little-endian float64 weights."""
    header = {
        "layer_dims": list(mlp.layer_dims),
        "hidden_slope": mlp.hidden_slope,
        "output_activation": mlp.output_activation,
        "output_scale": mlp.output_scale,
        "output_offset": mlp.output_offset,
        "seed": mlp.seed,
        "epoch": epoch,
        "dtype": "<f8",
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        f.write(get_weights(mlp).astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[Mlp, dict]:
    """Rebuild a network from :func:`save_checkpoint` output; a malformed
    header or a non-finite weight raises ValueError."""
    from nfinv.manifest import CHECKPOINT, _walk  # circular at module level
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode())
        flat = np.frombuffer(f.read(), dtype="<f8").astype(float)
    _walk(CHECKPOINT, header, "header")
    if not np.all(np.isfinite(flat)):
        raise ValueError(f"weights: {np.sum(~np.isfinite(flat))} not finite")
    mlp = init_kaiming(header["layer_dims"],
                       hidden_slope=header["hidden_slope"],
                       output_activation=header["output_activation"],
                       output_scale=header["output_scale"],
                       output_offset=header["output_offset"],
                       seed=header["seed"] or 0)
    set_weights(mlp, flat)
    return mlp, header
