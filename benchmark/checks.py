"""Output checks for the benchmark's workloads.

Every check compares a run's outputs with a computation made here from the
manifest and the files the run wrote (grids, data, histories and the
checkpoint are written with ``repr`` and are read back exactly), or with a
property the method must have.  None compares with a stored earlier output.
The program's own code is used only as the operator under test: its
``forward``/``vjp`` against a reference network written here from the layer
arrays, and its DC-resistivity forward map against reciprocity and finite
differences.

A check is ``(name, ok, detail)``.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

# budget-limited fits must reach chi2/N within 50% of the noise level
CHI2_BUDGET_LIMIT = 1.5
NETWORK_FD_REL = 1e-5      # criterion 5, network vjp
DCR_FD_REL = 1e-4          # criterion 5, DC-resistivity adjoint
ADJOINT_REL = 1e-10
RECIPROCITY_REL = 1e-10
MISFIT_REL = 1e-8
MODEL_REL = 1e-10
RAY_REL = 1e-9
ORTHO_ABS = 1e-8
SIGMA_UPPER_REL = 1e-8     # randomized sigma_i <= exact sigma_i, round-off
SIGMA1_REL = 1e-5         # worst over seeds 0-29 of tomo-nfs: 2.7e-7


def result(name: str, ok: bool, detail: str):
    return (name, bool(ok), detail)


# ---------------------------------------------------------------- readers

def read_grid(path) -> np.ndarray:
    """Values of a grid CSV (header nx,nz,dx,dz), row-major, x fastest."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    nx, nz = int(rows[0][0]), int(rows[0][1])
    values = np.array([[float(v) for v in row] for row in rows[1:]])
    if values.shape != (nz, nx):
        raise ValueError(f"{path}: body {values.shape} != ({nz}, {nx})")
    return values.ravel()


def number(text: str) -> float:
    """A CSV field as a float, also when written as ``np.float64(x)``.

    nfinv writes histories.csv and spectrum.csv with ``repr`` of numpy
    scalars, which numpy >= 2 spells ``np.float64(x)``.
    """
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def read_table(path) -> dict[str, np.ndarray]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return {name: np.array([number(r[i]) for r in rows[1:]])
            for i, name in enumerate(rows[0])}


def read_metrics(out_dir) -> dict:
    with open(os.path.join(out_dir, "metrics.json")) as f:
        return json.load(f)


def read_checkpoint(path):
    """(header, flat float64 weights) of a checkpoint file."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        flat = np.frombuffer(f.read(), dtype="<f8").astype(float)
    return header, flat


# ------------------------------------------------------ reference network

def unflatten(dims, flat):
    """Layer (W, b) pairs from the flat order: W.ravel() then b per layer."""
    layers, pos = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        W = flat[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out)
        pos += fan_in * fan_out
        layers.append((W, flat[pos:pos + fan_out]))
        pos += fan_out
    if pos != len(flat):
        raise ValueError(f"{len(flat)} weights for dims {dims}")
    return layers


def reference_forward(layers, Z, head, pattern=None):
    """Model m(w), the layer inputs X_l and the pre-activations a_l.

    With ``pattern`` (per hidden layer, where the LeakyReLU takes slope 1)
    the activation pattern is frozen: the network is then the linear piece
    that holds at the point the pattern was taken.
    """
    slope = head["hidden_slope"]
    xs, pre = [Z], []
    for i, (W, b) in enumerate(layers):
        a = xs[-1] @ W + b
        pre.append(a)
        if i < len(layers) - 1:
            xs.append(np.where(a > 0 if pattern is None else pattern[i],
                               a, slope * a))
    raw = pre[-1][:, 0]
    if head["output_activation"] == "tanh":
        act = np.tanh(raw)
    elif head["output_activation"] == "sigmoid":
        act = 1.0 / (1.0 + np.exp(-raw))
    else:
        raise ValueError(f"no reference for {head['output_activation']!r}")
    return head["output_offset"] + head["output_scale"] * act, xs, pre


def linearize(layers, Z, head):
    """Model m(w), the layer inputs X_l and the sensitivities dm/da_l."""
    m, xs, pre = reference_forward(layers, Z, head)
    act = (m - head["output_offset"]) / head["output_scale"]
    dact = 1.0 - act * act if head["output_activation"] == "tanh" \
        else act * (1.0 - act)
    d = (head["output_scale"] * dact)[:, None]
    deltas = [d]
    for i in range(len(layers) - 2, -1, -1):
        d = (d @ layers[i + 1][0].T) * np.where(pre[i] > 0, 1.0,
                                                head["hidden_slope"])
        deltas.append(d)
    return m, xs, deltas[::-1]


def gram_singular_values(layers, Z, head, k: int) -> np.ndarray:
    """Top-k singular values of the weight Jacobian J, via eig(J J^T).

    Row i of J holds, per layer, x_i (outer) delta_i and the bias part
    delta_i, so (J J^T)_ij = sum_l (x_i . x_j + 1)(delta_i . delta_j).
    """
    _, xs, deltas = linearize(layers, Z, head)
    n = Z.shape[0]
    G = np.zeros((n, n))
    for x, d in zip(xs, deltas):
        G += (x @ x.T + 1.0) * (d @ d.T)
    ev = np.linalg.eigvalsh(G)[::-1][:k]
    return np.sqrt(np.maximum(ev, 0.0))


# ---------------------------------------------------- geometry from manifest

def core_centers(nx, nz, dx, dz):
    """(x, z) of core-cell centers from the core's top-left corner."""
    gx, gz = np.meshgrid((np.arange(nx) + 0.5) * dx, (np.arange(nz) + 0.5) * dz)
    return gx.ravel(), gz.ravel()


def core_shape(man):
    mc = man["mesh"]
    if man["case"] in (1, 2):
        return mc["nx"], mc["nz"], mc["dx"], mc["dz"]
    return mc["nx_core"], mc["nz_core"], mc["dx"], mc["dz"]


def encoded_input(man) -> np.ndarray:
    """Encoded core-cell coordinates (identity or basic encoding)."""
    nx, nz, dx, dz = core_shape(man)
    lo, hi = man["encoding"]["coord_range"]
    gx, gz = core_centers(nx, nz, dx, dz)

    def scale(v, n):
        return (np.full_like(v, 0.5 * (lo + hi)) if n == 1
                else lo + (v - v.min()) * (hi - lo) / (v.max() - v.min()))
    x = np.column_stack([scale(gx, nx), scale(gz, nz)])
    kind = man["encoding"]["kind"]
    if kind == "identity":
        return x
    if kind == "basic":
        p = 2.0 * np.pi * x
        return np.hstack([np.cos(p), np.sin(p)])
    raise ValueError(f"no reference for the {kind!r} encoding")


def _stations(man):
    nx, nz, dx, dz = core_shape(man)
    sp = man["survey"]["spacing"]
    zs = (np.arange(int(round(nz * dz / sp))) + 0.5) * sp
    return nx * dx, np.repeat(zs, len(zs)), np.tile(zs, len(zs))


def crosshole_distances(man) -> np.ndarray:
    """Straight source-receiver distance of every ray, source-major."""
    width, z0, z1 = _stations(man)
    return np.hypot(width, z1 - z0)


def travel_times(man, slowness) -> np.ndarray:
    """Straight-ray travel times through a core-grid slowness model.

    Each ray from (0, z0) to (width, z1) is cut at every grid-line crossing
    (parameter t in [0, 1]); each piece lies in the cell holding its
    midpoint.
    """
    nx, nz, dx, dz = core_shape(man)
    width, z0, z1 = _stations(man)
    tx = np.broadcast_to(np.arange(nx + 1) * dx / width, (len(z0), nx + 1))
    dz_ray = np.where(z1 == z0, np.nan, z1 - z0)
    tz = (np.arange(nz + 1) * dz - z0[:, None]) / dz_ray[:, None]
    tz = np.where((tz > 0) & (tz < 1), tz, 1.0)   # no crossing: empty piece
    t = np.sort(np.hstack([tx, tz]), axis=1)
    seg = np.diff(t, axis=1)
    mid = t[:, :-1] + 0.5 * seg
    ix = np.clip((mid * width / dx).astype(int), 0, nx - 1)
    iz = np.clip(((z0[:, None] + mid * (z1 - z0)[:, None]) / dz).astype(int),
                 0, nz - 1)
    length = seg * np.hypot(width, z1 - z0)[:, None]
    return np.sum(length * slowness[iz * nx + ix], axis=1)


def dipole_dipole(man):
    """Electrode x and the (A, B, M, N) index rows of the survey."""
    nx, _, dx, _ = core_shape(man)
    sv = man["survey"]
    n_elec = int(math.floor(sv["line_length"] / sv["station_sep"] + 1e-9)) + 1
    x0 = sv["x0"] if sv["x0"] is not None \
        else 0.5 * (nx * dx - sv["line_length"])
    xs = x0 + np.arange(n_elec) * sv["station_sep"]
    rows = [(i, i + 1, j, j + 1) for i in range(n_elec - 1)
            for j in range(i + 2, min(i + 2 + sv["max_rx"], n_elec - 1))]
    return xs, np.array(rows, dtype=int)


def case3_truth(man) -> np.ndarray:
    """Desk case-3 log10 conductivity: dipping dike under a surface layer."""
    nx, nz, dx, dz = core_shape(man)
    tm = man["true_model"]
    gx, gz = core_centers(nx, nz, dx, dz)
    x_top = tm["dike_x_frac"] * nx * dx
    dip = math.radians(tm["dip_angle_deg"])
    x_mid = x_top + (gz - tm["layer_thickness"]) / math.tan(dip)
    dike = ((gz >= tm["layer_thickness"]) & (gz <= tm["dike_depth"])
            & (np.abs(gx - x_mid) <= tm["dike_width"] / 2))
    m = np.full(gx.shape, math.log10(tm["background_sigma"]))
    m[dike] = math.log10(tm["dike_sigma"])
    m[gz < tm["layer_thickness"]] = math.log10(tm["layer_sigma"])
    return m


# ------------------------------------------------------------- the checks

def misfit(d_obs, unc, d_pred) -> float:
    return 0.5 * float(np.sum(((d_obs - d_pred) / unc) ** 2))


def rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_ray_matrix(man, A):
    s = 1.0 / man["true_model"]["background_velocity"]
    ref = s * crosshole_distances(man)
    err = float(np.max(np.abs(A @ np.full(A.shape[1], s) - ref) / ref))
    return result("tomo.ray_matrix", err <= RAY_REL,
                  f"max rel |A s - s dist| = {err:.2e} (bound {RAY_REL:g})")


def check_misfit(name, reported, recomputed):
    err = rel(recomputed, reported)
    return result(name, err <= MISFIT_REL,
                  f"reported {reported!r}, recomputed {recomputed!r}, "
                  f"rel {err:.2e}")


def check_chi2(name, chi2, limit):
    return result(name, chi2 <= limit, f"chi2/N {chi2:.4f} (limit {limit:g})")


def check_network(man, layers, head, model, program_forward, program_vjp,
                  rng, n_dirs=3):
    """Program forward/vjp against the reference network.

    ``program_forward()`` and ``program_vjp(u)`` evaluate the program at
    the checkpoint weights; ``model`` is the recovered model the run wrote.
    """
    Z = encoded_input(man)
    m_ref, _, pre = reference_forward(layers, Z, head)
    scale = float(np.max(np.abs(m_ref)))
    flat = np.concatenate([np.concatenate([W.ravel(), b]) for W, b in layers])
    e_fwd = float(np.max(np.abs(program_forward() - m_ref))) / scale
    e_rec = float(np.max(np.abs(model - m_ref))) / scale
    out = [result("network.forward", e_fwd <= MODEL_REL and e_rec <= MODEL_REL,
                  f"forward vs reference {e_fwd:.2e}, recovered vs reference "
                  f"{e_rec:.2e} (bound {MODEL_REL:g})")]

    u = rng.standard_normal(len(m_ref))
    g = program_vjp(u)
    dims = [layers[0][0].shape[0]] + [W.shape[1] for W, _ in layers]
    # Central differences of the network with its LeakyReLU pattern frozen
    # at w: the directional derivative at w is that of the piece holding w,
    # and a step across a kink (one of ~1e7 units at full scale) would
    # otherwise spoil the difference.  Round-off at this step is ~1e-9.
    pattern = [a > 0 for a in pre[:-1]]
    h = 1e-7 * np.linalg.norm(flat)
    worst = 0.0
    for _ in range(n_dirs):
        d = rng.standard_normal(flat.size)
        d /= np.linalg.norm(d)
        fp = reference_forward(unflatten(dims, flat + h * d), Z, head, pattern)[0]
        fm = reference_forward(unflatten(dims, flat - h * d), Z, head, pattern)[0]
        fd = float(u @ (fp - fm)) / (2 * h)
        worst = max(worst, rel(float(g @ d), fd))
    out.append(result("network.vjp", worst <= NETWORK_FD_REL,
                      f"max rel |vjp . d - central difference| {worst:.2e} "
                      f"over {n_dirs} directions (bound {NETWORK_FD_REL:g})"))
    return out


def check_svd(values, U, exact):
    """Randomized top-k against the exact spectrum; U orthonormal."""
    k = len(values)
    ortho = float(np.max(np.abs(U.T @ U - np.eye(k))))
    out = [result("svd.orthonormal", ortho <= ORTHO_ABS,
                  f"max |U^T U - I| = {ortho:.2e} (bound {ORTHO_ABS:g})"),
           result("svd.nonincreasing", bool(np.all(np.diff(values) <= 0)),
                  f"values {values[0]:.6g} .. {values[-1]:.6g}")]
    over = float(np.max((values - exact[:k]) / exact[:k]))
    out.append(result("svd.upper_bound", over <= SIGMA_UPPER_REL,
                      f"max (sigma_i - exact_i) / exact_i = {over:.2e} "
                      f"(bound {SIGMA_UPPER_REL:g})"))
    e1 = rel(values[0], exact[0])
    out.append(result("svd.sigma1", e1 <= SIGMA1_REL,
                      f"sigma_1 rel err {e1:.2e} (bound {SIGMA1_REL:g})"))
    return out


def topk_rel_err(values, exact) -> float:
    k = len(values)
    return float(np.max(np.abs(values - exact[:k]) / exact[:k]))


def check_survey(man, table):
    xs, idx = dipole_dipole(man)
    got = np.column_stack([table[c] for c in ("A_x", "B_x", "M_x", "N_x")])
    ok = got.shape == idx.shape and np.allclose(got, xs[idx], rtol=0,
                                                atol=1e-9)
    return result("dcr.survey", ok,
                  f"{len(got)} data in the file, {len(idx)} enumerated")


def check_beta(man, histories):
    t = histories["epoch"]
    want = np.exp(-t / man["nfs"]["tau"])
    err = float(np.max(np.abs(histories["beta"] - want) / want))
    ok = err <= 1e-12 and np.array_equal(t, np.arange(1, len(t) + 1))
    return result("inversion.beta", ok,
                  f"max rel |beta - exp(-t/tau)| {err:.2e} over {len(t)} epochs")


def check_range(model, lo, hi):
    ok = bool(np.all((model > lo) & (model < hi)))
    return result("network.range", ok,
                  f"model in [{model.min():.4f}, {model.max():.4f}], "
                  f"open range ({lo:g}, {hi:g})")


def check_rmse(model, truth, start):
    r = float(np.sqrt(np.mean((model - truth) ** 2)))
    r0 = float(np.sqrt(np.mean((start - truth) ** 2)))
    return result("dcr.rmse", r < r0,
                  f"rmse {r:.4f} vs uniform start {r0:.4f}")


def check_physics(make_simulator, man, model, rng, n_dirs=3):
    """Reciprocity, adjoint gradient vs central differences, adjoint identity.

    ``make_simulator(electrode_x, sources, receivers)`` returns a
    predict/gradient/jvp simulator for the given dipoles.
    """
    xs, idx = dipole_dipole(man)
    fwd = make_simulator(xs, idx[:, :2], idx[:, 2:])
    d = fwd.predict(model)
    swapped = make_simulator(xs, idx[:, 2:], idx[:, :2])
    d_sw = swapped.predict(model)
    e_rec = float(np.max(np.abs(d_sw - d)) / np.max(np.abs(d)))
    out = [result("dcr.reciprocity", e_rec <= RECIPROCITY_REL,
                  f"max |d(MN<-AB) - d(AB<-MN)| / max|d| = {e_rec:.2e} "
                  f"(bound {RECIPROCITY_REL:g})")]

    v = rng.standard_normal(len(d))
    dirs = [rng.standard_normal(len(model)) for _ in range(n_dirs)]
    g = fwd.gradient(v)
    adj = max(rel(float(v @ fwd.jvp(dm)), float(g @ dm)) for dm in dirs)
    h = 1e-5
    worst = 0.0
    for dm in dirs:
        dm = dm / np.linalg.norm(dm)
        fd = float(v @ (fwd.predict(model + h * dm)
                        - fwd.predict(model - h * dm))) / (2 * h)
        worst = max(worst, rel(float(g @ dm), fd))
    out.append(result("dcr.gradient", worst <= DCR_FD_REL,
                      f"max rel |grad . dm - central difference| {worst:.2e} "
                      f"(bound {DCR_FD_REL:g})"))
    out.append(result("dcr.adjoint", adj <= ADJOINT_REL,
                      f"max rel |v.(J dm) - (J^T v).dm| {adj:.2e} "
                      f"(bound {ADJOINT_REL:g})"))
    return out


# ------------------------------------------------- per-workload verification

class _Reordered:
    """A simulator whose data come back in the caller's datum order."""

    def __init__(self, sim, order):
        self.sim, self.order = sim, order

    def predict(self, m):
        return self.sim.predict(m)[self.order]

    def gradient(self, v):
        grouped = np.empty_like(v)
        grouped[self.order] = v
        return self.sim.gradient(grouped)

    def jvp(self, dm):
        return self.sim.jvp(dm)[self.order]


def dcr_simulators(man):
    """Factory of program DC simulators for arbitrary (A, B), (M, N) rows."""
    from nfinv import dcr
    from nfinv.mesh import build_dcr_mesh
    mc = man["mesh"]
    mesh = build_dcr_mesh(mc["nx_core"], mc["nz_core"], mc["dx"], mc["dz"],
                          mc["n_pad"], mc["pad_factor"])

    def make(xs, sources, receivers):
        groups: dict[tuple, list] = {}
        for k, (s, r) in enumerate(zip(sources, receivers)):
            groups.setdefault((int(s[0]), int(s[1])), []).append(
                (k, (int(r[0]), int(r[1]))))
        survey = dcr.DcrSurvey(
            xs, tuple(groups),
            tuple(tuple(r for _, r in g) for g in groups.values()),
            man["survey"]["current"])
        order = np.empty(len(sources), dtype=int)
        order[[k for g in groups.values() for k, _ in g]] = \
            np.arange(len(sources))
        return _Reordered(dcr.DcrSimulator(mesh, survey, man["padding_sigma"]),
                          order)
    return make


def _network(man, out_dir, model, rng):
    from nfinv.neural_field import Mlp, forward, vjp
    header, flat = read_checkpoint(os.path.join(out_dir, "weights_final.ckpt"))
    dims = header["layer_dims"]
    layers = unflatten(dims, flat)
    mlp = Mlp(tuple(dims), [W.copy() for W, _ in layers],
              [b.copy() for _, b in layers], header["hidden_slope"],
              header["output_activation"], header["output_scale"],
              header["output_offset"])
    Z = encoded_input(man)
    checks = check_network(man, layers, header, model,
                           lambda: forward(mlp, Z),
                           lambda u: vjp(mlp, Z, u), rng)
    return checks, layers, header, Z


def _svd(man, out_dir, layers, head, Z):
    svd_dir = os.path.join(out_dir, "svd")
    values = read_table(os.path.join(svd_dir, "spectrum.csv"))["singular_value"]
    U = np.column_stack([read_grid(os.path.join(svd_dir, f"u_{i:03d}.csv"))
                         for i in range(len(values))])
    exact = gram_singular_values(layers, Z, head, len(values))
    return check_svd(values, U, exact), topk_rel_err(values, exact)


def verify(man, out_dir, rng):
    """Every file check of one run's outputs: (checks, quality figures).

    The ray-matrix check needs the run's matrix and is made by the caller.
    """
    metrics = read_metrics(out_dir)
    model = read_grid(os.path.join(out_dir, "recovered.csv"))
    data = read_table(os.path.join(out_dir, "data_obs.csv"))
    out, figures = [], {}
    if man["case"] == 1:
        d, unc = data["t_obs_ms"] * 1e-3, data["uncertainty_ms"] * 1e-3
        phi = misfit(d, unc, travel_times(man, model))
        out.append(check_misfit("tomo.misfit", metrics["final_misfit"], phi))
        out.append(check_chi2("tomo.chi2", 2 * phi / len(d),
                              CHI2_BUDGET_LIMIT))
    else:
        make = dcr_simulators(man)
        xs, idx = dipole_dipole(man)
        d, unc = data["dV_volts"], data["uncertainty_volts"]
        phi = misfit(d, unc, make(xs, idx[:, :2], idx[:, 2:]).predict(model))
        out.append(check_survey(man, data))
        out.append(check_misfit("dcr.misfit", metrics["final_misfit"], phi))
        if man["method"] == "nfs":
            net = man["network"]
            out.append(check_beta(man, read_table(
                os.path.join(out_dir, "histories.csv"))))
            out.append(check_range(model, net["output_offset"],
                                   net["output_offset"] + net["output_scale"]))
        else:
            conv = man["conventional"]
            out.append(result(
                "inversion.converged",
                metrics["status"] == "ok" and metrics["converged"],
                f"status {metrics['status']}, converged "
                f"{metrics['converged']} after {metrics['epochs_run']}"))
            out.append(check_chi2("dcr.chi2", 2 * phi / len(d),
                                  conv["target_chi2"]))
            out.append(check_rmse(model, case3_truth(man),
                                  np.full(model.shape, conv["m_ref"])))
        out += check_physics(make, man, model, rng)
    if man["method"] == "nfs":
        checks, layers, head, Z = _network(man, out_dir, model, rng)
        out += checks
        if man.get("svd"):
            checks, figures["svd_analysis.topk_max_rel_err"] = _svd(
                man, out_dir, layers, head, Z)
            out += checks
    return out, figures
