"""End-to-end case execution: build, simulate, invert, export.

Every run directory carries a manifest echo sufficient to rerun it, data
and model grids as CSV, rendered heatmaps, per-epoch histories and a
machine-readable metrics file.  Every output is byte-deterministic per
manifest and host at any core count and any BLAS pool size; wall-clock
timings appear only in metrics.json.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from nfinv import dcr, tomo
from nfinv.encoding import encode, gaussian_frequencies, write_b_matrix_csv
from nfinv.errors import CapacityError, GeometryError, ManifestError
from nfinv.inversion import Regularization, conventional_invert, nfs_invert
from nfinv.manifest import (
    REGULARIZATION,
    layer_dims,
    save_manifest,
    sub_seed,
    validate_manifest,
)
from nfinv.mesh import (
    TensorMesh,
    build_dcr_mesh,
    build_tomo_mesh,
    normalized_centers,
    write_grid_csv,
)
from nfinv.neural_field import init_kaiming, save_checkpoint
from nfinv.render import render_heatmap
from nfinv.scenarios import (
    add_noise,
    gaussian_random_field,
    make_case1,
    make_case2,
    make_case3,
    make_case4,
)
from nfinv.svd_analysis import analyze_trained_network


@dataclass
class Assembled:
    """Everything a run needs, built deterministically from a manifest."""

    mesh: TensorMesh
    truth: np.ndarray            # model-space truth on the core grid
    survey: object
    simulator: object
    d_clean: np.ndarray
    d_obs: np.ndarray
    w_d: np.ndarray


def assemble(man: dict) -> Assembled:
    validate_manifest(man)
    case = man["case"]
    seed = man["seed"]
    mesh_cfg = man["mesh"]
    tm = man["true_model"]

    if case in (1, 2):
        mesh = build_tomo_mesh(mesh_cfg["nx"], mesh_cfg["nz"],
                               mesh_cfg["dx"], mesh_cfg["dz"])
        if case == 1:
            with np.errstate(over="ignore"):  # named below if it overflows
                truth = make_case1(mesh, **tm)
        else:
            try:
                field = gaussian_random_field(
                    mesh.nx_core, mesh.nz_core, mesh.dx_core, mesh.dz_core,
                    **tm["grf"], seed=sub_seed(seed, "grf"))
            except CapacityError as exc:
                raise ManifestError("true_model.grf", str(exc)) from exc
            truth = make_case2(mesh, field, **tm["ellipse"],
                               background_velocity=tm["background_velocity"])
        try:
            survey = tomo.build_crosshole_survey(mesh, man["survey"]["spacing"])
        except (ValueError, CapacityError) as exc:
            raise ManifestError("survey.spacing", str(exc)) from exc
        try:
            simulator = tomo.TomoSimulator(tomo.build_ray_matrix(mesh, survey))
        except GeometryError as exc:
            # a subnormal dx has too few bits to place a ray in its cells
            raise ManifestError("mesh.dx", str(exc)) from exc
        d_clean = simulator.predict(truth)
        if not np.all(np.isfinite(d_clean)):
            # case 2 floors its velocities; of case 1's, the slower one
            slow = min(("background_velocity", "block_velocity"), key=tm.get)
            raise ManifestError(f"true_model.{slow}", "travel times overflow")
        uncertainty = man["noise"]["std_ms"] * 1e-3
        if uncertainty * np.finfo(float).max < 1.0:
            raise ManifestError("noise.std_ms", "its data weight overflows")
    else:
        try:
            mesh = build_dcr_mesh(mesh_cfg["nx_core"], mesh_cfg["nz_core"],
                                  mesh_cfg["dx"], mesh_cfg["dz"],
                                  mesh_cfg["n_pad"], mesh_cfg["pad_factor"])
        except ValueError as exc:
            raise ManifestError("mesh.pad_factor", str(exc)) from exc
        if case == 3:
            truth = make_case3(mesh, **tm)
        else:
            truth = make_case4(mesh, **tm)
        sv = man["survey"]
        # a line on the core, at most one electrode per surface-cell edge
        if sv["line_length"] > mesh.nx_core * mesh.dx_core:
            raise ManifestError("survey.line_length", "longer than the core")
        if sv["line_length"] / sv["station_sep"] + 1e-9 >= mesh.nx_core + 1:
            raise ManifestError("survey.station_sep", "puts more than "
                                f"{mesh.nx_core + 1} electrodes on the core")
        x0 = sv["x0"]
        if x0 is None:  # center the line on the core region
            core_lo, core_hi = mesh.core_x_extent
            x0 = core_lo + 0.5 * ((core_hi - core_lo) - sv["line_length"])
        survey = dcr.build_dipole_dipole_survey(
            sv["line_length"], sv["station_sep"], sv["max_rx"], x0=x0,
            current=sv["current"])
        if np.any(np.diff(survey.electrode_x) <= 0):
            raise ManifestError("survey.station_sep", "electrode positions "
                                "are not strictly increasing in floating "
                                f"point at x0 = {x0:.4g} m")
        if survey.n_data == 0:
            raise ManifestError("survey.line_length",
                                "too short for one dipole-dipole datum")
        try:
            simulator = dcr.DcrSimulator(mesh, survey,
                                         background_sigma=man["padding_sigma"])
        except GeometryError as exc:
            raise ManifestError("survey.line_length" if sv["x0"] is None
                                else "survey.x0", str(exc)) from exc
        d_clean = simulator.predict(truth)
        uncertainty = (man["noise"]["rel_fraction"] * np.abs(d_clean)
                       + man["noise"]["floor_v"])

    d_obs, w_d = add_noise(d_clean, uncertainty, sub_seed(seed, "noise"))
    return Assembled(mesh=mesh, truth=truth, survey=survey,
                     simulator=simulator, d_clean=d_clean, d_obs=d_obs,
                     w_d=w_d)


def _write_data_files(man: dict, asm: Assembled, out_dir: str) -> None:
    write = (tomo.write_tomo_data_csv if man["case"] in (1, 2)
             else dcr.write_dcr_data_csv)
    write(os.path.join(out_dir, "data_clean.csv"), asm.survey, asm.d_clean,
          np.zeros_like(asm.d_clean))
    write(os.path.join(out_dir, "data_obs.csv"), asm.survey, asm.d_obs,
          1.0 / asm.w_d)


def _write_model_grid(mesh: TensorMesh, values: np.ndarray, out_dir: str,
                      stem: str) -> None:
    grid = values.reshape(mesh.nz_core, mesh.nx_core)
    write_grid_csv(os.path.join(out_dir, f"{stem}.csv"), grid,
                   nx=mesh.nx_core, nz=mesh.nz_core, dx=mesh.dx_core,
                   dz=mesh.dz_core)
    render_heatmap(grid, os.path.join(out_dir, f"{stem}.png"))


def _write_histories(result, out_dir: str) -> None:
    # wall clock deliberately excluded: CSVs must be byte-deterministic
    with open(os.path.join(out_dir, "histories.csv"), "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["epoch", "misfit", "beta", "reg"])
        w.writerows(zip(range(1, result.n_epochs + 1),
                        result.misfit_history.tolist(),
                        result.beta_history.tolist(),
                        result.reg_history.tolist()))


def _build_regularization(cfg: dict, mesh: TensorMesh) -> Regularization:
    return Regularization(mesh.nx_core, mesh.nz_core, mesh.dx_core,
                          mesh.dz_core,
                          **{key: cfg[key] for key in REGULARIZATION})


def encode_cells(man: dict, mesh: TensorMesh
                 ) -> tuple[np.ndarray | None, np.ndarray]:
    """The gaussian kind's frequency matrix B (None for the other kinds)
    and the encoded core-cell centers."""
    enc = man["encoding"]
    b = None
    if enc["kind"] == "gaussian":
        b = gaussian_frequencies(enc["b_rows"], enc["b_std"],
                                 sub_seed(man["seed"], "encoding"))
    lo, hi = enc["coord_range"]
    # the schema admits m only for the linear kind
    return b, encode(normalized_centers(mesh, lo, hi), enc["kind"],
                     m=enc.get("m"), b=b)


def run_nfs(man: dict, asm: Assembled, out_dir: str | None = None):
    """NFs inversion per the manifest; returns (result, mlp, Z)."""
    seed = man["seed"]
    b, Z = encode_cells(man, asm.mesh)
    if b is not None and out_dir is not None:
        write_b_matrix_csv(b, os.path.join(out_dir, "b_matrix.csv"))

    net = man["network"]
    mlp = init_kaiming(layer_dims(man),
                       output_activation=net["output_activation"],
                       output_scale=net["output_scale"],
                       output_offset=net["output_offset"],
                       seed=sub_seed(seed, "init"))
    nfs_cfg = man["nfs"]
    reg = None
    if nfs_cfg["regularization"] is not None:
        reg = _build_regularization(nfs_cfg["regularization"], asm.mesh)
    target = None
    if nfs_cfg["target_chi2"] is not None:
        target = nfs_cfg["target_chi2"] * len(asm.d_obs) / 2.0
    result = nfs_invert(asm.simulator, asm.d_obs, asm.w_d, mlp, Z,
                        epochs=man["epochs"], tau=nfs_cfg["tau"],
                        learning_rate=nfs_cfg["learning_rate"],
                        reg=reg, target_misfit=target,
                        checkpoint_every=man["checkpoint_every"],
                        checkpoint_dir=out_dir)
    return result, mlp, Z


def run_conventional(man: dict, asm: Assembled):
    conv = man["conventional"]
    reg = None
    if max(conv["alpha_s"], conv["alpha_x"], conv["alpha_z"]) > 0:
        reg = _build_regularization(conv, asm.mesh)
    m0 = np.full(asm.mesh.n_active, float(conv["m_ref"]))
    target = None
    if conv["target_chi2"] is not None:
        target = conv["target_chi2"] * len(asm.d_obs) / 2.0
    return conventional_invert(
        asm.simulator, asm.d_obs, asm.w_d, m0, reg=reg,
        optimizer=conv["optimizer"],
        sensitivity_weighting=conv["sensitivity_weighting"],
        max_iterations=int(conv["max_iterations"]),
        beta0=conv["beta0"], beta_cooling=conv["beta_cooling"],
        target_misfit=target)


def compute_metrics(man: dict, asm: Assembled, result) -> dict:
    rmse = float(np.sqrt(np.mean((result.model - asm.truth) ** 2)))
    chi2 = 2.0 * result.final_misfit / len(asm.d_obs)
    metrics = {
        "case": man["case"],
        "method": man["method"],
        "seed": man["seed"],
        "rmse": rmse,
        "final_misfit": result.final_misfit,
        "chi2_per_datum": chi2,
        "epochs_run": result.n_epochs,
        "converged": result.converged,
        "status": result.status,
        "runtime_seconds": float(np.sum(result.wall_clock)),
        "gn_cg_unconverged": int(np.count_nonzero(result.cg_info > 0)),
        "artifact_energy": None,
    }
    if man["case"] == 1:
        bg = 1.0 / man["true_model"]["background_velocity"]
        off_target = asm.truth == bg
        metrics["artifact_energy"] = float(
            np.sum((result.model[off_target] - bg) ** 2))
    return metrics


def _write_echo(man: dict, out_dir: str) -> None:
    """The manifest as run, which reruns to the same CSVs."""
    save_manifest(man, os.path.join(out_dir, "manifest_echo.json"))


def _simulate(man: dict, out_dir: str) -> Assembled:
    """Assemble the manifest and write its echo, truth and data files."""
    os.makedirs(out_dir, exist_ok=True)
    asm = assemble(man)
    _write_echo(man, out_dir)
    _write_model_grid(asm.mesh, asm.truth, out_dir, "truth")
    _write_data_files(man, asm, out_dir)
    return asm


def simulate_case(man: dict, out_dir) -> dict:
    """Forward-only run: truth, clean data, noisy data, manifest echo."""
    out_dir = str(out_dir)
    asm = _simulate(man, out_dir)
    return {"n_data": len(asm.d_obs), "out_dir": out_dir}


def run_case(man: dict, out_dir) -> dict:
    """Full seeded run; returns the metrics dict (also written to disk)."""
    out_dir = str(out_dir)
    asm = _simulate(man, out_dir)

    if man["method"] == "nfs":
        result, mlp, Z = run_nfs(man, asm, out_dir)
        save_checkpoint(os.path.join(out_dir, "weights_final.ckpt"), mlp,
                        epoch=result.n_epochs)
        if man["svd"] is not None:
            analyze_trained_network(mlp, Z, man["svd"]["k"], asm.mesh,
                                    out_dir=os.path.join(out_dir, "svd"))
    else:
        result = run_conventional(man, asm)

    _write_model_grid(asm.mesh, result.model, out_dir, "recovered")
    _write_histories(result, out_dir)
    metrics = compute_metrics(man, asm, result)
    with open(os.path.join(out_dir, "metrics.json"), "w") as f:
        json.dump(metrics, f, indent=2, sort_keys=True)
        f.write("\n")
    return metrics
