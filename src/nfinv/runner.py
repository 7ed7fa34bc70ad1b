"""End-to-end case execution: build, simulate, invert, export.

Every run directory carries a manifest echo sufficient to rerun it, data
and model grids as CSV, rendered heatmaps, per-epoch histories and a
machine-readable metrics file.  All CSV outputs are byte-deterministic
for a given manifest; wall-clock timings appear only in metrics.json.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from nfinv import dcr, tomo
from nfinv.encoding import EncodingConfig, encode
from nfinv.errors import GeometryError, ManifestError
from nfinv.inversion import (
    Adam,
    CoolingSchedule,
    Regularization,
    RegularizationConfig,
    conventional_invert,
    nfs_invert,
)
from nfinv.manifest import (
    REGULARIZATION,
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
    EllipseSpec,
    GrfSpec,
    NoiseSpec,
    add_noise,
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
    background_model: float      # uniform background in model units


def assemble(man: dict) -> Assembled:
    validate_manifest(man)
    case = man["case"]
    seed = man["seed"]
    mesh_cfg = man["mesh"]

    if case in (1, 2):
        mesh = build_tomo_mesh(mesh_cfg["nx"], mesh_cfg["nz"],
                               mesh_cfg["dx"], mesh_cfg["dz"])
        tm = man["true_model"]
        if case == 1:
            truth = make_case1(
                mesh,
                background_velocity=tm["background_velocity"],
                block_velocity=tm["block_velocity"],
                block_center_frac=tuple(tm["block_center_frac"]),
                block_side_frac=tm["block_side_frac"])
        else:
            grf_cfg = tm["grf"]
            grf = GrfSpec(variance=grf_cfg["variance"],
                          len_x=grf_cfg["len_x"], len_z=grf_cfg["len_z"],
                          seed=sub_seed(seed, "grf"))
            ellipse = EllipseSpec(**tm["ellipse"])
            truth = make_case2(mesh, grf, ellipse,
                               background_velocity=tm["background_velocity"])
        try:
            survey = tomo.build_crosshole_survey(mesh, man["survey"]["spacing"])
        except ValueError as exc:
            raise ManifestError("survey.spacing", str(exc)) from exc
        simulator = tomo.TomoSimulator(tomo.build_ray_matrix(mesh, survey))
        d_clean = tomo.tomo_predict(simulator.ray_matrix, truth)
        noise = NoiseSpec(kind="absolute_gaussian",
                          std=man["noise"]["std_ms"] * 1e-3,
                          seed=sub_seed(seed, "noise"))
        background = 1.0 / man["true_model"]["background_velocity"]
    else:
        mesh = build_dcr_mesh(mesh_cfg["nx_core"], mesh_cfg["nz_core"],
                              mesh_cfg["dx"], mesh_cfg["dz"],
                              mesh_cfg["n_pad"], mesh_cfg["pad_factor"])
        tm = man["true_model"]
        if case == 3:
            truth = make_case3(mesh, **tm)
        else:
            truth = make_case4(mesh, **tm)
        sv = man["survey"]
        x0 = sv["x0"]
        if x0 is None:  # center the line on the core region
            core_lo, core_hi = mesh.core_x_extent
            x0 = core_lo + 0.5 * ((core_hi - core_lo) - sv["line_length"])
        survey = dcr.build_dipole_dipole_survey(
            sv["line_length"], sv["station_sep"], sv["max_rx"], x0=x0,
            current=sv["current"])
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
        noise = NoiseSpec(kind="relative_gaussian",
                          rel_fraction=man["noise"]["rel_fraction"],
                          floor=man["noise"]["floor_v"],
                          seed=sub_seed(seed, "noise"))
        background = man["conventional"]["m_ref"]

    d_obs, w_d = add_noise(d_clean, noise)
    return Assembled(mesh=mesh, truth=truth, survey=survey,
                     simulator=simulator, d_clean=d_clean, d_obs=d_obs,
                     w_d=w_d, background_model=background)


def _write_data_files(man: dict, asm: Assembled, out_dir: str) -> None:
    unc = 1.0 / asm.w_d
    if man["case"] in (1, 2):
        tomo.write_tomo_data_csv(os.path.join(out_dir, "data_clean.csv"),
                                 asm.survey, asm.d_clean,
                                 np.zeros_like(asm.d_clean))
        tomo.write_tomo_data_csv(os.path.join(out_dir, "data_obs.csv"),
                                 asm.survey, asm.d_obs, unc)
    else:
        dcr.write_dcr_data_csv(os.path.join(out_dir, "data_clean.csv"),
                               asm.survey, asm.d_clean,
                               np.zeros_like(asm.d_clean))
        dcr.write_dcr_data_csv(os.path.join(out_dir, "data_obs.csv"),
                               asm.survey, asm.d_obs, unc)


def _write_model_grid(mesh: TensorMesh, values: np.ndarray, out_dir: str,
                      stem: str) -> None:
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    write_grid_csv(csv_path, values, nx=mesh.nx_core, nz=mesh.nz_core,
                   dx=mesh.dx_core, dz=mesh.dz_core)
    render_heatmap(csv_path, os.path.join(out_dir, f"{stem}.png"))


def _write_histories(result, out_dir: str) -> None:
    # wall clock deliberately excluded: CSVs must be byte-deterministic
    with open(os.path.join(out_dir, "histories.csv"), "w") as f:
        f.write("epoch,misfit,beta,reg\n")
        for i in range(result.n_epochs):
            f.write(f"{i + 1},{float(result.misfit_history[i])!r},"
                    f"{float(result.beta_history[i])!r},"
                    f"{float(result.reg_history[i])!r}\n")


def _build_regularization(cfg: dict, mesh: TensorMesh,
                          sensitivity_weighting: bool = False
                          ) -> Regularization:
    reg_cfg = RegularizationConfig(
        **{key: cfg[key] for key in REGULARIZATION},
        sensitivity_weighting=sensitivity_weighting)
    return Regularization(reg_cfg, nx=mesh.nx_core, nz=mesh.nz_core,
                          dx=mesh.dx_core, dz=mesh.dz_core)


def encode_cells(man: dict,
                 mesh: TensorMesh) -> tuple[EncodingConfig, np.ndarray]:
    """The manifest's encoding and the encoded core-cell centers."""
    # the schema admits m only for the linear kind, b_rows and b_std only
    # for the gaussian one
    params = dict(man["encoding"])
    lo, hi = params.pop("coord_range")
    config = EncodingConfig(**params, seed=sub_seed(man["seed"], "encoding"))
    return config, encode(config, normalized_centers(mesh, lo, hi))


def run_nfs(man: dict, asm: Assembled, out_dir: str | None = None):
    """NFs inversion per the manifest; returns (result, mlp, Z)."""
    seed = man["seed"]
    config, Z = encode_cells(man, asm.mesh)
    if config.kind == "gaussian" and out_dir is not None:
        from nfinv.encoding import write_b_matrix_csv
        write_b_matrix_csv(config, os.path.join(out_dir, "b_matrix.csv"))

    net = man["network"]
    mlp = init_kaiming((Z.shape[1], *net["hidden"], 1),
                       output_activation=net["output_activation"],
                       output_scale=net["output_scale"],
                       output_offset=net["output_offset"],
                       seed=sub_seed(seed, "init"))
    nfs_cfg = man["nfs"]
    adam = Adam(mlp.param_count, learning_rate=nfs_cfg["learning_rate"])
    schedule = (CoolingSchedule(nfs_cfg["tau"])
                if nfs_cfg["tau"] is not None else None)
    reg = None
    if nfs_cfg["regularization"] is not None:
        reg = _build_regularization(nfs_cfg["regularization"], asm.mesh)
    target = None
    if nfs_cfg["target_chi2"] is not None:
        target = nfs_cfg["target_chi2"] * len(asm.d_obs) / 2.0
    result = nfs_invert(asm.simulator, asm.d_obs, asm.w_d, mlp, Z,
                        epochs=man["epochs"], schedule=schedule, adam=adam,
                        reg=reg, target_misfit=target,
                        checkpoint_every=man["checkpoint_every"],
                        checkpoint_dir=out_dir)
    return result, mlp, Z


def run_conventional(man: dict, asm: Assembled):
    conv = man["conventional"]
    reg = None
    if max(conv["alpha_s"], conv["alpha_x"], conv["alpha_z"]) > 0:
        reg = _build_regularization(conv, asm.mesh,
                                    conv["sensitivity_weighting"])
    m0 = np.full(asm.mesh.n_active, float(conv["m_ref"]))
    target = None
    if conv["target_chi2"] is not None:
        target = conv["target_chi2"] * len(asm.d_obs) / 2.0
    return conventional_invert(
        asm.simulator, asm.d_obs, asm.w_d, m0, reg=reg,
        optimizer=conv["optimizer"],
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
        bg = asm.background_model
        off_target = asm.truth == bg
        metrics["artifact_energy"] = float(
            np.sum((result.model[off_target] - bg) ** 2))
    return metrics


def _write_echo(man: dict, asm: Assembled, out_dir: str) -> None:
    # echo carries the resolved mesh (edge arrays) alongside the inputs
    echo = dict(man)
    echo["mesh_resolved"] = asm.mesh.to_dict()
    save_manifest(echo, os.path.join(out_dir, "manifest_echo.json"))


def simulate_case(man: dict, out_dir) -> dict:
    """Forward-only run: truth, clean data, noisy data, manifest echo."""
    out_dir = str(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    asm = assemble(man)
    _write_echo(man, asm, out_dir)
    _write_model_grid(asm.mesh, asm.truth, out_dir, "truth")
    _write_data_files(man, asm, out_dir)
    return {"n_data": len(asm.d_obs), "out_dir": out_dir}


def run_case(man: dict, out_dir) -> dict:
    """Full seeded run; returns the metrics dict (also written to disk)."""
    out_dir = str(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    asm = assemble(man)
    _write_echo(man, asm, out_dir)
    _write_model_grid(asm.mesh, asm.truth, out_dir, "truth")
    _write_data_files(man, asm, out_dir)

    if man["method"] == "nfs":
        result, mlp, Z = run_nfs(man, asm, out_dir)
        save_checkpoint(os.path.join(out_dir, "weights_final.ckpt"), mlp,
                        epoch=result.n_epochs)
        if man["svd"] is not None:
            analyze_trained_network(
                mlp, Z, k=man["svd"]["k"],
                grid_shape=(asm.mesh.nx_core, asm.mesh.nz_core),
                out_dir=os.path.join(out_dir, "svd"),
                dx=asm.mesh.dx_core, dz=asm.mesh.dz_core)
    else:
        result = run_conventional(man, asm)

    _write_model_grid(asm.mesh, result.model, out_dir, "recovered")
    _write_histories(result, out_dir)
    metrics = compute_metrics(man, asm, result)
    with open(os.path.join(out_dir, "metrics.json"), "w") as f:
        json.dump(metrics, f, indent=2, sort_keys=True)
        f.write("\n")
    return metrics
