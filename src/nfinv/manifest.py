"""Run manifests: schema, per-case defaults, validation, seed fan-out.

A manifest is a JSON document with a versioned schema that fully
determines a run.  Re-running the same manifest reproduces every CSV
output byte for byte (wall-clock timings therefore live only in
metrics.json, never in CSVs).
"""

from __future__ import annotations

import hashlib
import json

from nfinv.errors import ManifestError

SCHEMA_VERSION = 1

PAPER_HIDDEN = [128, 256, 256, 256, 256, 128]
DESK_HIDDEN = [64, 128, 128, 128, 128, 64]


def sub_seed(master: int, name: str) -> int:
    """Derive a named child seed: sha256 of "master:name", first 4 bytes.

    Gives the init / noise / grf / encoding / sens streams independent
    seeds that are stable across runs and platforms.
    """
    digest = hashlib.sha256(f"{master}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2 ** 31)


def default_manifest(case: int, method: str = "nfs", seed: int = 0,
                     desk_scale: bool = True) -> dict:
    """Fully resolved manifest for one of the four synthetic cases.

    Desk-scale variants shrink the mesh, survey and network so a run
    finishes in seconds to minutes; full scale uses the reference
    configurations.
    """
    if case not in (1, 2, 3, 4):
        raise ValueError(f"case must be 1..4, got {case}")
    man = {
        "schema_version": SCHEMA_VERSION,
        "case": case,
        "method": method,
        "seed": seed,
        "desk_scale": desk_scale,
        "checkpoint_every": 0,
        "svd": None,
    }
    if case in (1, 2):
        man["mesh"] = ({"kind": "tomo", "nx": 32, "nz": 64, "dx": 1.0, "dz": 1.0}
                       if desk_scale else
                       {"kind": "tomo", "nx": 64, "nz": 128, "dx": 1.0, "dz": 1.0})
        man["survey"] = {"spacing": 1.0}
        man["noise"] = {"kind": "absolute_gaussian", "std_ms": 20.0}
        man["epochs"] = 600 if desk_scale else 2000
        man["network"] = {
            "hidden": list(DESK_HIDDEN if desk_scale else PAPER_HIDDEN),
            "output_activation": "tanh",
            "output_scale": 5e-3,
            "output_offset": 1e-3,
        }
        man["nfs"] = {"learning_rate": 1e-3, "tau": None,
                      "target_chi2": None, "regularization": None}
        man["conventional"] = {
            "optimizer": "gradient_descent",
            "m_ref": 1e-3,  # background slowness
            "alpha_s": 0.0, "alpha_x": 0.5, "alpha_z": 0.5,
            "p_s": 2.0, "p_x": 2.0, "p_z": 2.0,
            "beta0": 1.0, "beta_cooling": 1.0,
            "max_iterations": 1000 if desk_scale else 3000,
            "target_chi2": 1.0,
            "sensitivity_weighting": False,
        }
        if case == 1:
            man["encoding"] = {"kind": "basic", "coord_range": [0.0, 1.0]}
            man["true_model"] = {
                "background_velocity": 1000.0, "block_velocity": 200.0,
                "block_center_frac": [0.5, 0.35], "block_side_frac": 0.375,
            }
        else:
            man["encoding"] = {"kind": "gaussian", "b_rows": 128,
                               "b_std": 0.5, "coord_range": [-1.0, 1.0]}
            man["true_model"] = {
                "background_velocity": 1000.0,
                "grf": {"variance": 100.0 ** 2, "len_x": 12.0, "len_z": 8.0},
                "ellipse": {"cx_frac": 0.5, "cz_frac": 0.4, "rx_m": 12.0,
                            "rz_m": 20.0, "velocity": 400.0},
            }
    else:
        man["mesh"] = ({"kind": "dcr", "nx_core": 100, "nz_core": 24,
                        "dx": 5.0, "dz": 5.0, "n_pad": 6, "pad_factor": 1.5}
                       if desk_scale else
                       {"kind": "dcr", "nx_core": 200, "nz_core": 45,
                        "dx": 5.0, "dz": 5.0, "n_pad": 7, "pad_factor": 1.5})
        # unit line current (A per meter of strike); recorded for audit
        man["survey"] = ({"line_length": 350.0, "station_sep": 25.0,
                          "max_rx": 24, "x0": None, "current": 1.0}
                         if desk_scale else
                         {"line_length": 700.0, "station_sep": 25.0,
                          "max_rx": 24, "x0": None, "current": 1.0})
        man["noise"] = {"kind": "relative_gaussian", "rel_fraction": 0.05,
                        "floor_v": 1e-6}
        man["epochs"] = 800 if desk_scale else 2000
        man["encoding"] = {"kind": "identity", "coord_range": [-1.0, 1.0]}
        man["network"] = {
            "hidden": list(DESK_HIDDEN if desk_scale else PAPER_HIDDEN),
            "output_activation": "sigmoid",
            "output_scale": 4.0,
            "output_offset": -4.0,
        }
        if case == 3:
            man["true_model"] = {
                "dip_angle_deg": 45.0, "layer_thickness": 25.0,
                "layer_sigma": 0.02, "dike_sigma": 0.1, "dike_depth": 125.0,
                "dike_width": 50.0, "dike_x_frac": 0.5,
                "background_sigma": 0.01,
            }
            man["padding_sigma"] = 0.01
            man["nfs"] = {
                "learning_rate": 1e-3, "tau": 800.0, "target_chi2": None,
                "regularization": {"alpha_s": 1.0, "p_s": 1.0, "m_ref": -2.0,
                                   "alpha_x": 0.0, "alpha_z": 0.0,
                                   "p_x": 2.0, "p_z": 2.0},
            }
            man["conventional"] = {
                "optimizer": "gauss_newton",
                "m_ref": -2.0,
                "alpha_s": 0.005, "alpha_x": 0.5, "alpha_z": 0.5,
                "p_s": 0.0, "p_x": 1.0, "p_z": 1.0,
                "beta0": 1e2, "beta_cooling": 2.0,
                "max_iterations": 25,
                "target_chi2": 1.0,
                "sensitivity_weighting": True,
            }
        else:
            man["true_model"] = {
                "dip_angle_deg": 45.0, "sigma_top": 0.02,
                "sigma_bottom": 0.001, "dike_sigma": 0.1, "dike_top": 25.0,
                "dike_depth": 125.0, "dike_width": 50.0, "dike_x_frac": 0.5,
            }
            man["padding_sigma"] = 0.001
            man["nfs"] = {"learning_rate": 1e-3, "tau": None,
                          "target_chi2": None, "regularization": None}
            man["conventional"] = {
                "optimizer": "gauss_newton",
                "m_ref": -3.0,  # uniform 0.001 S/m start, no smallness
                "alpha_s": 0.0, "alpha_x": 0.5, "alpha_z": 0.5,
                "p_s": 2.0, "p_x": 2.0, "p_z": 2.0,
                "beta0": 1e2, "beta_cooling": 2.0,
                "max_iterations": 25,
                "target_chi2": 1.0,
                "sensitivity_weighting": True,
            }
    return man


def _require(cond: bool, fieldpath: str, message: str):
    if not cond:
        raise ManifestError(fieldpath, message)


def _req_number(man, path: str, lo=None, hi=None, allow_none=False):
    node = man
    for part in path.split(".")[:-1]:
        node = node[part]
    key = path.split(".")[-1]
    _require(key in node, path, "missing field")
    val = node[key]
    if val is None:
        _require(allow_none, path, "must not be null")
        return
    _require(isinstance(val, (int, float)) and not isinstance(val, bool),
             path, f"expected a number, got {type(val).__name__}")
    if lo is not None:
        _require(val >= lo, path, f"must be >= {lo}, got {val}")
    if hi is not None:
        _require(val <= hi, path, f"must be <= {hi}, got {val}")


def validate_manifest(man: dict) -> None:
    """Schema check; raises ManifestError naming the offending field."""
    _require(isinstance(man, dict), "", "manifest must be an object")
    _require(man.get("schema_version") == SCHEMA_VERSION, "schema_version",
             f"expected {SCHEMA_VERSION}")
    _require(man.get("case") in (1, 2, 3, 4), "case", "must be 1..4")
    _require(man.get("method") in ("nfs", "conventional"), "method",
             "must be 'nfs' or 'conventional'")
    _req_number(man, "seed", lo=0)
    _req_number(man, "epochs", lo=1)

    mesh = man.get("mesh")
    _require(isinstance(mesh, dict), "mesh", "missing mesh block")
    if man["case"] in (1, 2):
        _require(mesh.get("kind") == "tomo", "mesh.kind", "must be 'tomo'")
        for f in ("nx", "nz"):
            _req_number(man, f"mesh.{f}", lo=1)
        for f in ("dx", "dz"):
            _req_number(man, f"mesh.{f}", lo=1e-12)
        _req_number(man, "survey.spacing", lo=1e-12)
        _req_number(man, "noise.std_ms", lo=0)
    else:
        _require(mesh.get("kind") == "dcr", "mesh.kind", "must be 'dcr'")
        for f in ("nx_core", "nz_core"):
            _req_number(man, f"mesh.{f}", lo=1)
        for f in ("dx", "dz"):
            _req_number(man, f"mesh.{f}", lo=1e-12)
        _req_number(man, "mesh.n_pad", lo=0)
        _req_number(man, "mesh.pad_factor", lo=1.0)
        _req_number(man, "survey.line_length", lo=1e-12)
        _req_number(man, "survey.station_sep", lo=1e-12)
        _req_number(man, "survey.max_rx", lo=1)
        _req_number(man, "noise.rel_fraction", lo=0)
        _req_number(man, "noise.floor_v", lo=0)
        _req_number(man, "padding_sigma", lo=1e-300)

    enc = man.get("encoding")
    _require(isinstance(enc, dict), "encoding", "missing encoding block")
    _require(enc.get("kind") in ("identity", "basic", "linear", "gaussian"),
             "encoding.kind", "unknown encoding kind")
    cr = enc.get("coord_range")
    _require(isinstance(cr, list) and len(cr) == 2 and cr[0] < cr[1],
             "encoding.coord_range", "must be [lo, hi] with lo < hi")
    if enc["kind"] == "gaussian":
        _req_number(man, "encoding.b_rows", lo=1)
        _req_number(man, "encoding.b_std", lo=1e-12)
    if enc["kind"] == "linear":
        _req_number(man, "encoding.m", lo=1)

    net = man.get("network")
    _require(isinstance(net, dict), "network", "missing network block")
    hidden = net.get("hidden")
    _require(isinstance(hidden, list) and len(hidden) >= 1
             and all(isinstance(h, int) and h >= 1 for h in hidden),
             "network.hidden", "must be a list of positive ints")
    _require(net.get("output_activation") in ("tanh", "sigmoid", "relu",
                                              "none"),
             "network.output_activation", "unknown activation")
    _req_number(man, "network.output_scale")
    _req_number(man, "network.output_offset")

    nfs = man.get("nfs")
    _require(isinstance(nfs, dict), "nfs", "missing nfs block")
    _req_number(man, "nfs.learning_rate", lo=1e-12)
    if nfs.get("tau") is not None:
        _req_number(man, "nfs.tau", lo=1e-12)
    if nfs.get("target_chi2") is not None:
        _req_number(man, "nfs.target_chi2", lo=1e-12)

    conv = man.get("conventional")
    _require(isinstance(conv, dict), "conventional",
             "missing conventional block")
    _require(conv.get("optimizer") in ("gradient_descent", "gauss_newton"),
             "conventional.optimizer", "unknown optimizer")
    for f in ("alpha_s", "alpha_x", "alpha_z"):
        _req_number(man, f"conventional.{f}", lo=0)
    for f in ("p_s", "p_x", "p_z"):
        _req_number(man, f"conventional.{f}", lo=0, hi=2)
    _req_number(man, "conventional.beta0", lo=0)
    _req_number(man, "conventional.beta_cooling", lo=1.0)
    _req_number(man, "conventional.max_iterations", lo=1)
    _req_number(man, "conventional.m_ref")

    tm = man.get("true_model")
    _require(isinstance(tm, dict), "true_model", "missing true_model block")
    if man["case"] == 1:
        _req_number(man, "true_model.background_velocity", lo=1e-12)
        _req_number(man, "true_model.block_velocity", lo=1e-12)
        _req_number(man, "true_model.block_side_frac", lo=1e-12, hi=1.0)
    elif man["case"] == 2:
        _require(isinstance(tm.get("grf"), dict), "true_model.grf",
                 "missing grf block")
        _req_number(man, "true_model.grf.variance", lo=0)
        _req_number(man, "true_model.grf.len_x", lo=1e-12)
        _req_number(man, "true_model.grf.len_z", lo=1e-12)
    elif man["case"] == 3:
        _req_number(man, "true_model.dip_angle_deg", lo=1e-9, hi=90.0)
        _req_number(man, "true_model.background_sigma", lo=1e-300)
    else:
        _req_number(man, "true_model.dip_angle_deg", lo=1e-9, hi=90.0)
        _req_number(man, "true_model.sigma_top", lo=1e-300)
        _req_number(man, "true_model.sigma_bottom", lo=1e-300)

    svd = man.get("svd")
    if svd is not None:
        _require(isinstance(svd, dict), "svd", "must be null or an object")
        k = svd.get("k")
        _require(isinstance(k, int) and not isinstance(k, bool), "svd.k",
                 f"expected an int, got {k!r}")
        n_cells = (mesh["nx"] * mesh["nz"] if man["case"] in (1, 2)
                   else mesh["nx_core"] * mesh["nz_core"])
        # ARPACK finds fewer eigenpairs than the Gram matrix has rows
        _require(1 <= k < n_cells, "svd.k",
                 f"must lie in [1, {n_cells - 1}], got {k}")


def load_manifest(path) -> dict:
    with open(path) as f:
        man = json.load(f)
    validate_manifest(man)
    return man


def save_manifest(man: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(man, f, indent=2, sort_keys=True)
        f.write("\n")
