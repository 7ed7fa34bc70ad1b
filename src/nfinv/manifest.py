"""Run manifests: per-case defaults, a per-field schema, seed fan-out.

A manifest is a JSON document with a versioned schema that fully
determines a run.  Re-running the same manifest on one host, at any core
count and any BLAS pool size, reproduces every output byte for byte
(wall-clock timings therefore live only in metrics.json, never in CSVs).
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass

from nfinv.errors import MAX_BYTES, CapacityError, ManifestError
from nfinv.neural_field import OUTPUT_ACTIVATIONS, param_count
from nfinv.svd_analysis import check_svd_capacity

SCHEMA_VERSION = 1

PAPER_HIDDEN = (128, 256, 256, 256, 256, 128)
DESK_HIDDEN = (64, 128, 128, 128, 128, 64)


def sub_seed(master: int, name: str) -> int:
    """Derive a named child seed: sha256 of "master:name", first 4 bytes.

    Gives the init / noise / grf / encoding streams independent
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
        "checkpoint_every": 0,
        "svd": None,
    }
    if case in (1, 2):
        man["mesh"] = ({"nx": 32, "nz": 64, "dx": 1.0, "dz": 1.0}
                       if desk_scale else
                       {"nx": 64, "nz": 128, "dx": 1.0, "dz": 1.0})
        man["survey"] = {"spacing": 1.0}
        man["noise"] = {"std_ms": 20.0}  # absolute Gaussian
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
        man["mesh"] = ({"nx_core": 100, "nz_core": 24, "dx": 5.0, "dz": 5.0,
                        "n_pad": 6, "pad_factor": 1.5}
                       if desk_scale else
                       {"nx_core": 200, "nz_core": 45, "dx": 5.0, "dz": 5.0,
                        "n_pad": 7, "pad_factor": 1.5})
        # unit line current (A per meter of strike); recorded for audit
        man["survey"] = ({"line_length": 350.0, "station_sep": 25.0,
                          "max_rx": 24, "x0": None, "current": 1.0}
                         if desk_scale else
                         {"line_length": 700.0, "station_sep": 25.0,
                          "max_rx": 24, "x0": None, "current": 1.0})
        # relative Gaussian: std = rel_fraction * |d| + floor_v
        man["noise"] = {"rel_fraction": 0.05, "floor_v": 1e-6}
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


@dataclass(frozen=True)
class F:
    """One manifest field: its JSON type and the values it may take.

    ``kind`` is int, float (an int passes too), str, bool, list, dict or
    object (any value).  ``of`` declares a list's items or a dict's
    fields; a list holds exactly ``size`` items, or at least one.  ``lo``
    and ``hi`` are inclusive bounds, ``gt`` an exclusive lower bound.
    Every field is required unless ``optional``.
    """

    kind: type
    lo: float | None = None
    gt: float | None = None
    hi: float | None = None
    choices: tuple = ()
    null: bool = False
    optional: bool = False
    of: object = None
    size: int | None = None


@dataclass(frozen=True)
class Tagged:
    """A block whose fields depend on the value of its ``tag`` field."""

    tag: str
    blocks: dict


NUMBER = F(float)
POSITIVE = F(float, gt=0)
NON_NEGATIVE = F(float, lo=0)
COUNT = F(int, lo=1)
NORM_P = F(float, lo=0, hi=2)
POSITIVE_OR_NULL = F(float, gt=0, null=True)
PAIR = F(list, of=NUMBER, size=2)
DIP = F(float, gt=0, hi=90)

REGULARIZATION = {
    "alpha_s": NON_NEGATIVE, "alpha_x": NON_NEGATIVE, "alpha_z": NON_NEGATIVE,
    "p_s": NORM_P, "p_x": NORM_P, "p_z": NORM_P, "m_ref": NUMBER,
}

COMMON = {
    "schema_version": F(int, choices=(SCHEMA_VERSION,)),
    "method": F(str, choices=("nfs", "conventional")),
    "seed": F(int, lo=0),
    "checkpoint_every": F(int, lo=0),
    "epochs": COUNT,
    # svd.mode picked an SVD path that no longer exists; the benchmark's
    # manifests still carry it, so it is accepted and ignored
    "svd": F(dict, null=True, of={"k": COUNT, "mode": F(str, optional=True)}),
    "encoding": Tagged("kind", {
        "identity": {"coord_range": PAIR},
        "basic": {"coord_range": PAIR},
        "linear": {"coord_range": PAIR, "m": COUNT},
        "gaussian": {"coord_range": PAIR, "b_rows": COUNT, "b_std": POSITIVE},
    }),
    "network": {
        "hidden": F(list, of=COUNT),
        "output_activation": F(str, choices=OUTPUT_ACTIVATIONS),
        "output_scale": NUMBER, "output_offset": NUMBER,
    },
    "nfs": {
        "learning_rate": POSITIVE, "tau": POSITIVE_OR_NULL,
        "target_chi2": POSITIVE_OR_NULL,
        "regularization": F(dict, null=True, of=REGULARIZATION),
    },
    "conventional": {
        "optimizer": F(str, choices=("gradient_descent", "gauss_newton")),
        **REGULARIZATION,
        "beta0": NON_NEGATIVE, "beta_cooling": F(float, lo=1),
        "max_iterations": COUNT, "target_chi2": POSITIVE_OR_NULL,
        "sensitivity_weighting": F(bool),
    },
}

# The survey builders check the survey's fit to the mesh themselves.
TOMO = {
    "mesh": {"nx": COUNT, "nz": COUNT, "dx": POSITIVE, "dz": POSITIVE},
    "survey": {"spacing": POSITIVE},
    "noise": {"std_ms": POSITIVE},
}

DCR = {
    "mesh": {"nx_core": COUNT, "nz_core": COUNT, "dx": POSITIVE,
             "dz": POSITIVE, "n_pad": F(int, lo=0), "pad_factor": F(float, lo=1)},
    "survey": {"line_length": POSITIVE, "station_sep": POSITIVE,
               "max_rx": COUNT, "x0": F(float, null=True),
               "current": POSITIVE},
    # a positive floor keeps every uncertainty positive
    "noise": {"rel_fraction": NON_NEGATIVE, "floor_v": POSITIVE},
    "padding_sigma": POSITIVE,
}

TRUE_MODEL = {
    1: {"background_velocity": POSITIVE, "block_velocity": POSITIVE,
        "block_center_frac": PAIR, "block_side_frac": F(float, gt=0, hi=1)},
    2: {"background_velocity": POSITIVE,
        "grf": {"variance": NON_NEGATIVE, "len_x": POSITIVE,
                "len_z": POSITIVE},
        "ellipse": {"cx_frac": NUMBER, "cz_frac": NUMBER, "rx_m": POSITIVE,
                    "rz_m": POSITIVE, "velocity": POSITIVE}},
    3: {"dip_angle_deg": DIP, "layer_thickness": NON_NEGATIVE,
        "layer_sigma": POSITIVE, "dike_sigma": POSITIVE,
        "dike_depth": NON_NEGATIVE, "dike_width": NON_NEGATIVE,
        "dike_x_frac": NUMBER, "background_sigma": POSITIVE},
    4: {"dip_angle_deg": DIP, "sigma_top": POSITIVE, "sigma_bottom": POSITIVE,
        "dike_sigma": POSITIVE, "dike_top": NON_NEGATIVE,
        "dike_depth": NON_NEGATIVE, "dike_width": NON_NEGATIVE,
        "dike_x_frac": NUMBER},
}

SCHEMA = Tagged("case", {
    case: {**COMMON, **(TOMO if case in (1, 2) else DCR),
           "true_model": TRUE_MODEL[case]}
    for case in (1, 2, 3, 4)})

# the header line that neural_field.save_checkpoint writes
CHECKPOINT = {"layer_dims": F(list, of=COUNT), "hidden_slope": NUMBER,
              "output_activation": F(str, choices=OUTPUT_ACTIVATIONS),
              "output_scale": NUMBER, "output_offset": NUMBER,
              "seed": F(int, lo=0, null=True), "epoch": F(int, null=True),
              "dtype": F(str)}


def _is(value, kind: type) -> bool:
    if isinstance(value, bool):
        return kind in (bool, object)
    if kind is float:  # finite: NaN and the infinities fail the comparison
        return (isinstance(value, (int, float))
                and abs(value) <= sys.float_info.max)
    return isinstance(value, kind)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _walk(spec, value, path: str) -> None:
    """Check ``value`` against ``spec``, naming the dotted leaf path."""
    if isinstance(spec, F):
        if value is None and spec.null:
            return
        if not _is(value, spec.kind):
            raise ManifestError(path, f"expected {spec.kind.__name__}, "
                                      f"got {value!r}")
        if spec.choices and value not in spec.choices:
            raise ManifestError(path, f"must be one of {list(spec.choices)}, "
                                      f"got {value!r}")
        if spec.lo is not None and value < spec.lo:
            raise ManifestError(path, f"must be >= {spec.lo}, got {value}")
        if spec.gt is not None and value <= spec.gt:
            raise ManifestError(path, f"must be > {spec.gt}, got {value}")
        if spec.hi is not None and value > spec.hi:
            raise ManifestError(path, f"must be <= {spec.hi}, got {value}")
        if spec.kind is list:
            if not value or (spec.size and len(value) != spec.size):
                raise ManifestError(path, f"expected {spec.size or 'at least 1'}"
                                          f" items, got {len(value)}")
            for i, item in enumerate(value):
                _walk(spec.of, item, f"{path}[{i}]")
        elif spec.kind is dict:
            _walk(spec.of, value, path)
        return
    if not isinstance(value, dict):
        raise ManifestError(path, f"expected dict, got {value!r}")
    fields = spec
    if isinstance(spec, Tagged):
        tag = F(type(next(iter(spec.blocks))), choices=tuple(spec.blocks))
        fields = {spec.tag: tag}
        if spec.tag in value:
            _walk(tag, value[spec.tag], _join(path, spec.tag))
            fields.update(spec.blocks[value[spec.tag]])
    for key, sub in fields.items():
        if key in value:
            _walk(sub, value[key], _join(path, key))
        elif not (isinstance(sub, F) and sub.optional):
            raise ManifestError(_join(path, key), "missing field")
    for key in value:
        if key not in fields:
            raise ManifestError(_join(path, key), "unknown field")


def layer_dims(man: dict) -> tuple[int, ...]:
    """The network's layer widths: the encoding's feature count first."""
    enc = man["encoding"]
    if enc["kind"] == "gaussian":
        width = 2 * enc["b_rows"]
    elif enc["kind"] == "linear":
        width = 4 * enc["m"]
    else:
        width = 2 if enc["kind"] == "identity" else 4
    return (width, *man["network"]["hidden"], 1)


def _check_cell_budget(man: dict) -> None:
    """Refuse a mesh whose per-cell arrays would exceed ``MAX_BYTES``.

    The network holds core cells x its widest layer; a DC predict holds
    full-mesh cells x electrodes of pole potentials and the operator's
    band Cholesky factor, full-mesh cells x (min(nx_full, nz_full) + 1).
    The error names the largest cell count behind the array.
    """
    mesh, width = man["mesh"], max(layer_dims(man))
    if man["case"] in (1, 2):
        counts = {"mesh.nx": mesh["nx"], "mesh.nz": mesh["nz"]}
        arrays = [(counts, mesh["nx"] * mesh["nz"] * width)]
    else:
        nx, nz, pad = mesh["nx_core"], mesh["nz_core"], mesh["n_pad"]
        sv = man["survey"]
        n_elec = min(nx + 1, sv["line_length"] / sv["station_sep"] + 1)
        core = {"mesh.nx_core": nx, "mesh.nz_core": nz}
        full = {**core, "mesh.n_pad": pad}
        nx_full, nz_full = nx + 2 * pad, nz + pad
        arrays = [(core, nx * nz * width),
                  (full, nx_full * nz_full * n_elec),
                  (full, nx_full * nz_full * (min(nx_full, nz_full) + 1))]
    for counts, n_values in arrays:
        if 8 * n_values > MAX_BYTES:
            raise ManifestError(max(counts, key=counts.get),
                                f"{n_values:.4g} float64 values exceed the "
                                f"{MAX_BYTES}-byte budget of one array")


def validate_manifest(man: dict) -> None:
    """Schema check; raises ManifestError naming the offending field."""
    _walk(SCHEMA, man, "")
    lo, hi = man["encoding"]["coord_range"]
    if not lo < hi:
        raise ManifestError("encoding.coord_range",
                            f"must be [lo, hi] with lo < hi, got {[lo, hi]}")
    _check_cell_budget(man)
    if man["svd"] is not None:
        mesh = man["mesh"]
        n_cells = (mesh["nx"] * mesh["nz"] if man["case"] in (1, 2)
                   else mesh["nx_core"] * mesh["nz_core"])
        try:
            check_svd_capacity(n_cells, param_count(layer_dims(man)),
                               man["svd"]["k"])
        except (ValueError, CapacityError) as exc:
            raise ManifestError("svd.k", str(exc)) from exc
    nfs, conv = man["nfs"], man["conventional"]
    if nfs["regularization"] is not None and nfs["tau"] is None:
        raise ManifestError("nfs.regularization", "no effect: nfs.tau is null")
    alphas = (conv["alpha_s"], conv["alpha_x"], conv["alpha_z"])
    if conv["sensitivity_weighting"] and max(alphas) == 0:
        raise ManifestError("conventional.sensitivity_weighting",
                            "no effect without an alpha > 0")


def load_manifest(path):
    """The JSON document at ``path``; ``runner.assemble`` validates it."""
    with open(path) as f:
        return json.load(f)


def save_manifest(man: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(man, f, indent=2, sort_keys=True)
        f.write("\n")
