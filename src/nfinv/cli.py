"""Command-line entry points.

Verbs: make-scenario, simulate, invert, svd, render, report.
Exit codes: 0 success, 2 invalid input (the offending manifest field or
CLI input is printed), 3 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from nfinv.errors import MAX_BYTES, ManifestError, SolverError


def _add_common_overrides(p: argparse.ArgumentParser):
    p.add_argument("--method", choices=["nfs", "conventional"], default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None, help="iteration "
                   "budget: epochs (nfs) or conventional.max_iterations")


def _apply_overrides(man: dict, args) -> dict:
    if getattr(args, "method", None) is not None:
        man["method"] = args.method
    if getattr(args, "seed", None) is not None:
        man["seed"] = args.seed
    if getattr(args, "epochs", None) is not None:
        if man.get("method") != "conventional":
            man["epochs"] = args.epochs
        elif isinstance(man.get("conventional"), dict):
            # a malformed block is left for validation to name
            man["conventional"]["max_iterations"] = args.epochs
    return man


def _load(path) -> dict:
    """The manifest object in ``--manifest``."""
    from nfinv.manifest import load_manifest
    try:
        man = load_manifest(path)
    except (OSError, ValueError) as exc:  # ValueError: not JSON
        raise ManifestError("--manifest", str(exc)) from exc
    if not isinstance(man, dict):
        raise ManifestError("--manifest", "must hold a JSON object")
    return man


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfinv",
        description="Neural-field reparameterized 2D geophysical inversion")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("make-scenario",
                       help="write a fully resolved default manifest")
    p.add_argument("--case", type=int, required=True, choices=[1, 2, 3, 4])
    p.add_argument("--method", choices=["nfs", "conventional"],
                   default="nfs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--full", action="store_true",
                   help="full-scale configuration (default desk scale)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("simulate",
                       help="forward-model a manifest: truth + data files")
    p.add_argument("--manifest", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("invert", help="run an inversion end to end")
    p.add_argument("--manifest", required=True)
    _add_common_overrides(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("svd",
                       help="weight-Jacobian SVD of a saved checkpoint")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", required=True)

    p = sub.add_parser("render", help="render a grid CSV to a PNG heatmap")
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vmin", type=float, default=None)
    p.add_argument("--vmax", type=float, default=None)
    p.add_argument("--scale", type=int, default=8)

    p = sub.add_parser("report", help="print metrics of finished runs")
    p.add_argument("dirs", nargs="+")
    return parser


def _verb_make_scenario(args) -> int:
    from nfinv.manifest import (default_manifest, save_manifest,
                                validate_manifest)
    man = default_manifest(args.case, method=args.method, seed=args.seed,
                           desk_scale=not args.full)
    validate_manifest(man)  # a bad --seed is named before a file is written
    save_manifest(man, args.out)
    print(f"wrote {args.out}")
    return 0


def _verb_simulate(args) -> int:
    from nfinv.runner import simulate_case
    man = _apply_overrides(_load(args.manifest), args)
    info = simulate_case(man, args.out)
    print(f"simulated {info['n_data']} data into {info['out_dir']}")
    return 0


def _verb_invert(args) -> int:
    from nfinv.runner import run_case
    man = _apply_overrides(_load(args.manifest), args)
    metrics = run_case(man, args.out)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def _verb_svd(args) -> int:
    from nfinv.manifest import layer_dims
    from nfinv.neural_field import load_checkpoint
    from nfinv.runner import assemble, encode_cells
    from nfinv.svd_analysis import analyze_trained_network

    man = _load(args.manifest)
    # --k is validated as svd.k when assemble checks the manifest
    man["svd"] = {"k": args.k}
    asm = assemble(man)
    _, Z = encode_cells(man, asm.mesh)
    try:
        mlp, _ = load_checkpoint(args.checkpoint)
    except (OSError, ValueError, KeyError) as exc:
        raise ManifestError("--checkpoint", str(exc)) from exc
    if mlp.layer_dims != layer_dims(man):
        raise ManifestError("--checkpoint", f"layer dims "
                            f"{list(mlp.layer_dims)} differ from the "
                            f"manifest's {list(layer_dims(man))}")
    os.makedirs(args.out, exist_ok=True)  # a bad --out fails before the SVD
    result = analyze_trained_network(mlp, Z, args.k, asm.mesh,
                                     out_dir=args.out)
    print(f"top singular values: {[round(float(v), 6) for v in result.values[:10]]}")
    return 0


def _verb_render(args) -> int:
    from nfinv.mesh import read_grid_csv
    from nfinv.render import render_heatmap
    if args.scale < 1:
        raise ManifestError("--scale", f"must be at least 1, got {args.scale}")
    for option, value in (("--vmin", args.vmin), ("--vmax", args.vmax)):
        if value is not None and not math.isfinite(value):
            raise ManifestError(option, f"must be finite, got {value}")
    if args.vmin is not None and args.vmax is not None \
            and args.vmin >= args.vmax:
        raise ManifestError("--vmax", f"must exceed --vmin {args.vmin}, "
                                      f"got {args.vmax}")
    try:
        values, nx, nz, _, _ = read_grid_csv(args.grid)
    except (OSError, ValueError) as exc:
        raise ManifestError("--grid", str(exc)) from exc
    s = args.scale
    need = 3 * nz * s * (nx * s + 2 + max(4, s))  # RGB: cells, gap, strip
    if need > MAX_BYTES:
        raise ManifestError("--scale", f"the {nz} x {nx} grid's {need}-byte "
                            f"image exceeds {MAX_BYTES} bytes")
    render_heatmap(values.reshape(nz, nx), args.out, vmin=args.vmin,
                   vmax=args.vmax, scale=s)
    print(f"wrote {args.out}")
    return 0


def _verb_report(args) -> int:
    rows = []
    for d in args.dirs:
        path = os.path.join(d, "metrics.json")
        try:
            with open(path) as f:
                m = json.load(f)
            if not isinstance(m, dict):
                raise TypeError("must hold a JSON object")
            rows.append(f"{d:<28} {m['case']:>4} {m['method']:>12} "
                        f"{m['rmse']:>12.5g} {m['chi2_per_datum']:>10.4g} "
                        f"{m['epochs_run']:>7} {m['status']:>18} "
                        f"{m['gn_cg_unconverged']:>17}")
        except KeyError as exc:
            raise ManifestError(path, f"lacks the key {exc}") from exc
        except (OSError, ValueError, TypeError) as exc:
            raise ManifestError(path, str(exc)) from exc
    print(f"{'run':<28} {'case':>4} {'method':>12} {'rmse':>12} "
          f"{'chi2':>10} {'epochs':>7} {'status':>18} "
          f"{'gn_cg_unconverged':>17}")
    print("\n".join(rows))
    return 0


_VERBS = {
    "make-scenario": _verb_make_scenario,
    "simulate": _verb_simulate,
    "invert": _verb_invert,
    "svd": _verb_svd,
    "render": _verb_render,
    "report": _verb_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _VERBS[args.verb](args)
    except ManifestError as exc:
        print(f"invalid input at {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # each verb maps its own read errors, so this one is a write to --out
        print(f"invalid input at --out: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
