"""Which nfinv calls get a span, and the metrics derived from the spans.

Untraced runs wrap only the phase calls ``runner.run_case`` makes (set-up,
inversion, SVD), one span each per run.  Traced runs add a span around the
public functions and methods of every layer.
"""

from __future__ import annotations

import statistics

from tracing import Span, self_times, subtree

SETUP = ("runner.assemble", "encoding.encode", "neural_field.init",
         "runner.build_regularization")
INVERT = "inversion.invert"
SVD = "svd_analysis.analyze"

# name, unit, better
PER_LAYER = (
    ("runner.export_ms", "ms", "lower"),
    ("encoding.encode_ms", "ms", "lower"),
    ("tomo.build_ray_matrix_s", "s", "lower"),
    ("tomo.predict_ms", "ms", "lower"),
    ("tomo.gradient_ms", "ms", "lower"),
    ("neural_field.forward_ms", "ms", "lower"),
    ("neural_field.forward_calls", "count", "lower"),
    ("neural_field.vjp_ms", "ms", "lower"),
    ("neural_field.vjp_calls", "count", "lower"),
    ("neural_field.matmat_ms", "ms", "lower"),
    ("neural_field.rmatmat_ms", "ms", "lower"),
    ("neural_field.matmat_calls", "count", "lower"),
    ("neural_field.rmatmat_calls", "count", "lower"),
    ("dcr.assemble_system_ms", "ms", "lower"),
    ("dcr.assemble_system_calls", "count", "lower"),
    ("dcr.solve_ms", "ms", "lower"),
    ("dcr.solve_calls", "count", "lower"),
    ("dcr.solve_rhs", "count", "lower"),
    ("dcr.predict_self_ms", "ms", "lower"),
    ("dcr.gradient_self_ms", "ms", "lower"),
    ("dcr.jvp_self_ms", "ms", "lower"),
    ("dcr.electrode_cells_calls", "count", "lower"),
    ("inversion.iteration_ms", "ms", "lower"),
    ("inversion.iterations", "count", "lower"),
    ("inversion.adam_ms", "ms", "lower"),
    ("inversion.reg_ms", "ms", "lower"),
    ("inversion.self_ms", "ms", "lower"),
    ("inversion.gn_matvecs", "count", "lower"),
    ("inversion.line_search_trials", "count", "lower"),
    ("inversion.accepted_steps_per_trial", "ratio", "higher"),
    ("inversion.stalled_iterations", "count", "lower"),
    ("svd_analysis.analyze_s", "s", "lower"),
    ("svd_analysis.self_ms", "ms", "lower"),
    ("svd_analysis.export_ms", "ms", "lower"),
    ("svd_analysis.topk_max_rel_err", "ratio", "lower"),
)


def _solve_rhs(args) -> int:
    b = args[1]
    return b.shape[1] if b.ndim == 2 else 1


def phase_targets():
    from nfinv import runner
    return [
        (runner, "run_case", "runner.run_case", None, False),
        (runner, "assemble", "runner.assemble", None, True),
        (runner, "encode", "encoding.encode", None, False),
        (runner, "init_kaiming", "neural_field.init", None, False),
        (runner, "_build_regularization", "runner.build_regularization",
         None, False),
        (runner, "nfs_invert", INVERT, None, True),
        (runner, "conventional_invert", INVERT, None, True),
        (runner, "analyze_trained_network", SVD, None, False),
    ]


def layer_targets():
    from nfinv import (dcr, inversion, neural_field, render, runner,
                       svd_analysis, tomo)
    plain = [
        (tomo, "build_ray_matrix", "tomo.build_ray_matrix"),
        (tomo.TomoSimulator, "predict", "tomo.predict"),
        (tomo.TomoSimulator, "gradient", "tomo.gradient"),
        # the inversion loop's own forward and vjp; the SVD's Jacobian
        # products are the matmat/rmatmat spans
        (inversion, "forward", "neural_field.forward"),
        (inversion, "vjp", "neural_field.vjp"),
        (neural_field.JacobianOperator, "matmat", "neural_field.matmat"),
        (neural_field.JacobianOperator, "rmatmat", "neural_field.rmatmat"),
        (svd_analysis, "write_grid_csv", "svd_analysis.export"),
        # analyze_trained_network imports render_heatmap when it exports
        (render, "render_heatmap", "svd_analysis.export"),
        (dcr, "assemble_system", "dcr.assemble_system"),
        (dcr.DcrSimulator, "predict", "dcr.predict"),
        (dcr.DcrSimulator, "gradient", "dcr.gradient"),
        (dcr.DcrSimulator, "jvp", "dcr.jvp"),
        (dcr, "electrode_cells", "dcr.electrode_cells"),
        (inversion.Adam, "step", "inversion.adam"),
        (inversion.Regularization, "value_and_grad", "inversion.reg"),
        (inversion.Regularization, "update_irls", "inversion.reg"),
        (inversion.Regularization, "hessian", "inversion.reg"),
    ]
    plain += [(runner, name, "runner.export") for name in (
        "_write_echo", "_write_model_grid", "_write_data_files",
        "_write_histories", "save_checkpoint")]
    return ([(owner, attr, name, None, False) for owner, attr, name in plain]
            + [(dcr.FvSystem, "solve", "dcr.solve", _solve_rhs, False)])


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def phase_metrics(spans: list[Span], first: int) -> dict:
    """run_s, setup_s and invert_s of the round whose spans start at first."""
    out = {"setup_s": 0.0}
    for s in spans[first:]:
        dur = s.end - s.start
        if s.name == "runner.run_case":
            out["run_s"] = dur
        elif s.name in SETUP:
            out["setup_s"] += dur
        elif s.name == INVERT:
            out["invert_s"] = dur
    return out


def layer_metrics(spans: list[Span], first: int, result, man) -> dict:
    """Per-layer metrics of one traced round; ``result`` is its inversion.

    ``_ms``/``_s`` are medians per call (0 when the round makes no such
    call), except the export totals and the self times of the once-per-run
    inversion and SVD calls; counts are per round.
    """
    own = self_times(spans)
    dur: dict[str, list[float]] = {}
    slf: dict[str, list[float]] = {}
    size: dict[str, int] = {}
    for i in range(first, len(spans)):
        s = spans[i]
        dur.setdefault(s.name, []).append(s.end - s.start)
        slf.setdefault(s.name, []).append(own[i])
        size[s.name] = size.get(s.name, 0) + s.size

    def ms(name):
        return 1e3 * _median(dur.get(name, []))

    def calls(name):
        return len(dur.get(name, []))

    inv = next(i for i in range(first, len(spans)) if spans[i].name == INVERT)
    below = [spans[i].name for i in subtree(spans, inv)]
    n_iter = result.n_epochs
    conventional = man["method"] == "conventional"
    # conventional_invert predicts once before the loop, once per iteration
    # after the first, once per line-search trial and once at the end
    predicts = sum(n in ("tomo.predict", "dcr.predict") for n in below)
    trials = predicts - n_iter - 1 if conventional else 0
    stopped_early = result.converged or result.status != "ok"
    accepted = n_iter - 1 if stopped_early else n_iter
    mis = result.misfit_history
    stalled = sum(abs(mis[k] - mis[k - 1]) < 1e-3 * abs(mis[k - 1])
                  for k in range(1, len(mis)))
    gn = conventional and man["conventional"]["optimizer"] == "gauss_newton"
    return {
        "runner.export_ms": 1e3 * sum(dur.get("runner.export", [])),
        "encoding.encode_ms": ms("encoding.encode"),
        "tomo.build_ray_matrix_s": ms("tomo.build_ray_matrix") / 1e3,
        "tomo.predict_ms": ms("tomo.predict"),
        "tomo.gradient_ms": ms("tomo.gradient"),
        "neural_field.forward_ms": ms("neural_field.forward"),
        "neural_field.forward_calls": calls("neural_field.forward"),
        "neural_field.vjp_ms": ms("neural_field.vjp"),
        "neural_field.vjp_calls": calls("neural_field.vjp"),
        "neural_field.matmat_ms": ms("neural_field.matmat"),
        "neural_field.rmatmat_ms": ms("neural_field.rmatmat"),
        "neural_field.matmat_calls": calls("neural_field.matmat"),
        "neural_field.rmatmat_calls": calls("neural_field.rmatmat"),
        "dcr.assemble_system_ms": ms("dcr.assemble_system"),
        "dcr.assemble_system_calls": calls("dcr.assemble_system"),
        "dcr.solve_ms": ms("dcr.solve"),
        "dcr.solve_calls": calls("dcr.solve"),
        "dcr.solve_rhs": size.get("dcr.solve", 0),
        "dcr.predict_self_ms": 1e3 * _median(slf.get("dcr.predict", [])),
        "dcr.gradient_self_ms": 1e3 * _median(slf.get("dcr.gradient", [])),
        "dcr.jvp_self_ms": 1e3 * _median(slf.get("dcr.jvp", [])),
        "dcr.electrode_cells_calls": calls("dcr.electrode_cells"),
        "inversion.iteration_ms": 1e3 * _median(list(result.wall_clock)),
        "inversion.iterations": n_iter,
        "inversion.adam_ms": ms("inversion.adam"),
        "inversion.reg_ms": ms("inversion.reg"),
        "inversion.self_ms": 1e3 * own[inv],
        "inversion.gn_matvecs": below.count("dcr.jvp") if gn else 0,
        "inversion.line_search_trials": trials,
        "inversion.accepted_steps_per_trial": accepted / trials if trials else 0.0,
        "inversion.stalled_iterations": stalled,
        "svd_analysis.analyze_s": ms(SVD) / 1e3,
        "svd_analysis.self_ms": 1e3 * _median(slf.get(SVD, [])),
        "svd_analysis.export_ms": 1e3 * sum(dur.get("svd_analysis.export", [])),
    }


def self_time_gap(spans: list[Span], first: int) -> float:
    """|sum of self times below the inversion span - its duration| / duration."""
    own = self_times(spans)
    inv = next(i for i in range(first, len(spans)) if spans[i].name == INVERT)
    total = sum(own[i] for i in subtree(spans, inv))
    dur = spans[inv].end - spans[inv].start
    return abs(total - dur) / dur
