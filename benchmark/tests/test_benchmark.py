"""Fast tests of the benchmark's references, checks and span arithmetic.

    python3 -m pytest benchmark/tests -q

They run tiny manifests, not the workloads.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

import checks
import workloads
from nfinv import runner
from nfinv.manifest import default_manifest
from nfinv.neural_field import (forward, get_weights, init_kaiming,
                                set_weights, vjp, weight_jacobian)
from tracing import Span, Tracer, instrument, self_times, subtree


def _head(mlp):
    return {"hidden_slope": mlp.hidden_slope,
            "output_activation": mlp.output_activation,
            "output_scale": mlp.output_scale,
            "output_offset": mlp.output_offset}


@pytest.mark.parametrize("act", ["tanh", "sigmoid"])
def test_gram_spectrum_matches_dense_svd(act):
    mlp = init_kaiming((4, 16, 12, 1), output_activation=act,
                       output_scale=2.0, output_offset=-1.0, seed=1)
    Z = np.random.default_rng(0).normal(size=(60, 4))
    layers = checks.unflatten(list(mlp.layer_dims), get_weights(mlp))
    want = np.linalg.svd(weight_jacobian(mlp, Z), compute_uv=False)[:6]
    got = checks.gram_singular_values(layers, Z, _head(mlp), 6)
    np.testing.assert_allclose(got, want, rtol=1e-9)
    m, _, _ = checks.linearize(layers, Z, _head(mlp))
    np.testing.assert_array_equal(m, forward(mlp, Z))


def test_travel_times_match_program_ray_matrix():
    man = default_manifest(1, "nfs", 0)
    man["mesh"].update(nx=8, nz=16)
    asm = runner.assemble(man)
    s = np.random.default_rng(2).uniform(1e-3, 5e-3, asm.mesh.n_active)
    np.testing.assert_allclose(checks.travel_times(man, s),
                               asm.simulator.ray_matrix.A @ s, rtol=1e-12)
    assert checks.check_ray_matrix(man, asm.simulator.ray_matrix.A)[1]
    assert not checks.check_ray_matrix(man, 1.01 * asm.simulator.ray_matrix.A)[1]


def test_full_scale_survey_has_348_data():
    _, idx = checks.dipole_dipole(workloads.manifest("dcr-nfs-full", 0))
    assert len(idx) == 348


def _tiny_tomo():
    man = default_manifest(1, "nfs", 0)
    man["mesh"].update(nx=8, nz=16)
    man["network"]["hidden"] = [16, 16]
    man["epochs"] = 20
    man["svd"] = {"k": 3, "mode": "randomized"}
    return man


def _tiny_dcr():
    man = default_manifest(3, "nfs", 0)
    man["mesh"].update(nx_core=20, nz_core=8, n_pad=4)
    man["survey"].update(line_length=100.0, station_sep=10.0)
    man["network"]["hidden"] = [16, 16]
    man["epochs"] = 5
    return man


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {}
    for name, man in (("tomo", _tiny_tomo()), ("dcr", _tiny_dcr())):
        d = tmp_path_factory.mktemp(name)
        runner.run_case(man, d)
        out[name] = (man, str(d))
    return out


def _verdicts(man, out_dir):
    found, _ = checks.verify(man, out_dir, np.random.default_rng(0))
    return {name: ok for name, ok, _ in found}


def _copy(out_dir, tmp_path):
    dst = tmp_path / "copy"
    shutil.copytree(out_dir, dst)
    return str(dst)


def _rewrite_grid(path, fn):
    with open(path) as f:
        lines = f.read().splitlines()
    rows = [[repr(fn(float(v))) for v in line.split(",")] for line in lines[1:]]
    with open(path, "w") as f:
        f.write("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


@pytest.mark.parametrize("name", ["tomo", "dcr"])
def test_clean_outputs_pass(runs, name):
    verdicts = _verdicts(*runs[name])
    assert [k for k, ok in verdicts.items() if not ok] == []


@pytest.mark.parametrize("name,check", [("tomo", "tomo.misfit"),
                                        ("dcr", "dcr.misfit")])
def test_perturbed_recovered_model_is_rejected(runs, name, check, tmp_path):
    man, out_dir = runs[name]
    d = _copy(out_dir, tmp_path)
    _rewrite_grid(os.path.join(d, "recovered.csv"), lambda v: v * (1 + 1e-6))
    verdicts = _verdicts(man, d)
    assert not verdicts[check]
    assert not verdicts["network.forward"]


def test_shifted_beta_is_rejected(runs, tmp_path):
    man, out_dir = runs["dcr"]
    d = _copy(out_dir, tmp_path)
    path = os.path.join(d, "histories.csv")
    with open(path) as f:
        lines = f.read().splitlines()
    shifted = [lines[0]]
    for line, nxt in zip(lines[1:], lines[2:] + [lines[-1]]):
        f = line.split(",")
        f[2] = nxt.split(",")[2]      # beta of the next epoch
        shifted.append(",".join(f))
    with open(path, "w") as f:
        f.write("\n".join(shifted) + "\n")
    assert not _verdicts(man, d)["inversion.beta"]


def test_scaled_u_column_is_rejected(runs):
    man, out_dir = runs["tomo"]
    svd_dir = os.path.join(out_dir, "svd")
    values = checks.read_table(
        os.path.join(svd_dir, "spectrum.csv"))["singular_value"]
    U = np.column_stack([checks.read_grid(os.path.join(svd_dir, f"u_{i:03d}.csv"))
                         for i in range(len(values))])
    exact = values * (1 + 1e-12)
    assert all(ok for _, ok, _ in checks.check_svd(values, U, exact))
    U[:, 1] *= 1.001
    assert not dict((n, ok) for n, ok, _ in checks.check_svd(values, U, exact))[
        "svd.orthonormal"]
    # a randomized value above the exact one breaks the range-finder bound
    assert not dict((n, ok) for n, ok, _ in checks.check_svd(
        values, U, values * (1 - 1e-6)))["svd.upper_bound"]


class _Flipped:
    def __init__(self, sim):
        self.sim = sim

    def predict(self, m):
        return self.sim.predict(m)

    def gradient(self, v):
        return -self.sim.gradient(v)

    def jvp(self, dm):
        return self.sim.jvp(dm)


def test_sign_flipped_gradients_are_rejected(runs):
    man, out_dir = runs["dcr"]
    model = checks.read_grid(os.path.join(out_dir, "recovered.csv"))
    make = checks.dcr_simulators(man)
    rng = np.random.default_rng(0)
    clean = {n: ok for n, ok, _ in checks.check_physics(make, man, model, rng)}
    flipped = {n: ok for n, ok, _ in checks.check_physics(
        lambda *a: _Flipped(make(*a)), man, model, np.random.default_rng(0))}
    assert clean["dcr.gradient"] and clean["dcr.adjoint"]
    assert not flipped["dcr.gradient"] and not flipped["dcr.adjoint"]

    man, out_dir = runs["tomo"]
    header, flat = checks.read_checkpoint(
        os.path.join(out_dir, "weights_final.ckpt"))
    layers = checks.unflatten(header["layer_dims"], flat)
    mlp = init_kaiming(header["layer_dims"], seed=0, **{
        k: header[k] for k in ("hidden_slope", "output_activation",
                               "output_scale", "output_offset")})
    set_weights(mlp, flat)
    Z = checks.encoded_input(man)
    model = checks.read_grid(os.path.join(out_dir, "recovered.csv"))
    for sign, want in ((1.0, True), (-1.0, False)):
        found = checks.check_network(
            man, layers, header, model, lambda: forward(mlp, Z),
            lambda u: sign * vjp(mlp, Z, u), np.random.default_rng(0))
        assert dict((n, ok) for n, ok, _ in found)["network.vjp"] is want


def test_wrong_survey_and_range_are_rejected(runs):
    man, out_dir = runs["dcr"]
    table = checks.read_table(os.path.join(out_dir, "data_obs.csv"))
    assert checks.check_survey(man, table)[1]
    table["M_x"] = table["M_x"] + 25.0
    assert not checks.check_survey(man, table)[1]
    assert not checks.check_range(np.array([-4.0, -1.0]), -4.0, 0.0)[1]


def test_number_reads_plain_and_numpy_repr_fields():
    assert checks.number("1.5") == 1.5
    assert checks.number("np.float64(-2.25e-3)") == -2.25e-3


def test_self_time_is_duration_minus_union_of_children():
    spans = [Span("root", 0.0, 10.0, -1),
             Span("a", 1.0, 3.0, 0), Span("b", 2.0, 5.0, 0),   # overlap
             Span("c", 8.0, 12.0, 0),                          # overhangs
             Span("a.x", 1.5, 2.5, 1)]
    own = self_times(spans)
    assert own == pytest.approx([10.0 - (4.0 + 2.0), 2.0 - 1.0, 3.0, 4.0, 1.0])
    assert sorted(subtree(spans, 1)) == [1, 4]


def test_nested_wrapped_calls_sum_to_the_root():
    class Box:
        def inner(self, n):
            return sum(range(n))

        def outer(self, n):
            return self.inner(n) + self.inner(n)

    tracer = Tracer()
    with instrument(tracer, [(Box, "outer", "outer", None, True),
                             (Box, "inner", "inner", None, False)]):
        assert Box().outer(10_000) == 2 * sum(range(10_000))
    assert Box.outer.__name__ == "outer" and not hasattr(Box.outer,
                                                         "__wrapped__")
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
    own = self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(own) == pytest.approx(root.end - root.start, rel=1e-9)
    assert tracer.results["outer"] == 2 * sum(range(10_000))
