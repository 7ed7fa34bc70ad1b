"""The manifest schema: every bad input exits 2 naming its field.

The table tests run through ``cli.main`` in-process; the property tests
mutate tiny default manifests and run them with ``simulate`` and
``invert``.
"""

import json
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfinv.cli import main
from nfinv.manifest import (
    SCHEMA,
    F,
    Tagged,
    default_manifest,
    layer_dims,
    save_manifest,
)
from nfinv.neural_field import (
    get_weights,
    init_kaiming,
    save_checkpoint,
    set_weights,
)

DROP = object()


def tiny(case):
    """A default manifest of ``case`` shrunk to forward-model in ~0.1 s."""
    man = default_manifest(case)
    if case in (1, 2):
        man["mesh"].update(nx=12, nz=16)
        man["survey"]["spacing"] = 2.0
    else:
        man["mesh"].update(nx_core=20, nz_core=8, n_pad=4)
        man["survey"].update(line_length=100.0, station_sep=10.0)
    man["network"]["hidden"] = [8]
    man["epochs"] = 2
    return man


def mutate(man, path, value):
    node = man
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return man


PROBES = [
    # verb, case, dotted path set, value, field named by exit 2
    ("simulate", 1, "survey", DROP, "survey"),
    ("simulate", 3, "mesh.nx_core", 2.5, "mesh.nx_core"),
    ("simulate", 3, "true_model.bogus", 1.0, "true_model.bogus"),
    ("invert", 1, "epochs", 1.5, "epochs"),
    ("invert", 3, "nfs.regularization", "x", "nfs.regularization"),
    ("invert", 3, "nfs.regularization.p_s", 5, "nfs.regularization.p_s"),
    ("simulate", 3, "survey.x0", "a", "survey.x0"),
    ("simulate", 2, "true_model.ellipse", DROP, "true_model.ellipse"),
    ("simulate", 3, "true_model.dike_sigma", -0.1, "true_model.dike_sigma"),
    ("simulate", 1, "bogus", 1, "bogus"),
    ("simulate", 1, "encoding.coord_range", ["a", "b"],
     "encoding.coord_range[0]"),
    ("simulate", 1, "encoding.coord_range", [1.0, 0.0],
     "encoding.coord_range"),
    ("simulate", 1, "network.hidden", [True], "network.hidden[0]"),
    ("simulate", 1, "noise.kind", "bogus", "noise.kind"),
    ("simulate", 3, "survey.current", 0, "survey.current"),
    ("simulate", 1, "checkpoint_every", -1, "checkpoint_every"),
    ("simulate", 1, "conventional.target_chi2", "x",
     "conventional.target_chi2"),
    ("simulate", 1, "svd", {"k": 1e9}, "svd.k"),
    # survey geometry the survey builders reject
    ("simulate", 1, "survey.spacing", 3.0, "survey.spacing"),
    ("simulate", 3, "survey.x0", -500.0, "survey.x0"),
    ("simulate", 3, "survey.line_length", 20.0, "survey.line_length"),
    # keys that no code read, in an old manifest that still carries them
    ("simulate", 1, "desk_scale", True, "desk_scale"),
    ("simulate", 3, "mesh.kind", "dcr", "mesh.kind"),
    ("simulate", 1, "noise.kind", "absolute_gaussian", "noise.kind"),
    ("simulate", 3, "mesh_resolved", {"n_pad": 4}, "mesh_resolved"),
    # in-range sizes whose arrays would exceed the byte budget
    ("invert", 4, "survey.line_length", 1e300, "survey.line_length"),
    ("invert", 3, "survey.station_sep", 1e-300, "survey.station_sep"),
    ("invert", 2, "mesh.dx", 1e-300, "true_model.grf"),
    ("invert", 1, "mesh.dz", 1e6, "survey.spacing"),
    ("invert", 2, "true_model.grf.len_z", 1e6, "true_model.grf"),
    # padding that overflows, a line that collapses onto one position and
    # cell counts past the byte budget (refused before any allocation)
    ("simulate", 3, "mesh.pad_factor", 1e300, "mesh.pad_factor"),
    ("simulate", 3, "mesh.n_pad", 100000, "mesh.n_pad"),
    ("simulate", 3, "mesh.dx", 1e300, "survey.station_sep"),
    ("invert", 1, "mesh.nx", 100000000, "mesh.nx"),
    ("invert", 3, "mesh.nx_core", 100000000, "mesh.nx_core"),
    # a deep mesh whose band factor alone exceeds the byte budget
    ("simulate", 3, "mesh.nz_core", 200000, "mesh.nz_core"),
    # in-range extremes whose tomography set-up fails: a data weight that
    # is not finite, a subnormal cell width and travel times that overflow
    ("simulate", 1, "noise.std_ms", 5e-324, "noise.std_ms"),
    ("invert", 2, "noise.std_ms", 5e-324, "noise.std_ms"),
    ("simulate", 1, "mesh.dx", 5e-324, "mesh.dx"),
    ("simulate", 1, "true_model.background_velocity", 5e-324,
     "true_model.background_velocity"),
    ("invert", 1, "true_model.block_velocity", 1e-308,
     "true_model.block_velocity"),
]


@pytest.mark.parametrize("verb,case,path,value,field", PROBES)
def test_bad_manifest_exits_2_naming_field(tmp_path, capsys, verb, case,
                                           path, value, field):
    man_path = tmp_path / "man.json"
    save_manifest(mutate(tiny(case), path.split("."), value), man_path)
    assert main([verb, "--manifest", str(man_path),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"invalid input at {field}: " in capsys.readouterr().err
    assert not (tmp_path / "out" / "histories.csv").exists()


def test_bad_cli_inputs_exit_2_naming_input(tmp_path, capsys):
    def exits_2_naming(argv, name):
        assert main(argv) == 2
        assert f"invalid input at {name}: " in capsys.readouterr().err

    out = ["--out", str(tmp_path / "out")]
    for text in (None, "{not json", "[1, 2]"):
        path = tmp_path / "man.json"
        if text is not None:
            path.write_text(text)
        exits_2_naming(["simulate", "--manifest", str(path), *out],
                       "--manifest")

    man_path = tmp_path / "good.json"
    save_manifest(tiny(1), man_path)  # basic encoding: 4 features
    svd = ["svd", "--manifest", str(man_path), "--k", "3", *out]
    exits_2_naming([*svd, "--checkpoint", str(tmp_path / "none.ckpt")],
                   "--checkpoint")
    ckpt = tmp_path / "w.ckpt"
    save_checkpoint(ckpt, init_kaiming((2, 8, 1)))
    exits_2_naming([*svd, "--checkpoint", str(ckpt)], "--checkpoint")
    # one NaN weight in a network of the manifest's widths
    mlp = init_kaiming(layer_dims(tiny(1)))
    weights = get_weights(mlp)
    weights[0] = np.nan
    set_weights(mlp, weights)
    save_checkpoint(ckpt, mlp)
    exits_2_naming([*svd, "--checkpoint", str(ckpt)], "--checkpoint")

    exits_2_naming(["report", str(tmp_path)],
                   str(tmp_path / "metrics.json"))


@pytest.mark.parametrize("method,updates,field", [
    ("nfs", {"nfs": {"tau": None}}, "nfs.regularization"),
    ("conventional", {"conventional": {"alpha_s": 0.0, "alpha_x": 0.0,
                                       "alpha_z": 0.0}},
     "conventional.sensitivity_weighting"),
])
def test_setting_without_effect_exits_2_naming_it(tmp_path, capsys, method,
                                                  updates, field):
    # a regularization with beta = 0 throughout, or sensitivity weights
    # with no regularization term to weight
    man = tiny(3)
    man["method"] = method
    for block, values in updates.items():
        man[block].update(values)
    man_path = tmp_path / "man.json"
    save_manifest(man, man_path)
    assert main(["invert", "--manifest", str(man_path),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"invalid input at {field}: no effect" in capsys.readouterr().err


@pytest.mark.parametrize("header", [
    [1, 2], {"layer_dims": None}, {"output_scale": "a"},
    {"hidden_slope": "a"}, {"seed": "x"}])
def test_malformed_checkpoint_header_exits_2(tmp_path, capsys, header):
    man = tiny(1)
    man_path = tmp_path / "man.json"
    save_manifest(man, man_path)
    ckpt = tmp_path / "w.ckpt"
    save_checkpoint(ckpt, init_kaiming(layer_dims(man)))
    line, weights = ckpt.read_bytes().split(b"\n", 1)
    if isinstance(header, dict):
        header = {**json.loads(line), **header}
    ckpt.write_bytes(json.dumps(header).encode() + b"\n" + weights)
    assert main(["svd", "--manifest", str(man_path), "--checkpoint",
                 str(ckpt), "--k", "3", "--out", str(tmp_path / "out")]) == 2
    assert "invalid input at --checkpoint: header" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def leaf_paths(node, path=()):
    """The path of every value below ``node``: dict keys and list items."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from leaf_paths(value, path + (key,))


def declaration(man, path):
    """The schema's declaration of the value at ``path`` in ``man``."""
    spec, node = SCHEMA, man
    for key in path:
        if isinstance(spec, F):  # a list's items or a nullable block
            spec = spec.of
        if isinstance(spec, Tagged):
            spec = {spec.tag: None, **spec.blocks[node[spec.tag]]}
        if isinstance(spec, dict):
            spec = spec[key]
        node = node[key]
    return spec


def past_bound(decl):
    """A value of the declared type just outside one of its bounds."""
    step = 1 if decl.kind is int else 0.0
    if decl.lo is not None:
        return decl.lo - step if step else math.nextafter(decl.lo, -math.inf)
    if decl.gt is not None:
        return decl.gt
    return decl.hi + step if step else math.nextafter(decl.hi, math.inf)


def bounded(decl):
    return isinstance(decl, F) and (decl.lo, decl.gt, decl.hi) != (None,) * 3


def positive(decl):
    """A float field bounded only below by zero (exclusive)."""
    return (isinstance(decl, F) and decl.kind is float and decl.gt == 0
            and decl.lo is None and decl.hi is None)


# one value of each JSON type; none is a large size
RETYPES = (None, True, "x", [1.0], {"x": 1}, 1, 0.5)
# in range for a positive float field: the least subnormal, a subnormal
# neighbour of the least normal and a value near the overflow
EXTREMES = (5e-324, 1e-308, 1e300)
MUTATIONS = {"drop": lambda decl: True, "retype": lambda decl: True,
             "past": bounded, "extreme": positive}


def draw_mutation(data, man):
    """Drop, retype or push past its bound one drawn value of ``man``, or
    set a positive float field to an in-range extreme; returns which of
    the four it did."""
    how = data.draw(st.sampled_from(list(MUTATIONS)))
    paths = [p for p in leaf_paths(man)
             if MUTATIONS[how](declaration(man, p))]
    path = data.draw(st.sampled_from(paths))
    if how == "drop":
        value = DROP
    elif how == "retype":
        current = man
        for key in path:
            current = current[key]
        value = data.draw(st.sampled_from(
            [v for v in RETYPES if type(v) is not type(current)]))
    elif how == "extreme":
        value = data.draw(st.sampled_from(EXTREMES))
    else:
        value = past_bound(declaration(man, path))
    mutate(man, path, value)
    return how


def run_verb(verb, man):
    """``nfinv <verb>`` on ``man`` in a scratch directory; the exit code."""
    with tempfile.TemporaryDirectory() as d:
        with open(f"{d}/man.json", "w") as f:
            json.dump(man, f)
        return main([verb, "--manifest", f"{d}/man.json",
                     "--out", f"{d}/out"])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_manifest_simulates_or_exits_2(data):
    man = tiny(data.draw(st.sampled_from([1, 2, 3, 4])))
    how = draw_mutation(data, man)
    # an extreme may overflow on its way to an exit, as in ``invert``
    with np.errstate(all="ignore" if how == "extreme" else None):
        code = run_verb("simulate", man)
    # a dropped key or a value past its bound is always invalid; an
    # extreme may also end in a numerical abort, never in a traceback
    assert code in {"drop": (2,), "past": (2,), "retype": (0, 2),
                    "extreme": (0, 2, 3)}[how]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_manifest_inverts_or_exits_2_or_3(data):
    man = tiny(data.draw(st.sampled_from([1, 2, 3, 4])))
    man["method"] = data.draw(st.sampled_from(["nfs", "conventional"]))
    man["epochs"] = 1
    man["conventional"]["max_iterations"] = 1
    how = draw_mutation(data, man)
    with np.errstate(all="ignore"):
        code = run_verb("invert", man)
    assert code == 2 if how in ("drop", "past") else code in (0, 2, 3)


def declared_keys(spec, path=""):
    if isinstance(spec, F):
        return declared_keys(spec.of, path) if spec.kind is dict else set()
    join = (lambda key: f"{path}.{key}" if path else str(key))
    keys = set()
    if isinstance(spec, Tagged):
        keys.add(join(spec.tag))
        blocks = spec.blocks.values()
    else:
        blocks = [spec]
    for block in blocks:
        for key, sub in block.items():
            keys |= {join(key)} | declared_keys(sub, join(key))
    return keys


def manifest_keys(node, path=""):
    keys = set()
    for key, value in node.items():
        sub = f"{path}.{key}" if path else key
        keys.add(sub)
        if isinstance(value, dict):
            keys |= manifest_keys(value, sub)
    return keys


def test_schema_declares_exactly_the_default_keys():
    defaults = set()
    for case in (1, 2, 3, 4):
        for method in ("nfs", "conventional"):
            for desk in (True, False):
                defaults |= manifest_keys(default_manifest(case, method,
                                                           desk_scale=desk))
    # encoding.m: the linear kind, which no case uses; svd.k: svd is null
    # in every default; svd.mode is accepted and ignored
    unused = {"encoding.m", "svd.k", "svd.mode"}
    assert declared_keys(SCHEMA) - defaults == unused
    assert defaults <= declared_keys(SCHEMA)
