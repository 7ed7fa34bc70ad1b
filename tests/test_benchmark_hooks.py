"""The benchmark still fits the nfinv it measures.

benchmark/layers.py wraps nfinv functions and methods by name, and
benchmark/workloads.py builds manifests by editing default ones; a renamed
or moved name, or a schema change that refuses a workload's manifest, must
fail here rather than in a benchmark run.
"""

import os
import sys

import pytest

from nfinv.manifest import default_manifest, validate_manifest
from nfinv.runner import run_case

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmark"))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402


def test_every_hook_resolves_and_is_restored():
    targets = layers.phase_targets() + layers.layer_targets()
    originals = [owner.__dict__[attr] for owner, attr, *_ in targets]
    with instrument(Tracer(), targets):
        for owner, attr, *_ in targets:
            assert hasattr(owner.__dict__[attr], "__wrapped__")
    assert [owner.__dict__[attr] for owner, attr, *_ in targets] == originals


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_manifest_validates(workload):
    validate_manifest(workloads.manifest(workload, 0))


def test_a_traced_svd_run_books_its_exports(tmp_path):
    man = default_manifest(1, "nfs", 0)
    man["mesh"].update(nx=8, nz=10)
    man["survey"]["spacing"] = 2.0
    man["network"]["hidden"] = [8, 8]
    man["epochs"] = 2
    man["svd"] = {"k": 3}
    with instrument(Tracer(), layers.phase_targets()
                    + layers.layer_targets()) as tracer:
        run_case(man, tmp_path)
    names = [s.name for s in tracer.spans]
    assert names.count(layers.SVD) == 1
    analyze = names.index(layers.SVD)
    # one grid CSV and one heatmap per map, both inside the analysis
    exports = [s for s in tracer.spans if s.name == "svd_analysis.export"]
    assert len(exports) == 2 * 3
    assert all(s.parent == analyze for s in exports)
    assert "runner.export" in names
