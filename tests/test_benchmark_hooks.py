"""The benchmark still fits the nfinv it measures.

benchmark/layers.py wraps nfinv functions and methods by name, and
benchmark/workloads.py builds manifests by editing default ones; a renamed
or moved name, or a schema change that refuses a workload's manifest, must
fail here rather than in a benchmark run.
"""

import os
import sys

import pytest

from nfinv.manifest import validate_manifest

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
