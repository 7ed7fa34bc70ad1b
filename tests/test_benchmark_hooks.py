"""The benchmark's tracing hooks still name attributes nfinv defines.

benchmark/layers.py wraps nfinv functions and methods by name; a renamed
or moved one must fail here rather than in a traced benchmark run.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmark"))

import layers  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402


def test_every_hook_resolves_and_is_restored():
    targets = layers.phase_targets() + layers.layer_targets()
    originals = [owner.__dict__[attr] for owner, attr, *_ in targets]
    with instrument(Tracer(), targets):
        for owner, attr, *_ in targets:
            assert hasattr(owner.__dict__[attr], "__wrapped__")
    assert [owner.__dict__[attr] for owner, attr, *_ in targets] == originals
