"""The benchmark's outside tracer finds every function it times.

``bench/tracing.py`` patches the names in ``TARGETS`` and ``MAP_BATCHES``
by lookup; a renamed or deleted target only makes the traced run print
"targets not found" and report zero for that layer.  This test fails
instead, in seconds.  The self-test's closed-form batch counts use the
benchmark's own copy of the batch size, so that copy is checked here too.
"""
import importlib
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

from hdclt import montecarlo  # noqa: E402


def resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


@pytest.mark.parametrize("module_name,attr", [t[:2] for t in tracing.TARGETS]
                         + [tracing.MAP_BATCHES])
def test_tracing_target_resolves(module_name, attr):
    assert callable(resolve(module_name, attr)), f"{module_name}.{attr} not found"


def test_bench_batch_matches_package():
    # the self-test's closed-form batch counts rest on this copy
    assert workloads.BATCH == montecarlo.BATCH
