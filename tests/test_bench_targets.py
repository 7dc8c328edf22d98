"""The benchmark's outside tracer finds every function it times.

``bench/tracing.py`` patches the names in ``TARGETS`` and ``MAP_BATCHES``
by lookup; a renamed or deleted target only makes the traced run print
"targets not found" and report zero for that layer.  This test fails
instead, in seconds.  The self-test's closed-form batch counts use the
benchmark's own copy of the batch size, so that copy is checked here too,
and so are the word and value counts of one literal batch, which a kernel
that bypasses ``rng.word_grid`` or ``datagen.values_from_row_keys`` breaks.
Last, ``bench/selftest.py`` itself runs: it checks every workload's
closed-form counts and dominant spans against traced runs.
"""
import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

from hdclt import datagen, montecarlo, rng  # noqa: E402
from hdclt.datagen import DesignSpec  # noqa: E402


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


def test_literal_batch_counts(monkeypatch):
    # the tracer's counts of one scan_literal batch: R * (n + n * p) words
    # (the row keys, then the row values) and R * n * p design values
    counts = {}
    for original in (rng.word_grid, datagen.values_from_row_keys):
        def counting(*args, _fn=original, **kwargs):
            out = _fn(*args, **kwargs)
            counts[_fn.__name__] = counts.get(_fn.__name__, 0) + out.size
            return out

        # like the tracer, replace every binding of the original
        for module in [m for k, m in sys.modules.items() if k.startswith("hdclt")]:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    R, n, p = 300, workloads.SCAN_N_GRID[0], workloads.SCAN_P
    sampler = montecarlo.DesignSumSampler(DesignSpec(kind="trunc_exp", p=p), n)
    assert sum(sampler.map_chunks(5, 0, R, len)) == R
    assert counts == {"word_grid": R * (n + n * p), "values_from_row_keys": R * n * p}


def test_bench_selftest_passes():
    # from the repository root, as its usage says; it removes bench/_work/
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, os.path.join("bench", "selftest.py")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    passed = [line for line in proc.stdout.splitlines() if line.startswith("PASS ")]
    assert len(passed) == 4, proc.stdout
