"""Cold start: a run loads only the scipy subpackages it calls.  Also the
import-level rule that only ``sums`` applies a covariance factor.

``scipy.stats`` (binomial sign sums), ``scipy.integrate`` (heavy_tail
moments) and ``scipy.spatial`` (ball covering angles) take about 1 s and
46 MiB to import, so each is imported inside the function that uses it.
Measured with one BLAS thread, ``import hdclt.cli`` peaks at 55 MiB with
them deferred and at 101 MiB with them loaded at module level.  Each check
runs in a fresh interpreter, since this test session has long since
imported all three.
"""
import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import hdclt

DEFERRED = ("scipy.stats", "scipy.integrate", "scipy.spatial")
IMPORT_LIMIT_MIB = 80

needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                reason="reads the peak RSS from Linux /proc")

CHILD = """
import json, sys
from hdclt import cli
code = cli.run(sys.argv[1:]) if sys.argv[1:] else 0
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"code": code, "hwm_kib": hwm,
                  "loaded": sorted(m for m in %r if m in sys.modules)}))
""" % (DEFERRED,)


def _child(cwd, *argv):
    src = os.path.dirname(os.path.dirname(hdclt.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@needs_proc
def test_cli_import_is_light(tmp_path):
    out = _child(tmp_path)
    assert out["loaded"] == []
    assert out["hwm_kib"] / 1024 < IMPORT_LIMIT_MIB, f"peak RSS {out['hwm_kib'] / 1024:.0f} MiB"


RUNS = {
    "nazarov": ("nazarov", {"seed": 1, "R": 2000, "y_count": 3, "a_grid": [0.1],
                            "sigma": {"p": 20, "covariance": {"model": "equicorrelated",
                                                              "r": 0.5}}}),
    "rate-scan": ("rate-scan", {"seed": 2, "design": {"kind": "trunc_exp"}, "n_grid": [8, 16],
                                "p_rule": {"rule": "fixed", "p": 10}, "family": {"K": 5},
                                "R": 2000, "moment_R": 1000}),
    "MB": ("bootstrap", {"seed": 3, "dataset": "data.bin", "mode": "MB", "R": 2000,
                         "sigma": {"source": "empirical"}, "family": {"K": 5}}),
    "EB": ("bootstrap", {"seed": 3, "dataset": "data.bin", "mode": "EB", "R": 2000,
                         "sigma": {"source": "empirical"}, "family": {"K": 5}}),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    sim = {"seed": 4, "out": "data.bin", "n": 50,
           "design": {"kind": "gaussian", "p": 6, "covariance": {"model": "ar1", "r": 0.5}}}
    (root / "sim.json").write_text(json.dumps(sim))
    assert _child(root, "simulate", "--config", "sim.json")["loaded"] == []
    return root


@needs_proc
@pytest.mark.parametrize("case", list(RUNS))
def test_runs_load_no_deferred_subpackage(workdir, case):
    command, cfg = RUNS[case]
    (workdir / f"{case}.cfg.json").write_text(json.dumps(dict(cfg, out=f"{case}.json")))
    out = _child(workdir, command, "--config", f"{case}.cfg.json", "--workers", "1")
    assert out["code"] == 0
    assert out["loaded"] == []


def test_only_sums_applies_a_covariance_factor():
    # one Gaussian kernel: every other module draws through
    # sums.gaussian_draw_batch, never through a factor's apply
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(pathlib.Path(hdclt.__file__).parent.glob("*.py"))
             if path.name != "sums.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "apply"]
    assert calls == []
