"""Golden CLI outputs: the sha256 of twenty-two reports, at one and two workers.

Refactors of the draw, batch and emit paths must leave every report byte
for byte as it was; a hash that moves means a stream or float-order change,
which has to be declared rather than re-recorded silently.  The set covers
the seven criterion-10 configs plus paths they miss: ``bounds`` on a
dataset (the multiplier tail moment), ``bootstrap`` EB with csv output,
``estimate-rho`` with a ``v_grid`` on a ``trunc_exp`` design,
``estimate-rho`` on the literal path (``exact_law: false``), the csv tables
of ``rate-scan`` (with a censored row) and ``nazarov``, and the optional
report fields (``rate-scan`` with explicit ``params``, ``bounds`` with
``params.q`` and ``params.alpha``).  In the last seven runs one batch
of draws holds more than 2**22 elements of draw work, so a sampler that
bounds the memory of one draw call splits it into slices: multiplier and
empirical draws at n=1000, the gaussian side at p=600, the literal sum
path at n*p=5000 and the interpolated sampler at n=2000.  The gaussian
side at p=600 also makes each batch in two chunks of draws.

Reports echo their config, so every run happens in a temporary working
directory with relative ``out``/``dataset`` paths.  The hashes pin one
numpy/OpenBLAS build (numpy 2.4, scipy 1.17, OpenBLAS 0.3.31 on x86-64): a
different BLAS may round the matrix products differently.  They also pin
the BLAS thread count, since OpenBLAS splits a matrix product differently
at one and at two threads (the multiplier draws of ``bounds-dataset``,
n=400 and p=8, hash differently).  The hashes were recorded at two
threads, so the runs happen in a child interpreter started with
``OPENBLAS_NUM_THREADS=2``, whatever the calling process pinned.

Re-recorded hashes, each with its cause:

* ``bounds`` 943dac99... -> 6ccea1ac... and ``bounds-q-alpha``
  4a8cbbd7... -> 4be22182...: the Gaussian side of a design covariance is
  drawn through its closed-form factor, here the AR(1) recursion, instead
  of a product with the dense Cholesky factor.  The draws round
  differently in their last bits, which moves the last digit of
  ``M_y_se`` (and of ``M_y`` and ``main_bound`` in ``bounds-q-alpha``).
  The stream words and every hit count are unchanged.
"""
import hashlib
import json
import os
import subprocess
import sys

import pytest

import hdclt
from hdclt import cli

DESIGN = {"kind": "gaussian", "p": 8, "covariance": {"model": "ar1", "r": 0.5}}
DESIGN4 = {"kind": "gaussian", "p": 4, "covariance": {"model": "ar1", "r": 0.5}}
ORTHANTS = {"p": 4, "sets": [
    {"label": f"o{k}", "kind": "rect", "lower": ["-inf"] * 4, "upper": upper}
    for k, upper in enumerate(([0.0, 0.0, 0.0, 0.0], [1.0, 0.5, 0.0, 2.0],
                               [-0.5, 1.0, 1.5, 0.5]))
]}

# (label, command, config); run in order, since later runs read data.bin
RUNS = (
    ("simulate", "simulate",
     {"seed": 1, "out": "data.bin", "design": DESIGN, "n": 400}),
    ("bounds", "bounds",
     {"seed": 2, "out": "bounds.json", "design": DESIGN, "n": 100, "moment_R": 2000}),
    ("estimate-rho", "estimate-rho",
     {"seed": 3, "out": "rho.json", "design": DESIGN, "n": 50, "family": {"K": 20},
      "R": 20_000}),
    ("bootstrap", "bootstrap",
     {"seed": 4, "out": "boot.json", "dataset": "data.bin", "mode": "MB", "R": 20_000,
      "sigma": {"source": "design", "design": DESIGN}, "family": {"K": 20}}),
    ("rate-scan", "rate-scan",
     {"seed": 5, "out": "scan.json", "design": {"kind": "rademacher"},
      "n_grid": [8, 32], "p_rule": {"rule": "fixed", "p": 10}, "family": {"K": 10},
      "R": 10_000, "moment_R": 500}),
    ("nazarov", "nazarov",
     {"seed": 6, "out": "nz.json",
      "sigma": {"p": 5, "covariance": {"model": "equicorrelated", "r": 0.5}},
      "y_count": 3, "a_grid": [0.05], "R": 5000}),
    ("smoothmax", "smoothmax",
     {"seed": 7, "out": "sm.json", "beta_grid": [1.0, 10.0], "p_grid": [2, 10],
      "trials": 1000}),
    ("bounds-dataset", "bounds",
     {"seed": 8, "out": "bounds_data.json", "dataset": "data.bin", "moment_R": 10_000,
      "sigma": {"source": "design", "design": DESIGN}}),
    ("bootstrap-eb-csv", "bootstrap",
     {"seed": 9, "out": "boot_eb.csv", "dataset": "data.bin", "mode": "EB", "R": 10_000,
      "sigma": {"source": "empirical"}, "family": {"K": 10}, "format": "csv"}),
    ("estimate-rho-vgrid", "estimate-rho",
     {"seed": 10, "out": "rho_v.json", "design": {"kind": "trunc_exp", "p": 4},
      "n": 16, "family": ORTHANTS, "v_grid": [0.0, 0.5, 1.0], "R": 3000}),
    ("estimate-rho-literal", "estimate-rho",
     {"seed": 11, "out": "rho_lit.json", "design": {"kind": "rademacher", "p": 6},
      "n": 20, "family": {"K": 10}, "R": 5000, "exact_law": False}),
    ("rate-scan-csv", "rate-scan",
     {"seed": 12, "out": "scan.csv", "design": {"kind": "rademacher"},
      "n_grid": [4, 8, 64], "p_rule": {"rule": "fixed", "p": 10}, "family": {"K": 10},
      "R": 10_000, "moment_R": 500, "format": "csv"}),
    ("nazarov-csv", "nazarov",
     {"seed": 13, "out": "nz.csv",
      "sigma": {"p": 5, "covariance": {"model": "ar1", "r": 0.3}},
      "y_count": 3, "a_grid": [0.05, 0.2], "R": 5000, "format": "csv"}),
    ("rate-scan-params", "rate-scan",
     {"seed": 14, "out": "scan_params.json", "design": {"kind": "gaussian"},
      "n_grid": [8, 32], "p_rule": {"rule": "fixed", "p": 6}, "family": {"K": 10},
      "R": 5000, "moment_R": 500,
      "params": {"b": 1.0, "B_n": 2.0, "q": 4.0, "alpha": 0.1}}),
    ("bounds-q-alpha", "bounds",
     {"seed": 15, "out": "bounds_qa.json", "design": DESIGN, "n": 100, "moment_R": 2000,
      "params": {"q": 4.0, "alpha": 0.1}}),
    ("simulate-n1000", "simulate",
     {"seed": 16, "out": "data1000.bin", "design": DESIGN4, "n": 1000}),
    ("bootstrap-n1000", "bootstrap",
     {"seed": 17, "out": "boot1000.json", "dataset": "data1000.bin", "mode": "MB",
      "R": 10_000, "sigma": {"source": "design", "design": DESIGN4},
      "family": {"K": 10}}),
    ("bootstrap-eb-n1000-csv", "bootstrap",
     {"seed": 18, "out": "boot_eb1000.csv", "dataset": "data1000.bin", "mode": "EB",
      "R": 10_000, "sigma": {"source": "empirical"}, "family": {"K": 10},
      "format": "csv"}),
    ("bounds-dataset-n1000", "bounds",
     {"seed": 19, "out": "bounds1000.json", "dataset": "data1000.bin",
      "moment_R": 10_000}),
    ("nazarov-p600", "nazarov",
     {"seed": 20, "out": "nz600.json",
      "sigma": {"p": 600, "covariance": {"model": "equicorrelated", "r": 0.5}},
      "y_count": 3, "a_grid": [0.05], "R": 10_000}),
    ("estimate-rho-literal-p50", "estimate-rho",
     {"seed": 21, "out": "rho_lit50.json", "design": {"kind": "rademacher", "p": 50},
      "n": 100, "family": {"K": 10}, "R": 2000, "exact_law": False}),
    ("estimate-rho-vgrid-n2000", "estimate-rho",
     {"seed": 22, "out": "rho_v2000.json", "design": {"kind": "trunc_exp", "p": 4},
      "n": 2000, "family": ORTHANTS, "v_grid": [0.5], "R": 2000}),
)

GOLDEN = {
    "simulate": "66b1a79310a3e9d7f0d013ace84c0a00586e8355154df8a83715834ff67dfedb",
    "bounds": "6ccea1acf09b6f3376eddcefab42654c5fd73c8b37ab06af0224c86a7f06efeb",
    "estimate-rho": "cf3e3901617c7700c3a85cce5021a7a39a3bfbccd9089f3d37a3ac6751d534b6",
    "bootstrap": "fe9936f8ca07897bdc0fde9d23be07a227ef7860fa6b19c45b094c0763a43135",
    "rate-scan": "fc86015831ae51e12ccf7eb5f37b35eb51fc209484f228bda4abc6daf679ad3c",
    "nazarov": "944e4c36b0fd2ff0450c9d2d22110ecd2ef5fbd18147a069837565799734a5d4",
    "smoothmax": "eb7ca42caa4ca41ad3f62e8048ec127d3acf2161deb8f18207426d9f97fd3e13",
    "bounds-dataset": "b4687814807f0dbe64bdf9ed04006ee355566f44be083e0f61a53ef63825fdf7",
    "bootstrap-eb-csv": "a6730b2b3102539db0538aee4a12a4b61f343085238d66bf699b035173806a67",
    "estimate-rho-vgrid": "7e4a0d16c2ab0ea1b47fa5890a62c3038fcbed72be632b06fd9d95ad76c4d232",
    "estimate-rho-literal": "1a7fa5df05a1dface89c05df5a370109f1ff3c3780921b96c0ec4d1a27086cd4",
    "rate-scan-csv": "07a9495086b1cdbdee371bbaca514e20b770d8644eee4280332e92d2b167de33",
    "nazarov-csv": "39051cd04cc4e445b7bb5e78c258998085892a58109828b508f907acf007a5e2",
    "rate-scan-params": "bb84b9257463694b4c76338821ed6ef846cb0d797edba785bde313168afa2ddb",
    "bounds-q-alpha": "4be22182fd521957dd3fecf73a768b77cc94ad942126732aa6516f3224730d02",
    "simulate-n1000": "746534fd8c557016928e6ac0835aac9ad5d9c3d2bb839e5cb7036e74b77578b3",
    "bootstrap-n1000": "f9ef51d0230fbab20462af7438ced53944799b6d8f7c92dae478d461c90547fa",
    "bootstrap-eb-n1000-csv": "2ce44919f4eaf724c808a48a8fdc5f86dbadef75715a0918a24a7ce8d1cd43c5",
    "bounds-dataset-n1000": "d561d577b42850b82f10b990bb6591b8b803edf2bbbe87aeb04203ddc4a6890c",
    "nazarov-p600": "c71a41053853bf2167331b0ee6c151c88dfd99d3b5206fd99dca7a94d80bf493",
    "estimate-rho-literal-p50": "0081482626f90c9c4d63ca391e809f653980cb52dc122250e70ac28436b77431",
    "estimate-rho-vgrid-n2000": "740617864ff855ee638cb1f02b23bc1f614a2cd2a6ca839f3112ae6c722e7ba5",
}


def run_all(workers: str) -> dict:
    """Run every config in the current directory; label -> report sha256."""
    hashes = {}
    for label, command, cfg in RUNS:
        path = f"{label}.cfg.json"
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        code = cli.run([command, "--config", path, "--workers", workers])
        assert code == 0, f"{label}: exit {code}"
        with open(cfg["out"], "rb") as fh:
            hashes[label] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


@pytest.mark.parametrize("workers", ["1", "2"])
def test_golden_reports(tmp_path, workers):
    src = os.path.dirname(os.path.dirname(hdclt.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), workers],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == GOLDEN


if __name__ == "__main__":
    print(json.dumps(run_all(sys.argv[1])))
