"""Golden CLI outputs: the sha256 of twenty-five reports, at one and two workers.

Refactors of the draw, batch and emit paths must leave every report byte
for byte as it was; a hash that moves means a stream or float-order change,
which has to be declared rather than re-recorded silently.  The set covers
the seven criterion-10 configs plus paths they miss: ``bounds`` on a
dataset (the multiplier tail moment), ``bootstrap`` EB with csv output,
``estimate-rho`` with a ``v_grid`` on a ``trunc_exp`` design,
``estimate-rho`` on the literal path (``exact_law: false``), the csv tables
of ``rate-scan`` (with a censored row) and ``nazarov``, and the optional
report fields (``rate-scan`` with explicit ``params``, ``bounds`` with
``params.q`` and ``params.alpha``), and ``bounds`` on AR(1) rows at r=0.7
and on equicorrelated rows at r=0.3, whose tail moments carry the floats of
the structured factors at a correlation where ``r * x`` is not exact, and
``estimate-rho`` on an explicit family of sparsely convex sets at p=1000
(halfspaces and a ball, each given by its support ``J``), the one run that
reads and writes the sparse set descriptors.  A
last-bit change of the draws reaches a tail-moment sum only now and then,
so their seeds are ones at which such a change moves the report: the AR(1)
recursion as LAPACK's banded solve ``dtbtrs`` moves 18 of seeds 23 to 62,
the first at 28, and the equicorrelated root as ``a (z + (b / a) s)`` in
place of ``a z + b s`` (s the row sum) moves 22, seed 30 among them.  The
``nazarov`` reports are hit counts alone: a last-bit change moves one only
if a draw's maximum falls within an ulp of an anchor, so no seed makes
them catch such a mutant, and ``tests/test_draw_hashes.py`` does instead.
In the seven runs before the sparse one, one batch of draws holds more
than 2**22 elements of draw work, so it is made in several slices or
tiles: the multiplier and
empirical products at n=1000 run on tiles of 1024 rows (the largest power of two at most ``TILE //
size``), anchored at the replication index and zero-padded on a run's last
tile; the gaussian side at p=600 and the literal sum path at n*p=5000 are
row-local, made in chunks of at most ``DRAW_BUDGET`` draw values; the
interpolated sampler at n=2000 is row-local too.  The gaussian side at p=600 also makes each batch in
several chunks of draws.

Reports echo their config, so every run happens in a temporary working
directory with relative ``out``/``dataset`` paths.  The hashes pin one
numpy/OpenBLAS build (numpy 2.4, scipy 1.17, OpenBLAS 0.3.31 on x86-64): a
different BLAS may round the matrix products differently.  They also pin
the BLAS thread count, since OpenBLAS splits a matrix product differently
at one and at two threads (the multiplier draws of ``bounds-dataset``,
n=400 and p=8, hash differently).  The hashes were recorded at two
threads, so the runs happen in a child interpreter started with
``OPENBLAS_NUM_THREADS=2``, whatever the calling process pinned.

Every JSON report records ``provenance: {"stream": 4, "batch": 8192,
"tile": 1048576}``; a CSV table does not.  A moved hash is re-recorded
only with its cause, which CHANGES.md records with the old and new hashes.
"""
import hashlib
import json
import os
import sys

import pytest

from conftest import run_child
from hdclt import cli

DESIGN = {"kind": "gaussian", "p": 8, "covariance": {"model": "ar1", "r": 0.5}}
DESIGN4 = {"kind": "gaussian", "p": 4, "covariance": {"model": "ar1", "r": 0.5}}
ORTHANTS = {"p": 4, "sets": [
    {"label": f"o{k}", "kind": "rect", "lower": ["-inf"] * 4, "upper": upper}
    for k, upper in enumerate(([0.0, 0.0, 0.0, 0.0], [1.0, 0.5, 0.0, 2.0],
                               [-0.5, 1.0, 1.5, 0.5]))
]}

# sparse sets at p = 1000: each piece is its support J and a few numbers
SPARSE = {"p": 1000, "sets": [
    {"label": "halves", "kind": "sparse", "p": 1000, "s": 2, "pieces": [
        {"type": "halfspace", "J": [0, 999], "w": [0.6, 0.8], "c": 0.5},
        {"type": "halfspace", "J": [17], "w": [-1.0], "c": 1.0}]},
    {"label": "ball-half", "kind": "sparse", "p": 1000, "s": 3, "pieces": [
        {"type": "ball", "J": [3, 500, 998], "center": [0.1, -0.2, 0.3], "radius": 2.0},
        {"type": "halfspace", "J": [3, 4, 5], "w": [0.48, 0.6, 0.64], "c": 0.8}]},
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
    ("bounds-ar1-r07", "bounds",
     {"seed": 28, "out": "bounds_ar1_r07.json",
      "design": {"kind": "gaussian", "p": 8, "covariance": {"model": "ar1", "r": 0.7}},
      "n": 100, "moment_R": 2000}),
    ("bounds-equi-r03", "bounds",
     {"seed": 30, "out": "bounds_equi_r03.json",
      "design": {"kind": "gaussian", "p": 8,
                 "covariance": {"model": "equicorrelated", "r": 0.3}},
      "n": 100, "moment_R": 2000}),
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
    ("estimate-rho-sparse", "estimate-rho",
     {"seed": 23, "out": "rho_sparse.json", "design": {"kind": "rademacher", "p": 1000},
      "n": 40, "family": SPARSE, "R": 4000}),
)

GOLDEN = {
    "simulate": "74a880556be5d30759c23e575638fc6ad544dc4b0ed8cd04f68bcaf9f4642861",
    "bounds": "32bf2552316041f8bf00aa659fe39774553e99fb510407a1419724a284f0355d",
    "estimate-rho": "63d425600d6d3da4d7e2328aa0c5978df5e7cf11427b894786c7854f2e0f48e8",
    "bootstrap": "8ecd91d7248dffd66570f292809548810782530a177b4aca2ffa797747d7720a",
    "rate-scan": "465707493b552c38658b60f3bfe598652dab3cd223ece5e4b900b780c40de36f",
    "nazarov": "daa3e64f6f0981eb4532f38250c1b41718d5077fbe8dac10b524f71ac73a393c",
    "smoothmax": "31f4f1241b3488e5950ff986baf1e438a5f11e14723aa96409d0a03621db5a2f",
    "bounds-dataset": "8bbea3b97e254365046308a1b878ae9b7f3579b7a2e78756d01913cc05b35c13",
    "bootstrap-eb-csv": "a6730b2b3102539db0538aee4a12a4b61f343085238d66bf699b035173806a67",
    "estimate-rho-vgrid": "45c9384296aaa221f5f46b227fb6b399eab422c071ac02141136b4edc28a8d12",
    "estimate-rho-literal": "37379f5e68b585be60f0a64d62a6dd701a4a52ad8423d88e4c20f18b0352d6ff",
    "rate-scan-csv": "72cf836134d2ac6cd3da7e370bb9eea38b1d176e34a5bb98098534ceb1cfc0bf",
    "nazarov-csv": "39051cd04cc4e445b7bb5e78c258998085892a58109828b508f907acf007a5e2",
    "rate-scan-params": "4c528c93af92c2251472d23fc9e3860f6374ea6e69c9c927213e1a89f87d854e",
    "bounds-q-alpha": "b2e3581333d51a359f6d33f7d051176820b0f39d05833350bc60264853a2fc69",
    "bounds-ar1-r07": "d38b15860c09c0e55316da300f9124f687a1152ea7ee50f74e82fc96b445da95",
    "bounds-equi-r03": "d0f1ae93b93308e5fbedfeb7c4696540524f873a730dc1e11e11b54c11e694ed",
    "simulate-n1000": "3047b4a23cf6749de3ac97f628f081a27bb4bf6ac7f3b40d10a119df59a631d5",
    "bootstrap-n1000": "2755b9098bef01a2e996e5b3e336e35abf8433387672c3fcaf031c080bf4afe5",
    "bootstrap-eb-n1000-csv": "2ce44919f4eaf724c808a48a8fdc5f86dbadef75715a0918a24a7ce8d1cd43c5",
    "bounds-dataset-n1000": "a85ccfee7e2645e738e6bd9716533a2b2cfef844a3ffa8073d2d40394d50261c",
    "nazarov-p600": "c253fdd11189a45020208a49dd25415724664531fb7f82ce72cabee8ac847848",
    "estimate-rho-literal-p50": "39bec877f6c74c163100c05eec8045447cf34e967abdc99d826d7b88182198b8",
    "estimate-rho-vgrid-n2000": "6e87f03e90c5adea70e4e252d2f96acccb199f2eebcdf08fff012968f02259d0",
    "estimate-rho-sparse": "af1f9931b77ef9bc055edaaba4ca9a56d6393d127485b86049048c4e9c23779f",
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
    proc = run_child([os.path.abspath(__file__), workers], "2", cwd=tmp_path, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == GOLDEN


if __name__ == "__main__":
    print(json.dumps(run_all(sys.argv[1])))
