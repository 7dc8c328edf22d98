"""Golden CLI outputs: the sha256 of twenty-four reports, at one and two workers.

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
the structured factors at a correlation where ``r * x`` is not exact.  A
last-bit change of the draws reaches a tail-moment sum only now and then,
so their seeds are ones at which such a change moves the report: the AR(1)
recursion as LAPACK's banded solve ``dtbtrs`` moves 18 of seeds 23 to 62,
the first at 28, and the equicorrelated root as ``a (z + (b / a) s)`` in
place of ``a z + b s`` (s the row sum) moves 22, seed 30 among them.  The
``nazarov`` reports are hit counts alone: a last-bit change moves one only
if a draw's maximum falls within an ulp of an anchor, so no seed makes
them catch such a mutant, and ``tests/test_draw_hashes.py`` does instead.
In the last seven runs one batch of draws holds more than 2**22 elements
of draw work, so it is made in several slices or tiles: the multiplier and
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

Every JSON report records ``provenance: {"stream": 3, "batch": 8192,
"tile": 1048576}``; a CSV table does not.  Stream 2 runs every matrix
product on a fixed tile of rows, so a draw depends on its key alone; it
moved no report byte here.  Each JSON report, with the provenance entry
taken out, is byte for byte its stream-1 report, at one and two workers.
Stream 3 draws the equicorrelated model through its symmetric square root,
design rows included, and gives ``rate-scan``'s cells and M_y their own
substream tags.

Re-recorded hashes, each with its cause:

* ``bounds`` 943dac99... -> 6ccea1ac... and ``bounds-q-alpha``
  4a8cbbd7... -> 4be22182...: the Gaussian side of a design covariance is
  drawn through its closed-form factor, here the AR(1) recursion, instead
  of a product with the dense Cholesky factor.  The draws round
  differently in their last bits, which moves the last digit of
  ``M_y_se`` (and of ``M_y`` and ``main_bound`` in ``bounds-q-alpha``).
  The stream words and every hit count are unchanged.
* the sixteen JSON reports, for the ``provenance`` entry alone (stream 2):
  ``bounds`` 6ccea1ac -> b27ea9ab, ``estimate-rho`` cf3e3901 -> f883f619,
  ``bootstrap`` fe9936f8 -> 4f30525f, ``rate-scan`` fc860158 -> 1b591e35,
  ``nazarov`` 944e4c36 -> 02f33b7c, ``smoothmax`` eb7ca42c -> 9d45311d,
  ``bounds-dataset`` b4687814 -> c3ad5265, ``estimate-rho-vgrid``
  7e4a0d16 -> e0cd9995, ``estimate-rho-literal`` 1a7fa5df -> 3029c78c,
  ``rate-scan-params`` bb84b925 -> cb2698b4, ``bounds-q-alpha`` 4be22182
  -> 1b1c0726, ``bootstrap-n1000`` f9ef51d0 -> 22c21064,
  ``bounds-dataset-n1000`` d561d577 -> 3260841f, ``nazarov-p600``
  c71a4105 -> fae58edd, ``estimate-rho-literal-p50`` 00814826 -> 953c37b8
  and ``estimate-rho-vgrid-n2000`` 74061786 -> 85e52f6f.  The two
  ``simulate`` datasets and the four CSV tables keep their hashes.
* stream 3, each hash with the cause that moved it; the overflow-free
  rate powers of ``bounds`` moved none:

  - the provenance entry alone: ``bounds`` b27ea9ab -> cb7b4d24,
    ``estimate-rho`` f883f619 -> 1c6a301d, ``bootstrap`` 4f30525f ->
    9e360267, ``smoothmax`` 9d45311d -> a69ea498, ``bounds-dataset``
    c3ad5265 -> abdceaf7, ``estimate-rho-vgrid`` e0cd9995 -> 96ff8c70,
    ``estimate-rho-literal`` 3029c78c -> 44cefe3c, ``bounds-q-alpha``
    1b1c0726 -> ead3e3c6, ``bounds-ar1-r07`` 9efdaeae -> f22b19f8,
    ``bootstrap-n1000`` 22c21064 -> cb04d0b7, ``bounds-dataset-n1000``
    3260841f -> 51170583, ``estimate-rho-literal-p50`` 953c37b8 ->
    52ba8c10 and ``estimate-rho-vgrid-n2000`` 85e52f6f -> 63b00ce8;
  - the rate-scan cell and M_y tags (``rng.TAG_CELL``, ``rng.TAG_MOMENT``),
    after the provenance: ``rate-scan`` 1b591e35 -> feca6c6e -> 2ea64729,
    ``rate-scan-csv`` 07a94950 -> 71f9e983 and ``rate-scan-params``
    cb2698b4 -> c44c1a15 -> 5e51276e;
  - the equicorrelated factor, after the provenance: ``nazarov`` 02f33b7c
    -> fbfc3dbc -> da594402 and ``nazarov-p600`` fae58edd -> 92d64a0f ->
    df7c3a94;
  - ``bounds-equi-r03`` 1dbdbfef -> a3a1c2d4 (provenance) -> ba95ffce
    (the factor, in M_y) -> ccd1eef0 (the design rows, in M_x).
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
)

GOLDEN = {
    "simulate": "66b1a79310a3e9d7f0d013ace84c0a00586e8355154df8a83715834ff67dfedb",
    "bounds": "cb7b4d24de830ab82d6cbe4b54958ba23feefb17b9e4ec7eefddd0f12cee774e",
    "estimate-rho": "1c6a301dfbc95cffadba523b7066a06bd8903c3dc6d4c98e56cb5a4d95ec62e0",
    "bootstrap": "9e360267e8ac5264d0a1a7d8761b1f947aa881ecef503ba4b1f8aa17ed4de29d",
    "rate-scan": "2ea64729440910369f4f6d32307ec1d937c4646f60f467db2b944c2a454f8322",
    "nazarov": "da594402acbf55b6bf58dd1cd1af37357ed10bd0d5abfd2ea643c946c7e37ce1",
    "smoothmax": "a69ea4989fcfe793f879a7031719edf23641cd604a25b0d3672e3a49c8971cec",
    "bounds-dataset": "abdceaf7f89c31bc4fd3e5f5ada4857eb2097aa05767b17761799488e4ad6920",
    "bootstrap-eb-csv": "a6730b2b3102539db0538aee4a12a4b61f343085238d66bf699b035173806a67",
    "estimate-rho-vgrid": "96ff8c700d4d9be42898a3afe952349360c22af5077069e487aaf7a12e13f122",
    "estimate-rho-literal": "44cefe3cfa97ad9ece7f076f2d57bea27e4000094744c3eddfd97e6efaf03312",
    "rate-scan-csv": "71f9e983e6d423a00ffbc12fac76280823e4278cda967335606d290ec6119d53",
    "nazarov-csv": "39051cd04cc4e445b7bb5e78c258998085892a58109828b508f907acf007a5e2",
    "rate-scan-params": "5e51276e49963acaeec6cb911caf16187044702c252dc2c78e88bb9007acf7dd",
    "bounds-q-alpha": "ead3e3c6c5d683ff4448f4b032d53490e2f1d2ba23de2c8a6972fb09c2af5e21",
    "bounds-ar1-r07": "f22b19f81f572a1367e0cae5479eb0e395738560d68807508abaa7ad099ae586",
    "bounds-equi-r03": "ccd1eef0b36742b00330d8e6949fb000742f44e134791f3fe9a673c068075abb",
    "simulate-n1000": "746534fd8c557016928e6ac0835aac9ad5d9c3d2bb839e5cb7036e74b77578b3",
    "bootstrap-n1000": "cb04d0b7dd7ef4288cdd8704b97b186ece37d7ba9442a3396dcc636a29dfb1b9",
    "bootstrap-eb-n1000-csv": "2ce44919f4eaf724c808a48a8fdc5f86dbadef75715a0918a24a7ce8d1cd43c5",
    "bounds-dataset-n1000": "51170583be93c2b352ab0bec850265eb9d28e3bf8bec6ab6082babb67af3662d",
    "nazarov-p600": "df7c3a94a6b971decff78257d0a0c5b65597d464a998fd6e194fda6678d0e581",
    "estimate-rho-literal-p50": "52ba8c107acd99a057680e70058990da212addb7a0b8859decb6082005b1af73",
    "estimate-rho-vgrid-n2000": "63b00ce8f9eb0e082193248f9530fe539ae678b6355e9d6aeaa46afa544f3f85",
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
