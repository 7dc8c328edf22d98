"""Draw-level bit oracle: the sha256 of raw draws of every sampler kind.

The golden reports of ``tests/test_golden.py`` are mostly hit counts, which
a last-bit change in a draw almost never moves.  This table hashes the
float64 bytes of ``_Sampler.map_chunks`` output instead: about 10^3 keys
per entry, one entry per kind, plus runs that start mid-batch and the two
tail-cube sums of ``bounds``.  A change that moves one bit of one draw
moves its entry, and the failure names it.

The row-local entries (the structured factors, the design transforms, the
binomial mode, the tail cubes of design rows) are numpy-only.  The matrix
products (a dense ``CholFactor``, the multiplier and empirical bootstrap,
the interpolated sampler, whose Gaussian branch here is dense) also pin the
BLAS build and its thread count, so the entries run in a child interpreter
with ``OPENBLAS_NUM_THREADS`` set, at 1 and at 2 threads; an entry whose
bytes differ between the two has its 2-thread hash in ``AT_TWO_THREADS``.

Re-record with ``OPENBLAS_NUM_THREADS=1 python tests/test_draw_hashes.py``
(and ``=2``), which prints the table.  A moved hash is a stream change:
re-record it only with its cause.

Re-recorded hashes (1 thread; 2 threads where they differ), each with its
cause:

* stream 2, every product on a fixed tile of T rows anchored at the
  replication index, zero rows for keys not asked for; no row-local entry
  moved, nor any product entry whose stream-1 slices were long:

  - ``gaussian-dense-p500`` b1657a8b -> 116fbd1d (98494e82 -> eb6d8b3b):
    1000 keys were one 1000-row product, now rows of a 2048-row tile;
  - ``MB-square20`` 3d754114 -> 6457deda and ``EB-square20`` d322fb41 ->
    4147be99: a 1000 x 20 x 20 product, below OpenBLAS's small-matrix
    threshold, now rows of an 8192-row tile;
  - ``gaussian-dense-p40@mid1`` e1939038 -> 7e118548: one key went
    through the matrix-vector kernel, now one row of an 8192-row tile;
  - ``EB-n5000@mid7`` 9509b364 -> ff10b3ed (-> d45c3b90): a 7-row
    product, now 7 rows of a 128-row tile.

* stream 3, the equicorrelated factor is the symmetric square root
  ``a I + b 1 1'``, applied as ``a z + b (row sum of z)``, and equicorrelated
  design rows are its draws (p words per row, not p + 1); the same at 1 and
  2 threads:

  - ``gaussian-equicorrelated-p1000`` e627366d -> ca5f1aca: the factor;
  - ``literal-gaussian-equicorrelated`` and
    ``design-gaussian-equicorrelated-p50`` are new entries for the design
    rows (12ee3c99 and 13c2bc60 on the stream-2 rows, cef3519d and 4c2cd564
    now).  A last-bit mutant of ``apply``, ``a (z + (b / a) s)``, moves all
    three.
"""
import hashlib
import json
import os

import numpy as np
import pytest

from conftest import run_child
from hdclt import bounds
from hdclt.datagen import CovarianceModel, DesignSpec, sample_dataset
from hdclt.montecarlo import (
    BATCH,
    DesignSumSampler,
    EmpiricalSampler,
    GaussianSumSampler,
    InterpolatedSampler,
    MultiplierSampler,
)
from hdclt.sums import CovMatrix, ScaledIdentityFactor, robust_cholesky


def _dense(p, r):
    return robust_cholesky(CovMatrix(CovarianceModel("ar1", r).matrix(p)))


def _literal(**design):
    return DesignSumSampler(DesignSpec(**design), 10, exact_law=False)


def _samplers():
    ar1 = DesignSpec(kind="gaussian", p=8, covariance=CovarianceModel("ar1", 0.7))
    wide_n = sample_dataset(ar1, 5000, 41)  # n >= 1000: several product slices
    square = sample_dataset(DesignSpec(kind="trunc_exp", p=20), 20, 42)  # small products
    return {
        "gaussian-dense-p40": GaussianSumSampler(_dense(40, 0.3)),
        "gaussian-dense-p500": GaussianSumSampler(_dense(500, 0.7)),
        "gaussian-identity": GaussianSumSampler(ScaledIdentityFactor(30, 1.7)),
        "gaussian-equicorrelated-p1000": GaussianSumSampler(
            CovarianceModel("equicorrelated", 0.3).factor(1000, 1.3)),
        "gaussian-ar1-r0.3": GaussianSumSampler(CovarianceModel("ar1", 0.3).factor(50)),
        "gaussian-ar1-r0.7": GaussianSumSampler(CovarianceModel("ar1", 0.7).factor(50, 1.3)),
        "literal-signs": _literal(kind="rademacher", p=6),
        "literal-trunc_exp": _literal(kind="trunc_exp", p=6, scale=1.3),
        "literal-heavy_tail-q4.5": _literal(kind="heavy_tail", p=6, tail_index=4.5),
        "literal-heavy_tail-q50": _literal(kind="heavy_tail", p=6, tail_index=50.0),
        "literal-uniform": _literal(kind="log_concave", p=6, variant="uniform", scale=1.3),
        "literal-gaussian-ar1": _literal(kind="gaussian", p=6,
                                         covariance=CovarianceModel("ar1", 0.7)),
        "literal-gaussian-equicorrelated": _literal(
            kind="gaussian", p=6, covariance=CovarianceModel("equicorrelated", 0.3)),
        "design-gaussian-equicorrelated-p50": DesignSumSampler(DesignSpec(
            kind="gaussian", p=50, covariance=CovarianceModel("equicorrelated", 0.3)), 10),
        "binomial": DesignSumSampler(DesignSpec(kind="rademacher", p=6), 25),
        "MB-n5000": MultiplierSampler(wide_n),
        "EB-n5000": EmpiricalSampler(wide_n),
        "MB-square20": MultiplierSampler(square),
        "EB-square20": EmpiricalSampler(square),
        "interpolated-v0.5": InterpolatedSampler(
            DesignSpec(kind="trunc_exp", p=6), 20, _dense(6, 0.7), 0.5),
    }


# runs that start mid-batch, (sampler, start, count), two of them short;
# every sampler also draws keys [0, 1000) under its own name
MID_BATCH = {
    "gaussian-dense-p40@mid": ("gaussian-dense-p40", BATCH - 300, 1000),
    "gaussian-dense-p40@mid1": ("gaussian-dense-p40", 2 * BATCH + 5, 1),
    "MB-n5000@mid": ("MB-n5000", 3 * BATCH + 777, 1000),
    "EB-n5000@mid7": ("EB-n5000", BATCH + 3, 7),
}


def _sha(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def draw_hashes() -> dict:
    """Entry name -> sha256 of its draws, in this process."""
    samplers = _samplers()
    runs = dict({name: (name, 0, 1000) for name in samplers}, **MID_BATCH)
    out = {name: _sha(np.concatenate(samplers[kind].map_chunks(1234, start, count,
                                                                lambda d: d)))
           for name, (kind, start, count) in runs.items()}
    # the data-side (M_x) and Gaussian-side (M_y) tail-cube sums of bounds
    m_x = bounds._population_tail_x(DesignSpec(kind="trunc_exp", p=10), 2.0, 1000, 77)
    m_y = bounds._tail_moment(GaussianSumSampler(CovarianceModel("ar1", 0.7).factor(10)),
                              2.0, 1000, 78)
    out["bounds-M_x"] = _sha([m_x])
    out["bounds-M_y"] = _sha([m_y.value, m_y.se])
    return out


HASHES = {
    "gaussian-dense-p40": "e1d5b4b07b4cd346b4ba1d4b7fbc1a80f2ae3d717ae3b21c132bf9bc56a9ca71",
    "gaussian-dense-p500": "116fbd1d66382d0c944184c096c228721e52892462e9a85e6b0575244f47365b",
    "gaussian-identity": "684f537ac550258e97b8ba8a967c8f3c73347aa86e20e389b7a961af1af89228",
    "gaussian-equicorrelated-p1000": "ca5f1aca13ef518700983284bbfd6d21033f38d3907a47473bbf3dacded81821",
    "gaussian-ar1-r0.3": "097e39f637d746698b734f5c108ef3c51c3eba0264c9c6f144a73c6b9aba3835",
    "gaussian-ar1-r0.7": "d8659244f4300018519821dddc8d01d400ae88bcac2bf3785a2271c3a43c2c74",
    "literal-signs": "a6dca8046bb217f6b93cd1aabc69105a2f07e8e84db3425d0c2f62e95a71d21d",
    "literal-trunc_exp": "768f15341b42536511bb389b79422c95b0c809386e1ce71eeed3a4d6259b7bb0",
    "literal-heavy_tail-q4.5": "5fd02ba6f63d198fca94ed8fb902b0fb4ddc88ea674962761953390ce6bc5e8b",
    "literal-heavy_tail-q50": "c61d6f2ac3ee14d155853cd8a7aab5d41540540fa07cf25a38a95d06ccc1155b",
    "literal-uniform": "381ed19604f84f728ebb59e426a86f7a0a733c89d577804f2d1b4ae8f1a37a19",
    "literal-gaussian-ar1": "2d18a055075b5a58723c33e86e473ea9ae227f0a2720a800ad4bf99077d4accf",
    "literal-gaussian-equicorrelated": "cef3519d5c7707b0d694d806284e121c358d925a9d6c0a13e42e951c2b8a2bc7",
    "design-gaussian-equicorrelated-p50": "4c2cd56478d7aaa1546375bca13044413a0e2a2f575c4fcf3212b732ab8b0fa8",
    "binomial": "00f9015fe3ddb368a3208d63d254f24ee31bd75745eee4ed2fc215286cda8e60",
    "MB-n5000": "fd2baee3ea2752e28520d5d1dc31d0b98562c65ce7879de3e8cf2de7773a6aca",
    "EB-n5000": "1914899f2fcad3b0066951ef0dfb76638100d7f4db3059f8ea85b83d90f90800",
    "MB-square20": "6457deda78941c1e49af57b62b72b229ee23ebe5226eb9b2f0399dc22c38b17f",
    "EB-square20": "4147be994b1a8ff3dd06f68ee134b5e1aa9985efee1fae024e5a28ffc5ba8fdb",
    "interpolated-v0.5": "daf96b9825b2d1d495de94a95a76b0195ea0b37cdb8f75c99bfb484d0ec8ce98",
    "gaussian-dense-p40@mid": "5c844f50ad5143ffb2d7ed08196e27f0afc2cfe11f35491aa12b06d6ff9fb02c",
    "gaussian-dense-p40@mid1": "7e118548a1b5b4446b6855e799e631671008da599029555441d61b25a94093c8",
    "MB-n5000@mid": "068b71c6aa200bb191d7b7ea7ea4f42ace3724874359d37a7e57bbfb744f9843",
    "EB-n5000@mid7": "ff10b3ed46646ba26c739dfd75d15f4120993bea3550eafc8d531f5481d9b082",
    "bounds-M_x": "58da23a1469e9a8c6150711d924bfd45ce20ec5c34055e335532c9f6f6d63195",
    "bounds-M_y": "659dfaf51cc39f344f0f5704d7dab9164714eeee0b655da3e3f855d6b03c7ee1",
}

AT_TWO_THREADS = {
    "gaussian-dense-p500": "eb6d8b3beb5c79a276d06777dc1b3d9403c5195b056065cb2844accca4243169",
    "MB-n5000": "c4a6b57eb5c2ea10d8a2beb1e8172fbb0ba4ff11fa7a15b055aae13d5fa2d229",
    "EB-n5000": "683a0fa3323aa567b28e567ece8d322b35e787cc6a2f5ee6925933bdead6514a",
    "MB-n5000@mid": "732dfe0259bba57deea8b5fdbe933f163d6b4bba68d476356b79a8cb88e4c8b2",
    "EB-n5000@mid7": "d45c3b902c37d1253afa95612779fb08e24e280e72b69bcfd823bc370c23a696",
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_draw_hashes(threads):
    proc = run_child([os.path.abspath(__file__)], threads, timeout=600)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    want = dict(HASHES, **(AT_TWO_THREADS if threads == "2" else {}))
    assert set(got) == set(want)
    moved = sorted(name for name in want if got[name] != want[name])
    assert not moved, f"draws moved at {threads} BLAS thread(s): {moved}"


if __name__ == "__main__":
    print(json.dumps(draw_hashes(), indent=1))
