"""Draw-level bit oracle: the sha256 of raw draws of every sampler kind.

The golden reports of ``tests/test_golden.py`` are mostly hit counts, which
a last-bit change in a draw almost never moves.  This table hashes the
float64 bytes of ``_Sampler.map_chunks`` output instead: about 10^3 keys
per entry, one entry per kind, plus runs that start mid-batch and the two
tail-cube sums of ``bounds``, the data side also over three batches.  A
change that moves one bit of one draw moves its entry, and the failure
names it.

The row-local entries (the structured factors, the design transforms, the
binomial mode, the tail cubes of design rows) use no BLAS.  The
equicorrelated entries catch a last-bit mutant of its ``apply``,
``a (z + (b / a) s)`` for ``a z + b s``; ``gaussian-ar1-p1000`` and its
mid-batch run draw the AR(1) recursion at a p whose row-local chunks were
once cut to whole blocks of p rows.  The matrix
products (a dense ``CholFactor``, the multiplier and empirical bootstrap,
the interpolated sampler, whose Gaussian branch here is dense) also pin the
BLAS build and its thread count, so the entries run in a child interpreter
with ``OPENBLAS_NUM_THREADS`` set, at 1 and at 2 threads; an entry whose
bytes differ between the two has its 2-thread hash in ``AT_TWO_THREADS``.

Re-record with ``OPENBLAS_NUM_THREADS=1 python tests/test_draw_hashes.py``
(and ``=2``), which prints the table; ``--kernels-off`` draws it with the
C kernels of ``hdclt.rng`` switched off, and the numpy code must then
give the same table.  A moved hash is a stream change: re-record it only
with its cause, which CHANGES.md records with the old and new hashes.
"""
import hashlib
import json
import os
import sys

import numpy as np
import pytest

from conftest import run_child
from hdclt import bounds, rng
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
        "gaussian-ar1-p1000": GaussianSumSampler(CovarianceModel("ar1", 0.7).factor(1000, 1.3)),
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
    "gaussian-ar1-p1000@mid": ("gaussian-ar1-p1000", BATCH + 777, 1300),
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
    # M_x over three batches: it pins the order of the batch sums
    out["bounds-M_x-3batches"] = _sha([bounds._population_tail_x(
        DesignSpec(kind="trunc_exp", p=10), 2.0, 2 * BATCH + 500, 81)])
    out["bounds-M_y"] = _sha([m_y.value, m_y.se])
    return out


HASHES = {
    "gaussian-dense-p40": "0c2a472f1410edd67e28f1f252a5c38589ddc94949e29d4b66f5c936c460b4ac",
    "gaussian-dense-p500": "bcce6887285a57a3b2c582d78a6149969e9d4cfdeac156e8e3f079b0afdcd424",
    "gaussian-identity": "bbe544ba6c56853c5a46a445f69a0ca465bd501fde184afebe9cd1444ba07821",
    "gaussian-equicorrelated-p1000": "f407614bc2525f34f4bb90dd22e257626fcc8481af3a82a1135bd6fea9c348b9",
    "gaussian-ar1-r0.3": "fc9a0bfdfc8bf7b5b0124137a417ecefd7764f0de1647f82eeae225b5d4dd5ff",
    "gaussian-ar1-r0.7": "f4227fddfdd760124969b3b81e390007ff016a9b23b905309224f4be619c6f5b",
    "gaussian-ar1-p1000": "340724a8ed26a5cdba52ef015c8055bf13c16cab6f04e1ae154cee832105616a",
    "literal-signs": "a6dca8046bb217f6b93cd1aabc69105a2f07e8e84db3425d0c2f62e95a71d21d",
    "literal-trunc_exp": "dbd3da6f046b5a64b774d7849752294ba83fa32c8e3288b27790c2bf9c2695cd",
    "literal-heavy_tail-q4.5": "b8ca09662ad48b88238fd056090a6a4c9a682f4e1b7409f284ad961f55dc1ee9",
    "literal-heavy_tail-q50": "1958ee0b06e9d48682c1c2a36e4254dfcc754bd098237753b1edf4991775bd87",
    "literal-uniform": "fe96562bc3564e7a81aa1184ae74cfc73cfe1b26c33983bc4d0b1f6e9d48e82c",
    "literal-gaussian-ar1": "b1223ac7b0c4265b7b1aaeb32057977e5f03611fb9703712efc53d73bc39bec5",
    "literal-gaussian-equicorrelated": "df461c00ce3fd0512417923dac26857ff490aa740b2ab7a44a440f9abad76f31",
    "design-gaussian-equicorrelated-p50": "adb241a2dcdca144dcaac5747047a54270546405b13fbff3ac7a14fb58b76530",
    "binomial": "00f9015fe3ddb368a3208d63d254f24ee31bd75745eee4ed2fc215286cda8e60",
    "MB-n5000": "fde7be199d16c9b9c51b82435bdeb890fe2c845546b13a9fc5bee193f0159f21",
    "EB-n5000": "2c7fb7423303c5f878ee6f73684fd288b4376801048b4c840a63a9605bf67846",
    "MB-square20": "0346997880f5f377e193020cd85401dbe2fa050b6168201b442c2e6a7b30332c",
    "EB-square20": "daccd8167b93550860ab28de42adfd60fa49a5d3f3977e3497070b3d60bb1eb5",
    "interpolated-v0.5": "76b8c7ffee6f1d5e64b2d3bd34de0187164fc7264d761576dbce024e0945501d",
    "gaussian-dense-p40@mid": "b64807f60bfdac0a21dc21fba0ffcaa8812a7902499bf0997b2462e3a6fa9704",
    "gaussian-dense-p40@mid1": "b30352dd97d3385b779170f9de4fc98e5cee721c5675b362cb3c6441a4edc905",
    "MB-n5000@mid": "d44403b40bd4d22bf14deea8362f26297cf8820708e083552face5b81a92d4cc",
    "EB-n5000@mid7": "ca720463f681e16248eff7c692fe09e3c938aaf9e10281f7d875f68338f777eb",
    "gaussian-ar1-p1000@mid": "29ad6570d5e8da761a017e767d56c295966368cd68e09aa89bf9648bdad15b40",
    "bounds-M_x": "70338a43e47eb83204068dd2d78d276dbaffaef3a50e863855218741c76f3568",
    "bounds-M_x-3batches": "145fc26d5b91316c36e2972c4b928f952be1ed30fb5ca010327ea394c8358c99",
    "bounds-M_y": "a7e69aaf47b605061116526002922c86fc0b06313e77355593c6a3baff07b9af",
}

AT_TWO_THREADS = {
    "gaussian-dense-p500": "24f89d667e91b1a16ef74ef0c0b53c6e06b8b645b6e95d35be612447af1a98b1",
    "MB-n5000": "3b102f6176db58bb4f1a4fa4000bae7f6060815c1656d0e7263c28f935f81aba",
    "EB-n5000": "3f464926d1093ae6b30d103acaa1fd8b5e3e7fe34819850a7b066fc20fd2928a",
    "MB-n5000@mid": "3b1220847c1e1d968ab409ffd31504dedb4b25d16483843037d4a0cac012f14f",
    "EB-n5000@mid7": "3f378080062db4dd610e4beb8d7736cd6c698bcd60d455dd34f451878b000f91",
}


@pytest.mark.parametrize("threads, args", [("1", []), ("2", []), ("2", ["--kernels-off"])],
                         ids=["1", "2", "2-kernels-off"])
def test_draw_hashes(threads, args):
    proc = run_child([os.path.abspath(__file__), *args], threads, timeout=600)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    want = dict(HASHES, **(AT_TWO_THREADS if threads == "2" else {}))
    assert set(got) == set(want)
    moved = sorted(name for name in want if got[name] != want[name])
    assert not moved, f"draws moved at {threads} BLAS thread(s), args {args}: {moved}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--kernels-off"]:
        rng._lib = False  # before anything draws: every stage takes its numpy code
    print(json.dumps(draw_hashes(), indent=1))
