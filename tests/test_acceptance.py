"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy criteria are
sized for a small multicore machine; the whole file takes a few minutes.
"""
import json
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from hdclt import cli
from hdclt.datagen import CovarianceModel, DesignSpec, population_moments, sample_dataset
from hdclt.experiments import nazarov_check, smoothmax_check
from hdclt.geometry import (
    Hyperrectangle,
    SparseBall,
    SparseConvexSet,
    approximate_ball,
    sample_rectangles,
    sandwich_check,
)
from hdclt.montecarlo import (
    EmpiricalSampler,
    GaussianSumSampler,
    MultiplierSampler,
    bootstrap_gap,
    estimate_prob,
    gaussian_approx_gap,
)
from hdclt.bounds import rate_terms, smoothing_parameter
from hdclt.sums import CovMatrix, robust_cholesky

mpmath.mp.dps = 50


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    print(f"\ncriterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}  {detail}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_criterion_01_gaussian_null_calibration():
    design = DesignSpec(kind="gaussian", p=50)
    sigma = population_moments(design).sigma
    family = sample_rectangles(50, 100, np.ones(50), 4242)
    under = 0
    sups = []
    for s in range(1, 21):
        est = gaussian_approx_gap(design, 2, sigma, family, 200_000, s)
        sups.append(est.sup_diff)
        if est.sup_diff <= est.noise_floor:
            under += 1
    floor = est.noise_floor
    report(1, "gaussian null calibration", under >= 18,
           f"{under}/20 seeds under floor {floor:.4f}; max sup {max(sups):.4f}")


def test_criterion_02_clt_decay():
    design = DesignSpec(kind="rademacher", p=200)
    sigma = population_moments(design).sigma
    family = sample_rectangles(200, 100, np.ones(200), 20260810)
    sups = {}
    for n in (25, 100, 400):
        est = gaussian_approx_gap(design, n, sigma, family, 200_000, 2)
        sups[n] = est.sup_diff
    floor = est.noise_floor
    nonincreasing = (sups[100] <= sups[25] + 2 * floor
                     and sups[400] <= sups[100] + 2 * floor)
    ok = nonincreasing and sups[400] <= 0.05
    report(2, "sign-design decay in n", ok,
           f"sups {sups[25]:.4f} -> {sups[100]:.4f} -> {sups[400]:.4f}, "
           f"floor {floor:.4f}")


def test_criterion_03_one_dimensional_oracle():
    oracle = quad(lambda x: math.exp(-x * x / 2.0) / math.sqrt(2 * math.pi),
                  -1.96, 1.96)[0]
    sampler = GaussianSumSampler(robust_cholesky(CovMatrix(np.eye(1))))
    interval = Hyperrectangle(np.array([-1.96]), np.array([1.96]))
    est = estimate_prob(sampler, interval, 1_000_000, 7)
    ok = abs(est.p_hat - oracle) <= 3.0 * est.se and abs(oracle - 0.9500042) < 1e-6
    report(3, "1-d interval vs quadrature oracle", ok,
           f"p_hat {est.p_hat:.6f}, oracle {oracle:.7f}, se {est.se:.6f}")


def test_criterion_04_bootstrap_conditional_identities():
    design = DesignSpec(kind="gaussian", p=20, covariance=CovarianceModel("ar1", 0.5))
    data = sample_dataset(design, 500, 99)
    shat = data.covariance.matrix
    R = 100_000

    outer = np.sum(MultiplierSampler(data).map_chunks(31, 0, R, lambda d: d.T @ d),
                   axis=0) / R
    tol = 6.0 * np.sqrt((np.outer(np.diag(shat), np.diag(shat)) + shat**2) / R)
    cov_ok = bool(np.all(np.abs(outer - shat) <= tol))

    means = np.zeros(20)
    eb = EmpiricalSampler(data)
    for start in range(0, R, 20_000):
        means += np.sum(eb.map_chunks(32, start, 20_000, lambda d: d.sum(axis=0)), axis=0)
    means /= R
    mean_tol = 4.0 * np.sqrt(np.diag(shat) / R)
    mean_ok = bool(np.all(np.abs(means) <= mean_tol))

    report(4, "bootstrap conditional moment identities", cov_ok and mean_ok,
           f"max cov err {np.max(np.abs(outer - shat)):.5f} "
           f"(min tol {tol.min():.5f}); max |mean| {np.max(np.abs(means)):.5f}")


def test_criterion_05_bootstrap_closeness():
    design = DesignSpec(kind="gaussian", p=20, covariance=CovarianceModel("ar1", 0.5))
    sigma = population_moments(design).sigma
    data = sample_dataset(design, 10_000, 555)
    family = sample_rectangles(20, 50, np.sqrt(np.diag(sigma.matrix)), 777)
    mb = bootstrap_gap(data, sigma, family, 100_000, 3, "MB")
    eb = bootstrap_gap(data, sigma, family, 100_000, 3, "EB")
    ok = mb.sup_diff <= 0.05 and abs(eb.sup_diff - mb.sup_diff) <= 0.05
    report(5, "bootstrap closeness at n=10^4", ok,
           f"MB {mb.sup_diff:.4f}, EB {eb.sup_diff:.4f}")


def test_criterion_06_smoothmax_sandwich():
    worst = smoothmax_check([0.1, 1.0, 10.0, 100.0], [1, 2, 10, 1000], 10_000, 3)
    report(6, "smooth-max sandwich", worst <= 1e-12,
           f"max violation {worst:.3e}")


def test_criterion_07_polytope_sandwich():
    disk = SparseConvexSet(p=2, s=2, pieces=(SparseBall((0, 1), np.zeros(2), 1.0),))
    inner = approximate_ball((0, 1), np.zeros(2), 1.0, 0.01, 2)
    violations = sandwich_check(inner, disk, 0.01, 100_000, 1.25, 123)
    shrunk = sandwich_check(inner, disk, 0.005, 100_000, 1.25, 123)
    ok = inner.m == 23 and violations == 0 and shrunk >= 1
    report(7, "disk polytope sandwich", ok,
           f"m {inner.m}, violations {violations}, halved-expansion {shrunk}")


def test_criterion_08_anticoncentration_scaling():
    ratios = {}
    nonneg = True
    for p in (10, 1000):
        design = DesignSpec(kind="gaussian", p=p,
                            covariance=CovarianceModel("equicorrelated", 0.5))
        sigma = population_moments(design).sigma
        res = nazarov_check(sigma, 9, [0.05], 400_000, 11)
        ratios[p] = res.max_ratio
        nonneg &= all(r.diff_hat >= -3.0 * r.se for r in res.rows)
    bound = 1.5 * math.sqrt(math.log(1000) / math.log(10))
    scale = ratios[1000] / ratios[10]
    ok = scale <= bound and nonneg
    report(8, "anti-concentration scaling in p", ok,
           f"ratio(p=1000)/ratio(p=10) = {scale:.3f} <= {bound:.3f}")


def test_criterion_09_formula_fidelity():
    phi = smoothing_parameter(1.0, 3, 64, 1.0)
    phi_ref = float((mpmath.log(3) ** 4 / 64) ** mpmath.mpf("-1/6"))
    lpn = mpmath.log(mpmath.mpf(100_000))
    terms = rate_terms(1.0, 100, 1000, q=4.0, alpha=0.05)
    d1_ref = float((lpn**7 / 1000) ** mpmath.mpf("1/6"))
    d2_ref = float((lpn**3 / mpmath.sqrt(1000)) ** mpmath.mpf("1/3"))
    d2a_ref = float((lpn**3 / (mpmath.mpf("0.05") ** mpmath.mpf("0.5")
                               * mpmath.sqrt(1000))) ** mpmath.mpf("1/3"))

    def close4(x, y):
        return abs(x - y) <= 5e-5 * abs(y)  # four significant digits

    checks = [
        # agree with the independent high-precision evaluation to 4+ digits
        close4(phi, phi_ref),
        close4(terms["D1"], d1_ref),
        close4(terms["D2q"], d2_ref),
        close4(terms["D2q_alpha"], d2a_ref),
        # and with the quoted constants to one unit in their last digit
        abs(phi - 1.8785) <= 1e-4,
        abs(terms["D1"] - 5.470) <= 1e-3,
        abs(terms["D2q"] - 3.64) <= 1e-2,
        abs(terms["D2q_alpha"] - 5.998) <= 1e-3,
    ]
    report(9, "closed-form rate fidelity", all(checks),
           f"phi {phi:.5f}, D1 {terms['D1']:.4f}, D2q {terms['D2q']:.4f}, "
           f"D2q_alpha {terms['D2q_alpha']:.4f}")


def test_criterion_10_cli_determinism(tmp_path):
    out = {
        "simulate": tmp_path / "data.bin",
        "bounds": tmp_path / "bounds.json",
        "estimate-rho": tmp_path / "rho.json",
        "bootstrap": tmp_path / "boot.json",
        "rate-scan": tmp_path / "scan.json",
        "nazarov": tmp_path / "nz.json",
        "smoothmax": tmp_path / "sm.json",
    }
    design = {"kind": "gaussian", "p": 8, "covariance": {"model": "ar1", "r": 0.5}}
    configs = {
        "simulate": {"seed": 1, "out": str(out["simulate"]), "design": design, "n": 400},
        "bounds": {"seed": 2, "out": str(out["bounds"]), "design": design, "n": 100,
                   "moment_R": 2000},
        "estimate-rho": {"seed": 3, "out": str(out["estimate-rho"]), "design": design,
                         "n": 50, "family": {"K": 20}, "R": 20_000},
        "bootstrap": {"seed": 4, "out": str(out["bootstrap"]),
                      "dataset": str(out["simulate"]), "mode": "MB", "R": 20_000,
                      "sigma": {"source": "design", "design": design},
                      "family": {"K": 20}},
        "rate-scan": {"seed": 5, "out": str(out["rate-scan"]),
                      "design": {"kind": "rademacher"}, "n_grid": [8, 32],
                      "p_rule": {"rule": "fixed", "p": 10}, "family": {"K": 10},
                      "R": 10_000, "moment_R": 500},
        "nazarov": {"seed": 6, "out": str(out["nazarov"]),
                    "sigma": {"p": 5, "covariance": {"model": "equicorrelated", "r": 0.5}},
                    "y_count": 3, "a_grid": [0.05], "R": 5000},
        "smoothmax": {"seed": 7, "out": str(out["smoothmax"]),
                      "beta_grid": [1.0, 10.0], "p_grid": [2, 10], "trials": 1000},
    }
    failures = []
    for command, cfg in configs.items():
        path = tmp_path / f"{command}.cfg.json"
        path.write_text(json.dumps(cfg))
        blobs = []
        for workers in ("1", "2", "8"):
            code = cli.run([command, "--config", str(path), "--workers", workers])
            if code != 0:
                failures.append(f"{command}: exit {code}")
                break
            blobs.append(out[command].read_bytes())
        if blobs and any(b != blobs[0] for b in blobs):
            failures.append(f"{command}: outputs differ across worker counts")
    report(10, "CLI determinism across worker counts", not failures,
           "; ".join(failures) or "all 7 commands byte-identical")
