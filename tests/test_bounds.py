import json
import math

import mpmath
import numpy as np
import pytest

from hdclt import bounds, rng, serialize
from hdclt.bounds import (
    BoundParams,
    _population_tail_x,
    gaussian_approx_bound,
    max_covariance_gap,
    max_third_moment,
    orlicz_norm,
    rate_terms,
    report_from_dataset,
    report_from_design,
    smoothing_parameter,
    tail_third_moment,
    tail_third_moment_bootstrap,
    truncation_threshold,
)
from hdclt.datagen import CovarianceModel, Dataset, DesignSpec, sample_dataset
from hdclt.errors import ParameterError
from hdclt.sums import CovMatrix, empirical_covariance

mpmath.mp.dps = 50


def test_max_third_moment_hand_cases():
    assert max_third_moment(Dataset(np.array([[1.0], [-1.0]]))) == 1.0
    assert max_third_moment(Dataset(np.array([[2.0], [0.0]]))) == 1.0
    two = Dataset(np.array([[1.0, 2.0], [-1.0, -2.0]]))
    assert max_third_moment(two) == 8.0


def test_tail_third_moment_single_row_above_cutoff():
    # one row at 10 in the first column, the rest compensating at -10/99;
    # with phi = 1 the cutoff is sqrt(100)/(4 log 3) = 2.276, isolating row 0
    x = np.zeros((100, 3))
    x[0, 0] = 10.0
    x[1:, 0] = -10.0 / 99.0
    ds = Dataset(x)
    tau = truncation_threshold(1.0, 100, 3)
    assert 0.2 < tau < 9.9
    centered_max = 10.0 - x[:, 0].mean()
    assert tail_third_moment(ds, 1.0) == pytest.approx(centered_max**3 / 100.0)


def test_tail_third_moment_zero_below_cutoff():
    ds = Dataset(0.01 * np.random.default_rng(0).standard_normal((50, 3)))
    assert tail_third_moment(ds, 1.0) == 0.0


def test_tail_third_moment_full_limit():
    ds = Dataset(np.random.default_rng(1).standard_normal((40, 3)))
    centered = np.abs(ds.values - ds.values.mean(axis=0))
    full = np.mean(centered.max(axis=1) ** 3)
    assert tail_third_moment(ds, 1e12) == pytest.approx(full, rel=1e-12)


def test_tail_third_moment_requires_phi_at_least_one():
    ds = Dataset(np.ones((4, 3)))
    with pytest.raises(ParameterError):
        tail_third_moment(ds, 0.5)


def test_moment_functionals_permutation_invariant():
    # invariant up to float summation order
    gen = np.random.default_rng(7)
    x = gen.standard_normal((60, 4)) * 3.0
    perm = gen.permutation(60)
    a, b = Dataset(x), Dataset(x[perm])
    assert max_third_moment(a) == pytest.approx(max_third_moment(b), rel=1e-12)
    assert tail_third_moment(a, 1.0) == pytest.approx(tail_third_moment(b, 1.0), rel=1e-12)


def test_tail_third_moment_nondecreasing_in_phi():
    ds = Dataset(np.random.default_rng(9).standard_normal((50, 4)) * 2.0)
    values = [tail_third_moment(ds, phi) for phi in (1.0, 2.0, 5.0, 20.0, 1e6)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_bootstrap_tail_moment_identical_rows_zero():
    ds = Dataset(np.full((10, 3), 2.0))
    est = tail_third_moment_bootstrap(ds, 1.0, 500, 4)
    assert est.value == 0.0 and est.se == 0.0


def test_bootstrap_tail_moment_against_brute_force_oracle():
    ds = Dataset(np.random.default_rng(5).standard_normal((500, 3)))
    est = tail_third_moment_bootstrap(ds, 1e12, 20_000, 9)

    # oracle: independent sampler (numpy Generator) for E max|N(0, S_hat)|^3
    shat = empirical_covariance(ds).matrix
    g = np.random.default_rng(123)
    total = total_sq = 0.0
    R = 10_000_000
    for _ in range(10):
        draws = g.multivariate_normal(np.zeros(3), shat, size=R // 10,
                                      method="cholesky")
        vals = np.abs(draws).max(axis=1) ** 3
        total += vals.sum()
        total_sq += (vals**2).sum()
    oracle = total / R
    oracle_se = math.sqrt((total_sq / R - oracle**2) / R)
    assert abs(est.value - oracle) <= 5.0 * (est.se + oracle_se)


def test_bootstrap_tail_moment_replication_consistency():
    ds = Dataset(np.random.default_rng(6).standard_normal((200, 3)))
    e1 = tail_third_moment_bootstrap(ds, 1.0, 5_000, 11)
    e2 = tail_third_moment_bootstrap(ds, 1.0, 10_000, 11)
    assert abs(e1.value - e2.value) <= 6.0 * (e1.se + e2.se)


def test_smoothing_parameter_worked_value():
    # high-precision evaluation of (log(3)^4 / 64)^(-1/6)
    expect = float((mpmath.log(3) ** 4 / 64) ** mpmath.mpf("-1/6"))
    got = smoothing_parameter(1.0, 3, 64, 1.0)
    assert got == pytest.approx(expect, rel=1e-12)
    assert got == pytest.approx(1.8785, rel=1e-4)


def test_smoothing_parameter_scalings():
    base = smoothing_parameter(1.0, 3, 64, 1.0)
    assert smoothing_parameter(1.0, 3, 64, 2.0) == pytest.approx(2.0 * base, rel=1e-12)
    assert smoothing_parameter(1.0, 3, 64 * 2**6, 1.0) == pytest.approx(2.0 * base, rel=1e-12)


def test_smoothing_parameter_identity():
    gen = np.random.default_rng(2)
    for _ in range(50):
        L = float(gen.uniform(0.1, 5.0))
        p = int(gen.integers(3, 500))
        n = int(gen.integers(4, 10_000))
        K2 = float(gen.uniform(0.2, 3.0))
        phi = smoothing_parameter(L, p, n, K2)
        assert phi * (L**2 * math.log(p) ** 4 / n) ** (1.0 / 6.0) == pytest.approx(
            K2, rel=1e-12
        )


def test_gaussian_approx_bound_worked_value():
    expect = float((mpmath.log(3) ** 7 / 1000) ** mpmath.mpf("1/6"))
    got = gaussian_approx_bound(1.0, 0.0, 3, 1000, 1.0)
    assert got == pytest.approx(expect, rel=1e-12)
    base = got
    assert gaussian_approx_bound(1.0, 1.0, 3, 1000, 1.0) == pytest.approx(base + 1.0)
    assert gaussian_approx_bound(1.0, 0.0, 3, 1000, 3.0) == pytest.approx(3.0 * base)


def test_rate_terms_worked_values():
    lpn = mpmath.log(mpmath.mpf(100) * 1000)
    d1 = float((lpn**7 / 1000) ** mpmath.mpf("1/6"))
    d2 = float((lpn**3 / mpmath.sqrt(1000)) ** mpmath.mpf("1/3"))
    d2a = float((lpn**3 / (mpmath.mpf("0.05") ** mpmath.mpf("0.5") * mpmath.sqrt(1000)))
                ** mpmath.mpf("1/3"))
    out = rate_terms(1.0, 100, 1000, q=4.0, alpha=0.05)
    assert out["D1"] == pytest.approx(d1, rel=1e-12)
    assert out["D2q"] == pytest.approx(d2, rel=1e-12)
    assert out["D2q_alpha"] == pytest.approx(d2a, rel=1e-12)
    assert out["D1"] == pytest.approx(5.470, rel=1e-3)
    assert out["D2q"] == pytest.approx(3.64, rel=2e-3)
    assert out["D2q_alpha"] == pytest.approx(5.998, rel=1e-3)


def test_rate_terms_optional_keys():
    out = rate_terms(1.0, 100, 1000)
    assert set(out) == {"D1"}
    out = rate_terms(1.0, 100, 1000, q=4.0)
    assert set(out) == {"D1", "D2q"}
    out = rate_terms(1.0, 100, 1000, alpha=0.05)
    assert set(out) == {"D1", "D1_alpha"}


def test_rate_terms_scaling_in_B():
    a = rate_terms(1.0, 100, 1000, q=4.0)
    b = rate_terms(2.0, 100, 1000, q=4.0)
    assert b["D1"] == pytest.approx(2.0 ** (1.0 / 3.0) * a["D1"], rel=1e-12)
    assert b["D2q"] == pytest.approx(2.0 ** (2.0 / 3.0) * a["D2q"], rel=1e-12)


def test_rate_terms_domain_errors():
    with pytest.raises(ParameterError):
        rate_terms(1.0, 100, 1000, q=2.0)
    with pytest.raises(ParameterError):
        rate_terms(1.0, 100, 1000, alpha=0.5)
    with pytest.raises(ParameterError):
        rate_terms(1.0, 2, 1000)
    with pytest.raises(ParameterError):
        BoundParams(b=1.0, B_n=1.0, alpha=0.4)


def test_covariance_gaps():
    eye = CovMatrix(np.eye(3))
    assert max_covariance_gap(eye, eye) == 0.0
    bumped = np.eye(3)
    bumped[0, 1] = bumped[1, 0] = 0.3
    assert max_covariance_gap(CovMatrix(bumped), eye) == pytest.approx(0.3)
    assert max_covariance_gap(CovMatrix(2.0 * np.eye(3)), eye) == pytest.approx(1.0)
    with pytest.raises(ParameterError):
        max_covariance_gap(eye, CovMatrix(np.eye(4)))


def test_orlicz_norm_values():
    assert orlicz_norm(np.zeros(10), 1.0) == 0.0
    assert orlicz_norm(np.ones(5), 1.0) == pytest.approx(1.0 / math.log(2.0), rel=1e-8)
    assert orlicz_norm(np.ones(5), 2.0) == pytest.approx(1.0 / math.sqrt(math.log(2.0)), rel=1e-8)


def test_orlicz_norm_homogeneous():
    gen = np.random.default_rng(3)
    x = gen.standard_normal(200)
    base = orlicz_norm(x, 1.0)
    for c in (0.1, 2.0, 17.0):
        assert orlicz_norm(c * x, 1.0) == pytest.approx(c * base, rel=1e-7)


@pytest.mark.parametrize("design", [
    DesignSpec(kind="trunc_exp", p=7, scale=0.7),
    DesignSpec(kind="heavy_tail", p=9, tail_index=5.0, standardize=True),
    DesignSpec(kind="gaussian", p=6, covariance=CovarianceModel("ar1", 0.5)),
    DesignSpec(kind="gaussian", p=6, covariance=CovarianceModel("equicorrelated", 0.3)),
    DesignSpec(kind="log_concave", p=5, variant="uniform", scale=2.0),
], ids=lambda d: d.kind + ("-" + d.covariance.kind if d.kind == "gaussian" else ""))
def test_population_tail_x_blocks_match_one_sample(monkeypatch, design):
    # oracle: the tail moment of one whole sampled matrix; at a block of 7
    # rows every block boundary must leave the cubes and their sum unchanged
    tau = 0.5
    g = np.abs(sample_dataset(design, 3001, 21).values).max(axis=1)
    expect = float(np.mean(np.where(g > tau, g**3, 0.0)))
    assert expect > 0.0
    monkeypatch.setattr(rng, "BLOCK", 7 * design.p)
    assert _population_tail_x(design, tau, 3001, 21) == expect


def test_report_from_design_shape():
    design = DesignSpec(kind="rademacher", p=10)
    report = report_from_design(design, 200, moment_R=2000, seed=3)
    cfg = json.loads(serialize.dumps(report))
    assert cfg["provenance"] == "population"
    assert cfg["L_n"] == 1.0
    assert cfg["M_x"] == 0.0  # bounded by 1, below the cutoff at n = 200
    assert cfg["phi_used"] >= 1.0
    assert "D1" in cfg and "D2q" not in cfg
    assert "q" not in cfg["params"] and "alpha" not in cfg["params"]
    assert cfg["main_bound"] > 0.0


@pytest.mark.parametrize("design", [
    DesignSpec(kind="rademacher", p=10),
    DesignSpec(kind="log_concave", p=10, variant="uniform", standardize=True),
], ids=lambda d: d.kind)
def test_bounded_design_below_cutoff_draws_no_row(monkeypatch, design):
    # M_x is exactly zero once the cutoff clears the bound: no row is made,
    # which a Monte Carlo mean of zero cubes could not show
    def no_rows(*args):
        raise AssertionError("a design row was drawn")

    monkeypatch.setattr(bounds, "values_from_row_keys", no_rows)
    n = 2000
    report = report_from_design(design, n, moment_R=1000, seed=3)
    assert report.M_x == 0.0
    assert truncation_threshold(report.phi_used, n, design.p) >= math.sqrt(3.0)
    # above the bound the rows are drawn, so the patch above is in force
    wide = DesignSpec(kind="log_concave", p=10, variant="uniform", scale=4.0)
    with pytest.raises(AssertionError, match="row was drawn"):
        report_from_design(wide, n, moment_R=1000, seed=3)


def test_report_from_dataset_shape():
    ds = Dataset(np.random.default_rng(8).standard_normal((100, 5)))
    params = BoundParams(b=1.0, B_n=2.0, q=5.0, alpha=0.05)
    sigma = CovMatrix(np.eye(5))
    report = report_from_dataset(ds, params, moment_R=2000, seed=4, sigma=sigma)
    cfg = json.loads(serialize.dumps(report))
    assert cfg["provenance"] == "empirical"
    assert {"D1", "D2q", "D1_alpha", "D2q_alpha", "delta_nr"} <= set(cfg)
    assert cfg["delta_nr"] == pytest.approx(
        max_covariance_gap(empirical_covariance(ds), sigma)
    )
    assert cfg["params"]["q"] == 5.0
