import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from hdclt import rng, serialize
from hdclt.datagen import CovarianceModel, Dataset, DesignSpec, population_moments, sample_dataset
from hdclt.errors import ParameterError
from hdclt.geometry import Hyperrectangle, SetFamily, one_sided_family, sample_rectangles
from hdclt import montecarlo
from hdclt.montecarlo import (
    DesignSumSampler,
    EmpiricalSampler,
    GaussianSumSampler,
    InterpolatedSampler,
    MultiplierSampler,
    bootstrap_gap,
    estimate_prob,
    family_hit_counts,
    gaussian_approx_gap,
    interpolation_gap,
    noise_floor,
)
from hdclt.sums import CovMatrix, normalized_sum, robust_cholesky


def gaussian_sampler(p):
    return GaussianSumSampler(robust_cholesky(CovMatrix(np.eye(p))))


def gauss_prob(a, b):
    return quad(lambda x: math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi), a, b)[0]


def test_estimate_prob_exact_cases():
    samp = gaussian_sampler(2)
    whole = Hyperrectangle(np.full(2, -np.inf), np.full(2, np.inf))
    assert estimate_prob(samp, whole, 1000, 3).p_hat == 1.0
    empty = Hyperrectangle(np.array([1.0, -np.inf]), np.array([-1.0, np.inf]))
    assert estimate_prob(samp, empty, 1000, 3).p_hat == 0.0
    with pytest.raises(ParameterError):
        estimate_prob(samp, whole, 99, 3)


def test_estimate_prob_interval_against_quadrature():
    samp = gaussian_sampler(1)
    interval = Hyperrectangle(np.array([-1.96]), np.array([1.96]))
    est = estimate_prob(samp, interval, 200_000, 7)
    assert abs(est.p_hat - gauss_prob(-1.96, 1.96)) <= 3.0 * est.se


def test_gaussian_null_below_floor():
    design = DesignSpec(kind="gaussian", p=10)
    sigma = population_moments(design).sigma
    fam = sample_rectangles(10, 40, np.ones(10), 17)
    est = gaussian_approx_gap(design, 2, sigma, fam, 50_000, 1)
    assert est.sup_diff <= est.noise_floor
    assert est.noise_floor == pytest.approx(noise_floor(50_000, 40))


def test_single_known_set_binomial_arithmetic():
    design = DesignSpec(kind="gaussian", p=3)
    sigma = population_moments(design).sigma
    rect = Hyperrectangle(np.array([-1.0, -np.inf, -np.inf]),
                          np.array([1.0, np.inf, np.inf]))
    fam = SetFamily((rect,), ("interval",))
    est = gaussian_approx_gap(design, 2, sigma, fam, 50_000, 5)
    row = est.per_set[0]
    p_true = gauss_prob(-1.0, 1.0)
    assert abs(row.diff - abs(p_true - row.p_y)) <= 3.0 * row.se_diff
    assert est.sup_diff == row.diff
    assert est.argmax_set_label == "interval"


def test_binomial_coverage_200_seeds():
    samp = gaussian_sampler(1)
    rect = Hyperrectangle(np.array([-1.0]), np.array([1.0]))
    p_true = gauss_prob(-1.0, 1.0)
    fails = 0
    for s in range(200):
        est = estimate_prob(samp, rect, 2000, s, workers=1)
        if abs(est.p_hat - p_true) > 3.0 * est.se:
            fails += 1
    assert fails <= 2  # >= 99% coverage


def test_noise_floor_200_seeds():
    samp = gaussian_sampler(5)
    fam = sample_rectangles(5, 20, np.ones(5), 3131)
    floor = noise_floor(2000, 20)
    exceed = 0
    for s in range(200):
        c1 = family_hit_counts(samp, fam, 2000, rng.mix64(s, 1), 1)
        c2 = family_hit_counts(samp, fam, 2000, rng.mix64(s, 2), 1)
        if float(np.max(np.abs(c1 - c2))) / 2000 > floor:
            exceed += 1
    assert exceed <= 2  # at most 1% of seeds


def test_doubling_R_shrinks_identical_law_sup():
    samp = gaussian_sampler(5)
    fam = sample_rectangles(5, 20, np.ones(5), 3131)
    sups = {2000: [], 4000: []}
    for s in range(60):
        for R in (2000, 4000):
            c1 = family_hit_counts(samp, fam, R, rng.mix64(s, 1), 1)
            c2 = family_hit_counts(samp, fam, R, rng.mix64(s, 2), 1)
            sups[R].append(float(np.max(np.abs(c1 - c2))) / R)
    ratio = np.median(sups[2000]) / np.median(sups[4000])
    assert 1.2 <= ratio <= 1.7


def test_worker_count_invariance():
    design = DesignSpec(kind="rademacher", p=8)
    sigma = population_moments(design).sigma
    fam = sample_rectangles(8, 15, np.ones(8), 4)
    results = [gaussian_approx_gap(design, 50, sigma, fam, 20_000, 9, workers=w)
               for w in (1, 2, 3, 8)]
    assert all(r == results[0] for r in results[1:])


def test_worker_count_invariance_bootstrap_and_interpolation():
    design = DesignSpec(kind="gaussian", p=5)
    sigma = population_moments(design).sigma
    data = sample_dataset(design, 200, 12)
    fam = sample_rectangles(5, 10, np.ones(5), 6)
    boot = [bootstrap_gap(data, sigma, fam, 5000, 2, "MB", workers=w) for w in (1, 3)]
    assert boot[0] == boot[1]
    fam1 = one_sided_family(5, 10, np.ones(5), 8)
    interp = [interpolation_gap(design, 20, sigma, fam1, [0.5], 5000, 2, workers=w)
              for w in (1, 3)]
    assert interp[0] == interp[1]


def test_rerun_determinism():
    design = DesignSpec(kind="gaussian", p=5)
    sigma = population_moments(design).sigma
    fam = sample_rectangles(5, 10, np.ones(5), 6)
    a = gaussian_approx_gap(design, 4, sigma, fam, 5000, 3)
    b = gaussian_approx_gap(design, 4, sigma, fam, 5000, 3)
    assert a == b


def test_bootstrap_identical_rows_hits_interior_sets():
    data = Dataset(np.full((10, 3), 4.0))
    sigma = CovMatrix(np.eye(3))
    inner = Hyperrectangle(np.full(3, -1.0), np.full(3, 1.0))  # 0 in the interior
    outside = Hyperrectangle(np.full(3, 1.0), np.full(3, 2.0))
    fam = SetFamily((inner, outside), ("in", "out"))
    for mode in ("MB", "EB"):
        est = bootstrap_gap(data, sigma, fam, 2000, 7, mode)
        assert est.per_set[0].p_x == 1.0  # draws are exactly 0
        assert est.per_set[1].p_x == 0.0
    with pytest.raises(ParameterError):
        bootstrap_gap(data, sigma, fam, 2000, 7, "XX")


def test_bootstrap_modes_agree_at_moderate_scale():
    design = DesignSpec(kind="gaussian", p=5, covariance=CovarianceModel("ar1", 0.5))
    sigma = population_moments(design).sigma
    data = sample_dataset(design, 2000, 42)
    fam = sample_rectangles(5, 20, np.sqrt(np.diag(sigma.matrix)), 11)
    mb = bootstrap_gap(data, sigma, fam, 20_000, 5, "MB")
    eb = bootstrap_gap(data, sigma, fam, 20_000, 5, "EB")
    assert mb.sup_diff <= 0.05
    assert abs(mb.sup_diff - eb.sup_diff) <= 0.05


def test_rademacher_exact_law_matches_literal():
    design = DesignSpec(kind="rademacher", p=5)
    n, R, K = 16, 20_000, 20
    fam = sample_rectangles(5, K, np.ones(5), 23)
    exact = DesignSumSampler(design, n, exact_law=True)
    literal = DesignSumSampler(design, n, exact_law=False)
    assert exact.mode == "binomial" and literal.mode == "literal"
    ce = family_hit_counts(exact, fam, R, 31, 1)
    cl = family_hit_counts(literal, fam, R, 32, 1)
    assert float(np.max(np.abs(ce - cl))) / R <= noise_floor(R, K)


def test_literal_sampler_matches_normalized_sum():
    design = DesignSpec(kind="trunc_exp", p=4, scale=1.0)
    sampler = DesignSumSampler(design, 10, exact_law=False)
    draws = sampler.draw(55, 0, 8)
    for r in (0, 3, 7):
        ds = sample_dataset(design, 10, rng.mix64(55, r))
        assert np.allclose(draws[r], normalized_sum(ds), rtol=1e-12, atol=1e-14)


def _slicing_samplers():
    chol = robust_cholesky(CovMatrix(CovarianceModel("ar1", 0.5).matrix(5)))
    data = sample_dataset(DesignSpec(kind="trunc_exp", p=5), 40, 8)
    wide = sample_dataset(DesignSpec(kind="trunc_exp", p=30), 6, 8)  # p > n
    rad = DesignSpec(kind="rademacher", p=5)
    return {
        "gaussian": GaussianSumSampler(chol),
        "literal": DesignSumSampler(rad, 12, exact_law=False),
        "binomial": DesignSumSampler(rad, 12),
        "gaussian-design": DesignSumSampler(DesignSpec(kind="gaussian", p=5), 12),
        "ar1-design": DesignSumSampler(
            DesignSpec(kind="gaussian", p=5, covariance=CovarianceModel("ar1", 0.5)), 12),
        "interpolated": InterpolatedSampler(rad, 12, chol, 0.5, exact_law=False),
        "MB": MultiplierSampler(data),
        "EB": EmpiricalSampler(data),
        "MB-wide": MultiplierSampler(wide),
        "EB-wide": EmpiricalSampler(wide),
    }


@pytest.mark.parametrize("kind", sorted(_slicing_samplers()))
def test_draw_slices_batch_to_budget(monkeypatch, kind):
    # every sampler hands draw_keys at most DRAW_BUDGET // size keys per
    # call, no call returns more than the budget, and the slices give the
    # same numbers as one unsliced call
    sampler = _slicing_samplers()[kind]
    monkeypatch.setattr(montecarlo, "DRAW_BUDGET", 200)
    whole = sampler.draw_keys(rng.mix64_array(9, np.arange(3, 103, dtype=np.uint64)))
    seen = []
    draw_keys = sampler.draw_keys

    def counting(keys):
        seen.append(len(keys))
        return draw_keys(keys)

    monkeypatch.setattr(sampler, "draw_keys", counting)
    sliced = sampler.draw(9, 3, 100)
    per = max(1, 200 // sampler.size)
    assert seen == [per] * (100 // per) + ([100 % per] if 100 % per else [])
    assert per * sampler.p <= 200
    np.testing.assert_array_equal(sliced, whole)


@pytest.mark.parametrize("kind", sorted(_slicing_samplers()))
def test_draw_blocks_leave_draws_unchanged(monkeypatch, kind):
    # the elementwise stages run in blocks of rng.BLOCK elements; tiny
    # blocks and one block give the same bits
    sampler = _slicing_samplers()[kind]
    keys = rng.mix64_array(9, np.arange(3, 103, dtype=np.uint64))
    word_grid = rng.word_grid
    rows = []

    def counting(keys, count):
        rows.append(len(keys))
        return word_grid(keys, count)

    monkeypatch.setattr(rng, "word_grid", counting)
    monkeypatch.setattr(rng, "BLOCK", 7)
    sliced = sampler.draw_keys(keys)
    assert 0 < max(rows) < len(keys)
    rows.clear()
    monkeypatch.setattr(rng, "BLOCK", 1 << 30)
    whole = sampler.draw_keys(keys)
    assert max(rows) == len(keys)
    np.testing.assert_array_equal(sliced, whole)


def test_interpolation_zero_weight_below_floor():
    design = DesignSpec(kind="rademacher", p=6)
    sigma = population_moments(design).sigma
    fam = one_sided_family(6, 15, np.ones(6), 3)
    est = interpolation_gap(design, 9, sigma, fam, [0.0], 20_000, 4)
    assert est.sup_diff <= est.noise_floor


def test_interpolation_gaussian_design_below_floor():
    # gaussian rows: the interpolated law equals the endpoint law for every
    # weight, so the whole grid sits in the noise
    design = DesignSpec(kind="gaussian", p=6)
    sigma = population_moments(design).sigma
    fam = one_sided_family(6, 15, np.ones(6), 3)
    est = interpolation_gap(design, 12, sigma, fam, [0.0, 0.5, 1.0], 20_000, 4)
    assert est.sup_diff <= est.noise_floor


def test_interpolation_endpoint_dominates():
    design = DesignSpec(kind="rademacher", p=10)
    sigma = population_moments(design).sigma
    fam = one_sided_family(10, 20, np.ones(10), 99)
    est = interpolation_gap(design, 9, sigma, fam, [0.0, 0.5, 1.0], 50_000, 6)
    by_v = {pt.v: pt.estimate.sup_diff for pt in est.per_v}
    floor = noise_floor(est.R, len(fam))
    assert by_v[1.0] >= by_v[0.0] - 2.0 * floor
    assert est.sup_diff == max(by_v.values())


def test_interpolation_requires_one_sided_sets():
    design = DesignSpec(kind="gaussian", p=4)
    sigma = population_moments(design).sigma
    fam = sample_rectangles(4, 5, np.ones(4), 2)  # two-sided members
    with pytest.raises(ParameterError):
        interpolation_gap(design, 8, sigma, fam, [0.5], 2000, 1)


def test_gap_estimate_serialization_schema():
    design = DesignSpec(kind="gaussian", p=4)
    sigma = population_moments(design).sigma
    fam = sample_rectangles(4, 5, np.ones(4), 2)
    est = gaussian_approx_gap(design, 2, sigma, fam, 2000, 3)
    cfg = json.loads(serialize.dumps(est))
    assert set(cfg) == {"sup_diff", "argmax_set_label", "R", "noise_floor",
                        "seed", "sides", "per_set"}
    assert cfg["sides"] == ["sum", "gaussian"]
    # the JSON keys are sorted; the csv header below pins the field order
    assert set(cfg["per_set"][0]) == {"label", "p_x", "p_y", "diff", "se_diff"}
    header, *rows = serialize.csv_table(est.per_set).splitlines()
    assert header == "label,p_x,p_y,diff,se_diff"
    assert len(rows) == 5
