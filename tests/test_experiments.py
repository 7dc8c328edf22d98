import json
import math

import mpmath
import numpy as np
import pytest
from scipy.special import ndtri

from hdclt import experiments, montecarlo, rng
from hdclt.bounds import rate_terms
from hdclt.datagen import CovarianceModel, DesignSpec, population_moments
from hdclt.errors import ParameterError
from hdclt.experiments import (
    NazarovResult,
    ScanSpec,
    _ls_slope,
    dimension_rule,
    nazarov_check,
    rate_scan,
    smoothmax_check,
    smoothmax_gap,
)
from hdclt.sums import CovMatrix, ModelCovariance

mpmath.mp.dps = 50


def test_dimension_rules():
    assert dimension_rule({"rule": "fixed", "p": 17}, 100) == 17
    assert dimension_rule({"rule": "power", "c": 0.5}, 100) == 10
    assert dimension_rule({"rule": "power", "c": 0.5, "coef": 2.0}, 100) == 20
    assert dimension_rule({"rule": "exp_power", "c": 0.5, "coef": 0.5}, 100) == 148
    assert dimension_rule({"rule": "fixed", "p": 1}, 100) == 3  # floored
    assert dimension_rule({"rule": "fixed", "p": 1e4}, 100) == 10_000  # an integral number
    with pytest.raises(ParameterError):
        dimension_rule({"rule": "cubic"}, 100)


@pytest.mark.parametrize("rule", [
    {"rule": "fixed", "p": 12.5},
    {"rule": "fixed", "p": "12"},
    {"rule": "power", "c": "0.5"},
    {"rule": "power"},
    {"rule": "exp_power", "c": 50.0},
    {"rule": "power", "c": 1e6},
], ids=["fractional_p", "string_p", "string_c", "no_c", "exp_overflow", "power_overflow"])
def test_bad_dimension_rules_raise_parameter_error(rule):
    # each was coerced silently or raised KeyError, ValueError or OverflowError
    with pytest.raises(ParameterError):
        dimension_rule(rule, 100)


def test_rate_scan_gaussian_fully_censored():
    spec = ScanSpec(design={"kind": "gaussian"}, n_grid=(8, 32),
                    p_rule={"rule": "fixed", "p": 20}, family_K=20, R=20_000,
                    seed=5, moment_R=2000)
    res = rate_scan(spec, workers=2)
    assert all(r.censored for r in res.rows)
    assert res.slope is None and res.slope_se is None


def test_rate_scan_decay_and_slope():
    spec = ScanSpec(design={"kind": "rademacher"}, n_grid=(8, 32, 128),
                    p_rule={"rule": "fixed", "p": 100}, family_K=50, R=100_000,
                    seed=31, moment_R=2000)
    res = rate_scan(spec, workers=2)
    rows = res.rows
    assert [r.n for r in rows] == [8, 32, 128]
    # nonincreasing within twice the floor
    for a, b in zip(rows, rows[1:]):
        assert b.rho_hat <= a.rho_hat + 2.0 * a.noise_floor
    # D1 recomputes exactly
    moments = population_moments(DesignSpec(kind="rademacher", p=100))
    for r in rows:
        expect = rate_terms(moments.B_n, r.p, r.n)["D1"]
        assert abs(r.D1 - expect) <= 1e-12
    # empirical decay at least as fast as the n^(-1/6) template
    assert res.slope is not None and res.slope < 0.0
    assert res.slope_se is not None
    assert abs(res.slope) >= 1.0 / 6.0 - 2.0 * res.slope_se
    # fixed dimension: no slope against log p
    assert res.slope_logp is None


def test_rate_scan_varying_p_reports_logp_slope():
    # a grid whose rows all clear the noise floor, so that the fit runs
    spec = ScanSpec(design={"kind": "rademacher"}, n_grid=(4, 8, 16),
                    p_rule={"rule": "power", "c": 0.75, "coef": 4.0},
                    family_K=30, R=50_000, seed=13, moment_R=1000)
    res = rate_scan(spec, workers=2)
    kept = [r for r in res.rows if not r.censored]
    assert [r.p for r in kept] == [11, 19, 32]
    expect, _ = _ls_slope(np.log([math.log(r.p) for r in kept]),
                          np.log([r.rho_hat for r in kept]))
    assert res.slope_logp == expect


@pytest.mark.parametrize("design, n_grid, message, spec_args", [
    ({"kind": "rademacher"}, (8, 1000), r"exp_power.*n=1000", {}),  # exp(1000) overflows
    ({"kind": "heavy_tail"}, (8, 1000), "heavy_tail needs tail_index", {}),
    ({"kind": "rademacher", "p": 5}, (8,), "must omit 'p'", {}),
    ({"kind": "rademacher"}, (8,), "need R >= 1000", {"R": 500}),
    ({"kind": "rademacher"}, (8,), "need moment_R >= 2", {"moment_R": 0}),
    ({"kind": "rademacher"}, (8,), "need moment_R >= 2", {"moment_R": 1}),
    ({"kind": "trunc_exp", "scale": 1e60}, (8,),
     r"design 'trunc_exp' with scale 1e\+60 has moments outside the float range", {}),
])
def test_scan_spec_checks_every_cell_before_any_runs(monkeypatch, design, n_grid, message,
                                                     spec_args):
    monkeypatch.setattr(experiments, "gaussian_approx_gap", None)  # no cell may run
    args = dict(design=design, n_grid=n_grid, family_K=5, R=2000, seed=1,
                p_rule={"rule": "exp_power", "c": 1.0})
    with pytest.raises(ParameterError, match=message):
        rate_scan(ScanSpec(**{**args, **spec_args}))


def test_rate_scan_factors_each_cell_once(monkeypatch):
    # the gap and M_y of a cell read the same sigma, so one factor serves
    # both; a model sigma's factor is closed-form, so no cholesky is called
    calls, factors = [], []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
    init = montecarlo.GaussianSumSampler.__init__
    monkeypatch.setattr(montecarlo.GaussianSumSampler, "__init__",
                        lambda self, factor: factors.append(factor) or init(self, factor))
    spec = ScanSpec(design={"kind": "gaussian"}, n_grid=(8, 32),
                    p_rule={"rule": "fixed", "p": 10}, family_K=5, R=1000,
                    seed=3, moment_R=100)
    rate_scan(spec, workers=1)
    assert calls == []
    assert len(factors) == 4  # the gap's Gaussian side and M_y, per cell
    assert factors[0] is factors[1] and factors[2] is factors[3]
    assert factors[1] is not factors[2]


def _recording(log, fn, *positions):
    # fn, logging the positional arguments at `positions` of every call
    def wrapper(*args, **kwargs):
        log.append(tuple(args[i] for i in positions))
        return fn(*args, **kwargs)
    return wrapper


def test_rate_scan_streams_are_pairwise_distinct(monkeypatch):
    # cell idx has the seed mix64(mix64(s, TAG_CELL), idx) and the family of
    # p the seed mix64(mix64(s, TAG_FAMILY), p); below its cell seed, M_y has
    # its own tag.  So every stream differs: both gap sides and M_y of every
    # cell, and the family of each p
    sides, m_y, families = [], [], []
    monkeypatch.setattr(montecarlo, "family_hit_counts",
                        _recording(sides, montecarlo.family_hit_counts, 3))
    monkeypatch.setattr(experiments, "tail_third_moment_gaussian",
                        _recording(m_y, experiments.tail_third_moment_gaussian, 4))
    monkeypatch.setattr(experiments, "sample_rectangles",
                        _recording(families, experiments.sample_rectangles, 0, 3))
    spec = ScanSpec(design={"kind": "gaussian"}, n_grid=(4, 9, 16, 25, 36),
                    p_rule={"rule": "power", "c": 0.5}, family_K=5, R=1000,
                    seed=7, moment_R=100)
    res = rate_scan(spec, workers=1)
    assert [r.p for r in res.rows] == [3, 3, 4, 5, 6]
    cell_0 = rng.mix64(rng.mix64(7, rng.TAG_CELL), 0)
    assert sides[:2] == [(rng.mix64(cell_0, rng.TAG_FIRST),), (rng.mix64(cell_0, rng.TAG_SECOND),)]
    assert m_y[0] == (rng.mix64(cell_0, rng.TAG_MOMENT),)
    family_of = dict(families)
    assert len(set(families)) == len(family_of) == 4  # one family per p
    streams = [seed for seed, in sides + m_y] + list(family_of.values())
    assert len(streams) == 3 * 5 + 4
    assert len(set(streams)) == len(streams)
    # the first draws of M_y are not those of the cell gap's Gaussian side
    for row, (gaussian,), (moment,) in zip(res.rows, sides[1::2], m_y):
        sampler = montecarlo.GaussianSumSampler(
            population_moments(DesignSpec(kind="gaussian", p=row.p)).sigma.factor)
        first = [sampler.map_chunks(seed, 0, 100, lambda d: d)[0] for seed in (gaussian, moment)]
        assert np.all(first[0] != first[1])


@pytest.mark.parametrize("n_grid", [(8, 8, 32), (32, 8)])
def test_scan_spec_rejects_unsorted_or_repeated_n(n_grid):
    with pytest.raises(ParameterError, match="strictly increasing"):
        ScanSpec(design={"kind": "gaussian"}, n_grid=n_grid,
                 p_rule={"rule": "fixed", "p": 10}, family_K=5, R=1000, seed=1)


def test_nazarov_center_anchor_against_product_oracle():
    sigma = population_moments(DesignSpec(kind="gaussian", p=3)).sigma
    res = nazarov_check(sigma, 9, [0.1], 400_000, 11, workers=2)
    center = [r for r in res.rows if r.y_label == "u=0.5"][0]
    oracle = float(mpmath.ncdf(0.1) ** 3 - mpmath.mpf("0.125"))
    assert abs(center.diff_hat - oracle) <= 3.0 * center.se
    assert all(r.diff_hat >= 0.0 for r in res.rows)  # paired estimation


def test_nazarov_zero_offset_exact_zero():
    sigma = population_moments(DesignSpec(kind="gaussian", p=3)).sigma
    res = nazarov_check(sigma, 3, [0.0], 2000, 1)
    assert all(r.diff_hat == 0.0 and r.ratio == 0.0 for r in res.rows)


def test_nazarov_small_offset_doubling():
    sigma = population_moments(DesignSpec(kind="gaussian", p=3)).sigma
    res = nazarov_check(sigma, 9, [0.01, 0.02], 400_000, 19, workers=2)
    center = {r.a: r for r in res.rows if r.y_label == "u=0.5"}
    ratio = center[0.02].diff_hat / center[0.01].diff_hat
    assert 1.5 <= ratio <= 2.5


@pytest.mark.parametrize("sigma", [
    CovMatrix(0.5 * np.eye(5) + 0.5),  # equicorrelated: a dense factor's tiles
    ModelCovariance(CovarianceModel("ar1", 0.3), 5, var=2.25),  # row-local draws
], ids=["equicorrelated", "ar1-model"])
def test_nazarov_row_max_blocks_leave_results_unchanged(monkeypatch, sigma):
    # the one row max of equal-variance anchors, with tiny and with whole
    # rng.BLOCK blocks, matches the literal (rows, anchors, p) max bit for bit
    y_count, a_grid, R, seed = 3, [0.05, 0.5], 3000, 4
    runs = []
    for block in (7, 1 << 30):
        monkeypatch.setattr(rng, "BLOCK", block)
        runs.append(nazarov_check(sigma, y_count, a_grid, R, seed))
    draws = np.concatenate(montecarlo.GaussianSumSampler(sigma.factor).map_chunks(
        seed, 0, R, lambda chunk: chunk))
    levels = [(k + 1) / (y_count + 1) for k in range(y_count)]
    anchors = np.array([float(ndtri(u)) * np.sqrt(sigma.diag()) for u in levels])
    gaps = np.max(draws[:, None, :] - anchors, axis=2)  # (rows, anchors)
    base = np.count_nonzero(gaps <= 0.0, axis=0) / R
    oracle = [np.count_nonzero(gaps[:, k] <= a) / R - base[k]
              for k in range(y_count) for a in a_grid]
    assert runs[0] == runs[1]
    assert [r.diff_hat for r in runs[0].rows] == oracle
    assert any(d > 0.0 for d in oracle)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("sigma", [
    ModelCovariance(CovarianceModel("identity"), 20, var=2.0),
    ModelCovariance(CovarianceModel("equicorrelated", 0.5), 20),
    ModelCovariance(CovarianceModel("ar1", 0.3), 20, var=2.25),
    CovMatrix(0.5 * np.eye(20) + 0.5),  # a dense factor's tiles
], ids=["identity", "equicorrelated", "ar1", "dense"])
def test_nazarov_counts_equal_anchor_counts_of_drawn_batches(monkeypatch, sigma, workers):
    # the row maxima taken as each block or tile is drawn give the counts of
    # _anchor_counts on the row maxima of the whole drawn batches
    R, seed, offsets = 10_000, 6, [0.0, 0.05, 0.5]
    anchor_counts, calls = experiments._anchor_counts, []

    def recording(maxima, anchors, offsets):
        counts = anchor_counts(maxima, anchors, offsets)
        calls.append((anchors, counts))
        return counts

    monkeypatch.setattr(experiments, "_anchor_counts", recording)
    nazarov_check(sigma, 5, offsets[1:], R, seed, workers)
    sampler = montecarlo.GaussianSumSampler(sigma.factor)
    draws = np.concatenate([
        chunk for start in range(0, R, montecarlo.BATCH)
        for chunk in sampler.map_chunks(seed, start, min(montecarlo.BATCH, R - start),
                                        lambda chunk: chunk)])
    want = anchor_counts(np.max(draws, axis=1), calls[0][0], offsets)
    assert len(calls) >= 2
    np.testing.assert_array_equal(sum(counts for _, counts in calls), want)
    assert np.any(want[:, 1] > want[:, 0])


def test_anchor_counts_slices_many_anchors():
    # 600 maxima and 5000 anchors are counted in slices of DRAW_BUDGET // 4
    # // 600 = 436 anchors; each anchor is counted on its own, so the counts
    # equal those of the unsliced (maxima x anchors) gaps
    maxima = np.max(rng.to_normal(rng.word_grid(rng.words(8, 600), 50)), axis=1)
    anchors = np.array([float(ndtri((k + 1) / 5001)) for k in range(5000)]) + 2.0
    offsets = [0.0, 0.05, 0.5]
    gaps = maxima[:, None] - anchors
    unsliced = np.stack([np.count_nonzero(gaps <= a, axis=0) for a in offsets], axis=1)
    np.testing.assert_array_equal(experiments._anchor_counts(maxima, anchors, offsets),
                                  unsliced)


def test_nazarov_rejects_unequal_variances():
    # anchor levels are one quantile per level only when every sd is equal
    sd = np.array([0.5, 1.0, 2.0, 3.0, 0.25])
    sigma = CovMatrix(np.outer(sd, sd) * 0.3 ** np.abs(np.subtract.outer(range(5), range(5))))
    with pytest.raises(ParameterError, match="equal positive coordinate variances"):
        nazarov_check(sigma, 3, [0.05], 3000, 4)
    with pytest.raises(ParameterError, match="equal positive coordinate variances"):
        nazarov_check(CovMatrix(np.zeros((3, 3))), 3, [0.05], 3000, 4)


def test_nazarov_validation():
    sigma = population_moments(DesignSpec(kind="gaussian", p=3)).sigma
    with pytest.raises(ParameterError):
        nazarov_check(sigma, 9, [-0.1], 2000, 1)
    with pytest.raises(ParameterError):
        nazarov_check(sigma, 9, [0.1], 999, 1)


def test_smoothmax_exact_cases():
    # p = 1: the gap is identically zero
    assert smoothmax_gap(np.array([[3.7]]), 1.0)[0] == 0.0
    # all-equal coordinates saturate the upper bound exactly
    assert smoothmax_gap(np.zeros((1, 2)), 1.0)[0] == math.log(2.0)
    # one dominant coordinate: underflow-safe, essentially zero
    assert smoothmax_gap(np.array([[0.0, -100.0]]), 1.0)[0] <= 1e-12


def test_smoothmax_sweep():
    worst = smoothmax_check([0.1, 1.0, 10.0], [1, 2, 10, 100], 2000, 3)
    assert worst <= 1e-12


def test_smoothmax_validation():
    with pytest.raises(ParameterError):
        smoothmax_check([0.0], [2], 100, 1)
    with pytest.raises(ParameterError):
        smoothmax_check([1.0], [], 100, 1)
    with pytest.raises(ParameterError):  # cell keys would collide
        smoothmax_check([1.0, 2.0], [2] * 1001, 100, 1)
