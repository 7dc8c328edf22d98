import json
import math

import mpmath
import numpy as np
import pytest

from hdclt import experiments, montecarlo, rng
from hdclt.bounds import rate_terms
from hdclt.datagen import DesignSpec, population_moments
from hdclt.errors import ParameterError
from hdclt.experiments import (
    NazarovResult,
    ScanSpec,
    dimension_rule,
    nazarov_check,
    rate_scan,
    smoothmax_check,
    smoothmax_gap,
)
from hdclt.sums import CovMatrix

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
    spec = ScanSpec(design={"kind": "rademacher"}, n_grid=(8, 32, 128),
                    p_rule={"rule": "power", "c": 0.75, "coef": 4.0},
                    family_K=30, R=50_000, seed=13, moment_R=1000)
    res = rate_scan(spec, workers=2)
    if sum(not r.censored for r in res.rows) >= 2:
        assert res.slope_logp is not None


def test_rate_scan_errors_carry_cell_context():
    # a design error is raised when the spec is made (see below), so the
    # cell error here is one that only a running cell finds
    spec = ScanSpec(design={"kind": "rademacher"}, n_grid=(8,),
                    p_rule={"rule": "fixed", "p": 10}, family_K=5, R=500, seed=1)
    with pytest.raises(ParameterError, match=r"\(n=8, p=10\): need R >= 1000"):
        rate_scan(spec)


@pytest.mark.parametrize("design, n_grid, message", [
    ({"kind": "rademacher"}, (8, 1000), r"exp_power.*n=1000"),  # exp(1000) overflows
    ({"kind": "heavy_tail"}, (8, 1000), "heavy_tail needs tail_index"),
    ({"kind": "rademacher", "p": 5}, (8,), "must omit 'p'"),
])
def test_scan_spec_checks_every_cell_before_any_runs(monkeypatch, design, n_grid, message):
    monkeypatch.setattr(experiments, "gaussian_approx_gap", None)  # no cell may run
    with pytest.raises(ParameterError, match=message):
        rate_scan(ScanSpec(design=design, n_grid=n_grid, family_K=5, R=2000, seed=1,
                           p_rule={"rule": "exp_power", "c": 1.0}))


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
    # cell 3's seed mix64(s, 3) is the family root mix64(s, TAG_FAMILY); the
    # streams read below them must still differ: both gap sides of every
    # cell (M_y reads the Gaussian side on purpose) and the family of each p
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
    assert rng.mix64(7, 3) == rng.mix64(7, rng.TAG_FAMILY)
    assert m_y == sides[1::2]
    family_of = dict(families)
    assert len(set(families)) == len(family_of) == 4  # one family per p
    streams = [seed for seed, in sides] + list(family_of.values())
    assert len(streams) == 2 * 5 + 4
    assert len(set(streams)) == len(streams)


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


_SD = np.array([0.5, 1.0, 2.0, 3.0, 0.25])


@pytest.mark.parametrize("sigma", [
    CovMatrix(0.5 * np.eye(5) + 0.5),  # equicorrelated, equal variances
    CovMatrix(np.outer(_SD, _SD) * 0.3 ** np.abs(np.subtract.outer(range(5), range(5)))),
], ids=["equicorrelated", "unequal-variance"])
def test_nazarov_row_max_blocks_leave_results_unchanged(monkeypatch, sigma):
    # blocked rows, one block, and the literal (rows, anchors, p) max, which
    # the one row max of equal-variance anchors must match bit for bit
    runs = []
    for block in (7, 1 << 30):
        monkeypatch.setattr(rng, "BLOCK", block)
        runs.append(nazarov_check(sigma, 3, [0.05, 0.5], 3000, 4))
    monkeypatch.setattr(experiments, "_anchor_gaps",
                        lambda draws, anchors: np.max(draws[:, None, :] - anchors, axis=2))
    runs.append(nazarov_check(sigma, 3, [0.05, 0.5], 3000, 4))
    assert runs[0] == runs[1] == runs[2]
    assert any(r.diff_hat > 0.0 for r in runs[0].rows)


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
