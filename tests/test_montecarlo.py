import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from hdclt import rng, serialize
from hdclt.datagen import CovarianceModel, Dataset, DesignSpec, population_moments, sample_dataset
from hdclt.errors import ParameterError
from hdclt.geometry import Hyperrectangle, SetFamily, one_sided_family, sample_rectangles
from hdclt import bounds, experiments, montecarlo
from hdclt.experiments import nazarov_check
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


def test_default_workers_follow_cpu_affinity(monkeypatch):
    # a process pinned to 2 of 64 CPUs starts 2 workers, not 64
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {3, 17}, raising=False)
    assert montecarlo.default_workers() == 2
    monkeypatch.delattr(montecarlo.os, "sched_getaffinity")  # not on every platform
    assert montecarlo.default_workers() == 64
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
    assert montecarlo.default_workers() == 1


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
    draws = np.concatenate(sampler.map_chunks(55, 0, 8, lambda chunk: chunk))
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
        "gaussian-equicorrelated": GaussianSumSampler(
            CovarianceModel("equicorrelated", 0.5).factor(5)),
        "gaussian-ar1": GaussianSumSampler(CovarianceModel("ar1", 0.5).factor(5)),
        "literal": DesignSumSampler(rad, 12, exact_law=False),
        "literal-trunc_exp": DesignSumSampler(DesignSpec(kind="trunc_exp", p=5), 12),
        "literal-heavy_tail": DesignSumSampler(
            DesignSpec(kind="heavy_tail", p=5, tail_index=5.0), 12),
        "literal-uniform": DesignSumSampler(
            DesignSpec(kind="log_concave", p=5, variant="uniform"), 12),
        "binomial": DesignSumSampler(rad, 12),
        "gaussian-design": DesignSumSampler(DesignSpec(kind="gaussian", p=5), 12),
        "ar1-design": DesignSumSampler(
            DesignSpec(kind="gaussian", p=5, covariance=CovarianceModel("ar1", 0.5)), 12),
        "equicorrelated-design": DesignSumSampler(DesignSpec(
            kind="gaussian", p=5, covariance=CovarianceModel("equicorrelated", 0.5)), 12),
        "interpolated": InterpolatedSampler(rad, 12, chol, 0.5, exact_law=False),
        "MB": MultiplierSampler(data),
        "EB": EmpiricalSampler(data),
        "MB-wide": MultiplierSampler(wide),
        "EB-wide": EmpiricalSampler(wide),
    }


# kinds whose draw is a matrix product: its per-row rounding may depend on
# how many rows it gets, so only the same slices give the same bits
PRODUCT_KINDS = {kind for kind, s in _slicing_samplers().items() if s.product}


def test_product_kinds_are_the_matrix_products():
    # no kind switches between product and row-local slicing silently
    assert PRODUCT_KINDS == {"gaussian", "interpolated", "MB", "EB", "MB-wide", "EB-wide"}


def _keys(seed, start, count):
    return rng.mix64_array(seed, np.arange(start, start + count, dtype=np.uint64))


def _sliced_batch(draw_keys, seed, start, count, per):
    # the draws of one batch, one draw_keys call per slice of `per` keys,
    # made without rng.blocked or map_chunks
    keys = _keys(seed, start, count)
    return np.concatenate([draw_keys(keys[i:i + per]) for i in range(0, count, per)])


def _chunk_consumers(sampler, monkeypatch):
    # the three reductions of draws: hit counts, Nazarov anchor counts (unequal
    # sds, so the blocked row maxima run) and the tail cubes of bounds
    p = sampler.p
    family = sample_rectangles(p, 8, np.ones(p), 5)
    sigma = CovMatrix(np.diag(np.linspace(0.5, 2.0, p)))
    monkeypatch.setattr(experiments, "GaussianSumSampler", lambda chol: sampler)
    return (family_hit_counts(sampler, family, 1000, 9, 1).tolist(),
            nazarov_check(sigma, 3, [0.1, 0.5], 1000, 9, 1),
            bounds._tail_moment(sampler, 1.0, 1000, 9))


@pytest.mark.parametrize("kind", sorted(_slicing_samplers()))
def test_draw_slices_batch_to_budget(monkeypatch, kind):
    # map_chunks hands draw_keys the budget // size slices of one unchunked
    # batch and groups them into chunks of at most budget draw values, the
    # budget being TILE for a product kind and DRAW_BUDGET for a row-local
    # one; on 100 keys the slices give the bits of the slices drawn one by
    # one, and of one unsliced call for a row-local kind; on 1000 keys (at
    # least 3 chunks) the chunks and every consumer's reduction of them
    # equal the slices drawn one by one
    sampler = _slicing_samplers()[kind]
    budget, R = 200, 1000
    monkeypatch.setattr(montecarlo, "TILE" if kind in PRODUCT_KINDS else "DRAW_BUDGET", budget)
    per = max(1, budget // sampler.size)
    draw_keys = sampler.draw_keys
    if kind in PRODUCT_KINDS:
        whole = _sliced_batch(draw_keys, 9, 3, 100, per)
    else:
        whole = draw_keys(_keys(9, 3, 100))
    np.testing.assert_array_equal(
        np.concatenate(sampler.map_chunks(9, 3, 100, lambda chunk: chunk)), whole)

    seen = []

    def counting(keys):
        seen.append(len(keys))
        return draw_keys(keys)

    monkeypatch.setattr(sampler, "draw_keys", counting)
    chunks = sampler.map_chunks(9, 3, R, lambda chunk: chunk)
    assert seen == [per] * (R // per) + ([R % per] if R % per else [])
    assert len(chunks) >= 3 and max(chunk.size for chunk in chunks) <= budget
    np.testing.assert_array_equal(np.concatenate(chunks),
                                  _sliced_batch(draw_keys, 9, 3, R, per))

    hits, nazarov, tail = _chunk_consumers(sampler, monkeypatch)
    whole = _sliced_batch(draw_keys, 9, 0, R, per)
    assert hits == [np.count_nonzero(s.contains_batch(whole)) for s in
                    sample_rectangles(sampler.p, 8, np.ones(sampler.p), 5).sets]
    g = np.max(np.abs(whole), axis=1)
    assert tail.value == float(np.where(g > 1.0, g**3, 0.0).sum()) / R
    monkeypatch.setattr(sampler, "map_chunks", lambda seed, start, count, fn:
                        [fn(_sliced_batch(draw_keys, seed, start, count, per))])
    assert _chunk_consumers(sampler, monkeypatch) == (hits, nazarov, tail)


def _row_count_samplers():
    # products whose rows round differently on 10 to 40 rows than on 8192
    # (OpenBLAS, 1 or 2 threads); those of _slicing_samplers round the same
    square = sample_dataset(DesignSpec(kind="trunc_exp", p=20), 20, 8)
    return {
        "gaussian-p40": GaussianSumSampler(
            robust_cholesky(CovMatrix(CovarianceModel("ar1", 0.5).matrix(40)))),
        "MB-square": MultiplierSampler(square),
        "EB-square": EmpiricalSampler(square),
    }


@pytest.mark.parametrize("kind", sorted(_slicing_samplers()) + sorted(_row_count_samplers()))
def test_draw_budget_changes_no_bit(monkeypatch, kind):
    # DRAW_BUDGET sizes the chunks of a batch, never a product's slices
    sampler = {**_slicing_samplers(), **_row_count_samplers()}[kind]
    family = sample_rectangles(sampler.p, 8, np.ones(sampler.p), 5)
    R = montecarlo.BATCH
    runs = []
    for budget in (200, 1 << 20, 1 << 22):
        monkeypatch.setattr(montecarlo, "DRAW_BUDGET", budget)
        runs.append((np.concatenate(sampler.map_chunks(9, 0, R, lambda chunk: chunk)),
                     family_hit_counts(sampler, family, R, 9, 1)))
    for draws, hits in runs[1:]:
        np.testing.assert_array_equal(draws, runs[0][0])
        np.testing.assert_array_equal(hits, runs[0][1])


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


@pytest.mark.parametrize("p", [5, 200])
@pytest.mark.parametrize("kind, r", [("identity", None), ("ar1", 0.5)])
def test_design_rows_are_the_gaussian_side(kind, r, p):
    # identity and AR(1) design rows are drawn through the same kernel as
    # the Gaussian side of their covariance
    design = DesignSpec(kind="gaussian", p=p, covariance=CovarianceModel(kind, r))
    rows = DesignSumSampler(design, 12).map_chunks(21, 0, 3000, lambda chunk: chunk)
    draws = GaussianSumSampler(design.covariance.factor(p)).map_chunks(
        21, 0, 3000, lambda chunk: chunk)
    np.testing.assert_array_equal(np.concatenate(rows), np.concatenate(draws))


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
