import json
import math
import os

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import run_child
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
from hdclt.sums import AR1Factor, CovMatrix, robust_cholesky


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


def test_batch_map_starts_at_most_one_thread_per_cpu(monkeypatch):
    # each thread holds a chunk of draws, so asking for more workers than
    # CPUs must not start more threads; a stand-in pool records its size and
    # runs the batches serially, so no real thread starts
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", SerialPool)
    R = 10 * montecarlo.BATCH + 5
    expect = montecarlo._batches(R)
    for cpus, workers, started in ((2, 64, [2]), (2, 2, [2]), (2, None, [2]), (2, 1, []),
                                   (1, 2, []), (4, 3, [3])):
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity",
                            lambda pid, cpus=cpus: set(range(cpus)), raising=False)
        sizes.clear()
        assert montecarlo._map_batches(lambda s, c: (s, c), R, workers) == expect
        assert sizes == started, (cpus, workers)


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
        values = sample_dataset(design, 10, rng.mix64(55, r)).values
        assert np.allclose(draws[r], values.sum(axis=0) / math.sqrt(10), rtol=1e-12, atol=1e-14)


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
# the shape of the product, so every product runs on a fixed tile of rows
PRODUCT_KINDS = {kind for kind, s in _slicing_samplers().items() if s.block_rows is None}


def test_product_kinds_are_the_matrix_products():
    # no kind switches between product and row-local slicing silently
    assert PRODUCT_KINDS == {"gaussian", "interpolated", "MB", "EB", "MB-wide", "EB-wide"}


def _keys(seed, start, count):
    return rng.mix64_array(seed, np.arange(start, start + count, dtype=np.uint64))


def _tile_rows(sampler):
    # T, the largest power of two at most BATCH and TILE // size
    T = 1
    while 2 * T <= min(montecarlo.BATCH, montecarlo.TILE // sampler.size):
        T *= 2
    return T


def _full_tiles(draw_keys, seed, start, count, T):
    # the draws of keys [start, start + count), each taken from one product
    # over every key of its tile [tT, (t+1)T), made with no buffer or padding
    first = start // T * T
    rows = np.concatenate([draw_keys(_keys(seed, t, T)) for t in range(first, start + count, T)])
    return rows[start - first:start - first + count]


def _chunk_consumers(sampler, monkeypatch):
    # the three reductions of draws: hit counts, Nazarov anchor counts (equal
    # sds, as the check requires) and the tail cubes of bounds
    p = sampler.p
    family = sample_rectangles(p, 8, np.ones(p), 5)
    sigma = CovMatrix(2.0 * np.eye(p))
    monkeypatch.setattr(experiments, "GaussianSumSampler", lambda chol: sampler)
    return (family_hit_counts(sampler, family, 1000, 9, 1).tolist(),
            nazarov_check(sigma, 3, [0.1, 0.5], 1000, 9, 1),
            bounds._tail_moment(sampler, 1.0, 1000, 9))


@pytest.mark.parametrize("kind", sorted(_slicing_samplers()))
def test_draw_slices_batch_to_budget(monkeypatch, kind):
    # map_chunks cuts a batch, from its start, into chunks of whole units of
    # at most DRAW_BUDGET draw values, counting each branch of a two-branch
    # (interpolated) kind: a unit is the T-row tile of a product
    # kind (TILE fixes T) and block_rows keys of a row-local one.  A product
    # kind's draw_keys gets each chunk with the T-row tile buffer and the
    # index of the chunk's first key, and its draws are those of whole tiles,
    # even where the batch starts mid-tile; a row-local kind's gets each
    # chunk whole, and its draws are those of one call on every key.  Every
    # consumer's reduction of the chunks equals its reduction of those draws
    sampler = _slicing_samplers()[kind]
    budget, start, R = 200, 3, 1000
    product = kind in PRODUCT_KINDS
    monkeypatch.setattr(montecarlo, "DRAW_BUDGET", budget)
    draw_keys = sampler.draw_keys
    if product:
        monkeypatch.setattr(montecarlo, "TILE", budget)
        unit = T = _tile_rows(sampler)

        def whole(seed, start, count):
            return _full_tiles(draw_keys, seed, start, count, T)
    else:
        unit = sampler.block_rows  # block_rows * p <= budget: p is 5

        def whole(seed, start, count):
            return draw_keys(_keys(seed, start, count))
    per = unit * max(1, budget // (sampler.branches * sampler.p * unit))
    edges = [*range(start, start + R, per), start + R]

    seen = []

    def counting(keys, **tile):  # a product kind gets the tile buffer and start
        seen.append((len(keys),) + tuple(getattr(a, "shape", a) for a in tile.values()))
        return draw_keys(keys, **tile)

    monkeypatch.setattr(sampler, "draw_keys", counting)
    chunks = sampler.map_chunks(9, start, R, lambda chunk: chunk)
    assert [len(chunk) for chunk in chunks] == [j - i for i, j in zip(edges, edges[1:])]
    assert len(chunks) >= 3
    assert max(chunk.size for chunk in chunks) * sampler.branches <= budget
    if product:
        assert seen == [(j - i, (T, sampler.size), i) for i, j in zip(edges, edges[1:])]
    else:
        assert seen == [(j - i,) for i, j in zip(edges, edges[1:])]
    np.testing.assert_array_equal(np.concatenate(chunks), whole(9, start, R))

    hits, nazarov, tail = _chunk_consumers(sampler, monkeypatch)
    draws = whole(9, 0, R)
    assert hits == [np.count_nonzero(s.contains_batch(draws)) for s in
                    sample_rectangles(sampler.p, 8, np.ones(sampler.p), 5).sets]
    g = np.max(np.abs(draws), axis=1)
    assert tail.value == float(np.where(g > 1.0, g**3, 0.0).sum()) / R

    def one_chunk(seed, start, count, fn, then=lambda draws: draws):
        return [fn(then(whole(seed, start, count)))]

    monkeypatch.setattr(sampler, "map_chunks", one_chunk)
    assert _chunk_consumers(sampler, monkeypatch) == (hits, nazarov, tail)


def test_row_local_unit_is_one_key_when_its_blocks_overflow(monkeypatch):
    # AR(1) rows at p = 5 block in 5 keys; a budget of 20 values holds no
    # block of 25, so each chunk is 4 whole keys and the draws are unchanged
    sampler = GaussianSumSampler(CovarianceModel("ar1", 0.5).factor(5))
    whole = sampler.draw_keys(_keys(9, 0, 30))
    monkeypatch.setattr(montecarlo, "DRAW_BUDGET", 20)
    chunks = sampler.map_chunks(9, 0, 30, lambda chunk: chunk)
    assert [len(chunk) for chunk in chunks] == [4] * 7 + [2]
    np.testing.assert_array_equal(np.concatenate(chunks), whole)


def test_interpolated_chunks_hold_the_budget_over_both_branches(monkeypatch):
    # an interpolated AR(1) draw at p = 1000 holds two branches of p values
    # per key, so its 1000-key blocks would hold 2,000,000 values: its unit
    # is one key, and its draws are those of one call on every key
    p, count = 1000, 1500
    design = DesignSpec(kind="gaussian", p=p, covariance=CovarianceModel("ar1", 0.3))
    sampler = InterpolatedSampler(design, 12, design.covariance.factor(p), 0.5)
    draw_keys, seen = sampler.draw_keys, []

    def counting(keys, **tile):
        seen.append(len(keys))
        return draw_keys(keys, **tile)

    monkeypatch.setattr(sampler, "draw_keys", counting)
    chunks = sampler.map_chunks(9, 0, count, lambda chunk: chunk)
    assert sum(seen) == count
    assert max(seen) * sampler.branches * p <= montecarlo.DRAW_BUDGET
    np.testing.assert_array_equal(np.concatenate(chunks), draw_keys(_keys(9, 0, count)))


def _row_count_samplers():
    # products whose rows rounded differently on 10 to 40 rows than on 8192
    # (OpenBLAS, 1 or 2 threads), so whose slices of the stream-1 rule were
    # not key-local
    square = sample_dataset(DesignSpec(kind="trunc_exp", p=20), 20, 8)
    return {
        "gaussian-p40": GaussianSumSampler(
            robust_cholesky(CovMatrix(CovarianceModel("ar1", 0.5).matrix(40)))),
        "MB-square": MultiplierSampler(square),
        "EB-square": EmpiricalSampler(square),
    }


@pytest.mark.parametrize("kind", sorted(_slicing_samplers()) + sorted(_row_count_samplers()))
def test_draw_budget_changes_no_bit(monkeypatch, kind):
    # DRAW_BUDGET sizes the chunks of a batch, never a product's tiles
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


def _buffer_samplers():
    # each key's product operand is `size` values: MB normals and EB row
    # counts (n = 2000 > p), the normals of a dense factor (p)
    data = sample_dataset(DesignSpec(kind="gaussian", p=20,
                                     covariance=CovarianceModel("ar1", 0.5)), 2000, 8)
    return {
        "MB": MultiplierSampler(data),
        "EB": EmpiricalSampler(data),
        "gaussian-dense": GaussianSumSampler(
            robust_cholesky(CovMatrix(CovarianceModel("ar1", 0.5).matrix(500)))),
    }


@pytest.mark.parametrize("kind", sorted(_buffer_samplers()))
def test_product_buffer_changes_no_bit(kind):
    # a kernel that runs its products on a NaN-filled T-row tile buffer gives
    # the bytes of whole tiles drawn without one, on one key, 17 keys, one
    # full tile and a run over three tiles; the buffer then holds the last
    # tile's operand, on the rows of its keys, and zero on every other row
    sampler = _buffer_samplers()[kind]
    T = _tile_rows(sampler)
    assert T * sampler.size <= montecarlo.TILE < 2 * T * sampler.size
    for start, count in ((0, 1), (3, 17), (T, T), (T - 2, T + 5)):
        buf = np.full((T, sampler.size), np.nan)
        draws = sampler.draw_keys(_keys(9, start, count), out=buf, start=start)
        assert draws.tobytes() == _full_tiles(sampler.draw_keys, 9, start, count, T).tobytes()
        last = (start + count - 1) // T * T  # the last tile's first replication
        lo, hi = max(start, last) - last, start + count - last
        assert not np.isnan(buf).any() and buf[lo:hi].any()
        assert not buf[:lo].any() and not buf[hi:].any()


# stream 1 cut a batch into slices of OLD_TILE // size keys from its start,
# each one product of exactly its keys; kept as an oracle for the tiles
OLD_TILE = 1 << 22


def _old_slices(sampler, seed, start, count):
    return rng.blocked(sampler.draw_keys, _keys(seed, start, count), sampler.size, OLD_TILE)


def _key_local_samplers():
    # every product kind, at the shapes whose stream-1 slices were not
    # key-local: a dense factor at p = 40 and 500, MB and EB at n = 2000
    # and on a 20 x 20 dataset
    bench = _buffer_samplers()
    return {**{kind: s for kind, s in _slicing_samplers().items() if s.block_rows is None},
            **_row_count_samplers(), "gaussian-p500": bench["gaussian-dense"],
            "MB-n2000": bench["MB"], "EB-n2000": bench["EB"]}


def key_local_failures() -> list:
    """Each product kind where keys [k0, k0 + m) drawn alone differ from the
    same keys in their full batch, for an unaligned k0 and m in {1, 7, 100,
    1000}, or where the full batch differs from stream 1's slices: bit for
    bit on full old slices, by more than 4 ulps of a row's largest value on
    a short one."""
    failures = []
    B = montecarlo.BATCH
    for kind, sampler in _key_local_samplers().items():
        batch = np.concatenate(sampler.map_chunks(9, B, B, lambda d: d))
        for m in (1, 7, 100, 1000):
            k0 = B + 1001
            alone = np.concatenate(sampler.map_chunks(9, k0, m, lambda d: d))
            if alone.tobytes() != batch[k0 - B:k0 - B + m].tobytes():
                failures.append(f"{kind}: keys [{k0}, {k0 + m}) alone")
        old = _old_slices(sampler, 9, B, B)
        full = B // (OLD_TILE // sampler.size) * (OLD_TILE // sampler.size)
        if old[:full].tobytes() != batch[:full].tobytes():
            failures.append(f"{kind}: full old slices")
        ulp = np.spacing(np.max(np.abs(old[full:]), axis=1, keepdims=True))
        if np.any(np.abs(batch[full:] - old[full:]) > 4 * ulp):
            failures.append(f"{kind}: short old slice")
    return failures


@pytest.mark.parametrize("threads", ["1", "2"])
def test_product_draws_are_key_local(threads):
    # a draw depends on its key alone, at a pinned BLAS thread count: run in a
    # child interpreter, whatever the calling process pinned
    proc = run_child([os.path.abspath(__file__)], threads, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("p, calls, design", [(200, 41, False), (1000, 9, False), (1000, 9, True)],
                         ids=["200-41", "1000-9", "design-1000-9"])
def test_ar1_chunks_line_up_with_its_blocks(monkeypatch, p, calls, design):
    # a row-local chunk is a whole number of block_rows = p rows while
    # DRAW_BUDGET // p holds one: at p = 1000 a batch takes 9 recursions of
    # 1000 rows, where chunks of 1048 rows took 15 (42 at p = 200); design
    # rows draw through the same factor, so they are cut the same way
    model = CovarianceModel("ar1", 0.3)
    sampler = (DesignSumSampler(DesignSpec(kind="gaussian", p=p, covariance=model), 12)
               if design else GaussianSumSampler(model.factor(p)))
    apply = AR1Factor.apply
    seen = []

    def counting(factor, z, **kwargs):
        seen.append(len(z))
        return apply(factor, z, **kwargs)

    monkeypatch.setattr(AR1Factor, "apply", counting)
    assert sum(sampler.map_chunks(9, 0, montecarlo.BATCH, len)) == montecarlo.BATCH
    assert len(seen) == calls and max(seen) == p


@pytest.mark.parametrize("kind", sorted(_slicing_samplers()))
def test_draw_blocks_leave_draws_unchanged(monkeypatch, kind):
    # the elementwise stages run in blocks of rng.BLOCK elements; tiny
    # blocks and one block give the same bits
    sampler = _slicing_samplers()[kind]
    keys = rng.mix64_array(9, np.arange(3, 103, dtype=np.uint64))
    word_grid = rng.word_grid
    rows = []

    def counting(keys, count, **kwargs):
        rows.append(len(keys))
        return word_grid(keys, count, **kwargs)

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


if __name__ == "__main__":
    print(json.dumps(key_local_failures()))
