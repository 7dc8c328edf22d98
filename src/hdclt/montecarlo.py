"""Hitting probabilities and sup-discrepancies over finite set families.

Estimation layout
-----------------
Replications are processed in fixed-size batches; replication ``r`` of a
side with stream seed ``s`` derives its randomness from ``mix64(s, r)``, so
any assignment of batches to worker threads produces bit-identical counts.
Hits are accumulated as integers, which makes the reduction order
irrelevant.  The two compared sides always use independent streams
(``rng.TAG_FIRST`` and ``rng.TAG_SECOND`` of the caller's seed): no
common-random-number coupling is applied, since the compared laws differ.

The reported ``noise_floor`` is the frozen approximation
``4.5 * sqrt(0.5 / R) * sqrt(log(K) + 1)`` of the 99.9% quantile of the
sup over K sets of two-sample binomial noise when the compared laws
coincide; estimated discrepancies below the floor are indistinguishable
from zero.

A finite family can only witness a lower bound of a sup over an infinite
class, so every estimate records the family that produced it.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .datagen import Dataset, DesignSpec, values_from_row_keys
from .errors import ParameterError
from .geometry import Hyperrectangle, SetFamily, hit_counts
from .sums import (
    CovMatrix,
    ModelCovariance,
    empirical_resample_draw_batch,
    gaussian_draw_batch,
    multiplier_draw_batch,
)

BATCH = 1 << 13  # fixed batch size; must not depend on the worker count
# the version of the streams: which words make each draw and how a draw's
# product is tiled; every change that moves a draw bumps it
STREAM = 3
# values one matrix-product tile may hold: it fixes the tile shape of each
# product, so the bits of its draws; changing it changes the stream
TILE = 1 << 20
# draw values one chunk of any sampler holds; it changes no number
DRAW_BUDGET = 1 << 20


def noise_floor(R: int, K: int) -> float:
    """Frozen identical-law calibration bound for the sup over K sets."""
    return 4.5 * math.sqrt(0.5 / R) * math.sqrt(math.log(K) + 1.0)


def default_workers() -> int:
    """One worker per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

class _Sampler:
    """Base: replication r of stream ``seed`` uses the key ``mix64(seed, r)``.

    ``map_chunks`` is the one place that turns a batch ``(seed, start,
    count)`` into replication keys; ``draw_keys`` maps keys to one draw per
    key.  Each chunk of keys is drawn and then reduced by the caller's
    function before the next one is drawn, so memory per worker is bounded
    whatever n and p are.

    ``size`` is the element count of the largest array one draw
    materializes.  ``block_rows`` is None when a matrix product makes the
    draws.  A product sampler (a dense factor, the bootstrap weights) runs
    every product on a tile of T rows, T the largest power of two at most
    ``BATCH`` and ``TILE // size``: tile t holds replications [tT, (t+1)T)
    of every run, and the rows of keys not asked for are zero
    (``sums._tile_product``).  So its draws depend on their keys alone,
    whatever R, the batch start or the worker count, and the padding costs
    product flops on a run's last tile, never stream words.  Its
    ``draw_keys`` gets each chunk with the tile keywords: ``out``, one
    T x ``size`` buffer per batch, and ``start``.  A row-local sampler's
    kernels work in ``rng.BLOCK`` blocks, so its ``draw_keys`` gets each
    chunk whole.  A chunk is a whole number of units from the batch start,
    at most ``DRAW_BUDGET`` draw values when a unit fits, counting each of
    the ``branches`` draws of p values that one key holds at once; a unit
    is the tile, or ``block_rows`` keys (one key when those keys' draws
    exceed the budget).  So one worker holds one chunk plus, for a
    product sampler, the tile buffer; the budget changes no number.
    A row reducer ``then`` maps each chunk before ``fn`` does; a sampler
    whose ``fuses_then`` is set passes it to ``draw_keys``, which applies it
    as the draws are made (``sums.gaussian_draw_batch``), so its chunks
    hold one reduced value per key, not the draws.
    """

    p: int
    size: int
    block_rows = 1
    branches = 1
    fuses_then = False

    def map_chunks(self, seed: int, start: int, count: int, fn, then=None) -> list:
        """``[fn(draws), ...]`` over the chunks of a batch, in key order; with
        ``then``, ``[fn(then(draws)), ...]``."""
        keys = rng.mix64_array(seed, np.arange(start, start + count, dtype=np.uint64))
        if then is not None and not self.fuses_then:
            fn, then = (lambda draws, fn=fn, then=then: fn(then(draws))), None
        reduce = {} if then is None else {"then": then}
        if self.block_rows is None:  # a power of two divides BATCH: no tile spans two batches
            unit = 1 << (max(1, min(BATCH, TILE // self.size)).bit_length() - 1)
            tile = np.empty((unit, self.size))
            draw = lambda i, j: self.draw_keys(keys[i:j], out=tile, start=start + i, **reduce)
        else:
            fits = self.branches * self.block_rows * self.p <= DRAW_BUDGET
            unit = self.block_rows if fits else 1
            draw = lambda i, j: self.draw_keys(keys[i:j], **reduce)
        per = unit * max(1, DRAW_BUDGET // (self.branches * self.p * unit))
        # fn reduces each chunk inside the loop, so no two chunks are alive
        return [fn(draw(i, min(i + per, count))) for i in range(0, count, per)]

    def draw_keys(self, keys: np.ndarray, **tile) -> np.ndarray:
        """One draw per key; a product sampler passes the tile keywords
        ``out`` and ``start`` on to its kernel."""
        raise NotImplementedError


class GaussianSumSampler(_Sampler):
    """Exact N(0, F F') draws of a covariance factor F (``sums``)."""

    fuses_then = True

    def __init__(self, factor):
        self.factor = factor
        self.p = self.size = factor.p
        self.block_rows = factor.block_rows

    def draw_keys(self, keys: np.ndarray, then=None, **tile) -> np.ndarray:
        return gaussian_draw_batch(self.factor, keys, then=then, **tile)


class DesignSumSampler(_Sampler):
    """Replications of the normalized n-row sum of a design.

    The literal path draws a fresh dataset per replication (dataset seed
    ``mix64(seed, r)``, rows from its per-row substreams) and sums it.  Two
    designs admit an exact-in-law shortcut, on by default:

    * gaussian rows: the normalized sum is N(0, Sigma) for every n, so one
      row of the design is an exact draw;
    * independent sign rows: each coordinate of the sum is an independent
      (2*Binomial(n, 1/2) - n) / sqrt(n), drawn by binomial inversion
      against the exact CDF table.

    Shortcut draws consume different stream words than the literal path but
    have exactly the law of the sum statistic.
    """

    def __init__(self, design: DesignSpec, n: int, exact_law: bool = True):
        if n < 2:
            raise ParameterError(f"need n >= 2, got {n!r}")
        self.design = design
        self.n = n
        self.p = design.p
        self.mode = "literal"
        self.size = n * self.p  # one fresh (n, p) dataset per key
        if exact_law and design.gaussian:
            self.mode = "gaussian"
            self.size = self.p
            # a row is a draw of its model's factor
            self.block_rows = design.covariance.factor(self.p).block_rows
        elif exact_law and design.kind == "rademacher":
            from scipy.stats import binom  # deferred: slow to import, only sign sums use it

            self.mode = "binomial"
            self.size = self.p
            self._cdf = binom.cdf(np.arange(n + 1), n, 0.5)

    def draw_keys(self, keys: np.ndarray) -> np.ndarray:
        if self.mode == "gaussian":  # datagen makes gaussian rows in blocks
            return values_from_row_keys(self.design, keys)
        # a literal block holds 2 * BLOCK values: each numpy call releases
        # and retakes the GIL, so fewer, larger calls scale better on threads
        budget = 2 * rng.BLOCK if self.mode == "literal" else None
        return rng.blocked(self._draw_block, keys, self.size, budget)

    def _draw_block(self, keys: np.ndarray) -> np.ndarray:
        if self.mode == "binomial":
            u = rng.to_uniform(rng.word_grid(keys, self.p))
            heads = np.searchsorted(self._cdf, u, side="left")
            return (2.0 * heads - self.n) / math.sqrt(self.n)
        sums = values_from_row_keys(self.design, rng.word_grid(keys, self.n)).sum(axis=1)
        sums /= math.sqrt(self.n)
        return sums


class InterpolatedSampler(_Sampler):
    """sqrt(v) * (data sum) + sqrt(1 - v) * N(0, F F'), independent branches.

    Replication r derives ``s_r = mix64(seed, r)`` and feeds branch keys
    ``mix64(s_r, TAG_FIRST)`` (data) and ``mix64(s_r, TAG_SECOND)``
    (gaussian); at v = 1 or v = 0 the draw is exactly the corresponding
    branch.  A chunk holds both branches' draws at once.
    """

    branches = 2

    def __init__(self, design: DesignSpec, n: int, factor, v: float,
                 exact_law: bool = True):
        if not (0.0 <= v <= 1.0):
            raise ParameterError(f"interpolation weight must be in [0, 1], got {v!r}")
        if factor.p != design.p:
            raise ParameterError("factor dimension does not match design dimension")
        self.inner_x = DesignSumSampler(design, n, exact_law)
        self.inner_y = GaussianSumSampler(factor)
        self.v = v
        self.p = design.p
        self.size = self.inner_x.size + self.inner_y.size
        self.block_rows = self.inner_y.block_rows

    def draw_keys(self, keys: np.ndarray, **tile) -> np.ndarray:
        sx = self.inner_x.draw_keys(rng.mix64_keys(keys, rng.TAG_FIRST))
        sy = self.inner_y.draw_keys(rng.mix64_keys(keys, rng.TAG_SECOND), **tile)
        # sqrt(v) * sx + sqrt(1 - v) * sy in place: no temporary of a chunk's size
        sx *= math.sqrt(self.v)
        sx += np.multiply(sy, math.sqrt(1.0 - self.v), out=sy)
        return sx


class _DatasetSampler(_Sampler):
    block_rows = None  # a product: the weights or row counts times the data

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self.p = dataset.p
        # per key: one stream word per data row in, one draw of p values out
        self.size = max(dataset.n, dataset.p)


class MultiplierSampler(_DatasetSampler):
    """Multiplier-bootstrap draws of a fixed dataset."""

    def draw_keys(self, keys: np.ndarray, **tile) -> np.ndarray:
        return multiplier_draw_batch(self.dataset, keys, **tile)


class EmpiricalSampler(_DatasetSampler):
    """Empirical-bootstrap draws of a fixed dataset."""

    def draw_keys(self, keys: np.ndarray, **tile) -> np.ndarray:
        return empirical_resample_draw_batch(self.dataset, keys, **tile)


# ---------------------------------------------------------------------------
# estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbEstimate:
    """Hit fraction with its binomial standard error."""

    p_hat: float
    R: int
    se: float
    seed: int


@dataclass(frozen=True)
class GapRow:
    """One set of a family: the hit fractions of the two sides (``p_x`` the
    first, ``p_y`` the second) and their difference."""

    label: str
    p_x: float
    p_y: float
    diff: float
    se_diff: float


@dataclass(frozen=True)
class GapEstimate:
    """Sup over a family of |p_hat_first - p_hat_second| with per-set detail."""

    sup_diff: float
    argmax_set_label: str
    per_set: tuple  # tuple of GapRow, one per set of the family
    R: int
    noise_floor: float
    seed: int
    sides: tuple = ("first", "second")


@dataclass(frozen=True)
class InterpolationPoint:
    """The gap estimate at one interpolation weight."""

    v: float
    estimate: GapEstimate


@dataclass(frozen=True)
class InterpolationEstimate:
    """Max interpolation discrepancy over a weight grid and a family."""

    sup_diff: float
    noise_floor: float
    per_v: tuple  # tuple of InterpolationPoint, in grid order
    R: int
    seed: int


# ---------------------------------------------------------------------------
# estimation core
# ---------------------------------------------------------------------------

def _batches(R: int) -> list[tuple[int, int]]:
    return [(start, min(BATCH, R - start)) for start in range(0, R, BATCH)]


def _map_batches(work, R: int, workers: int | None) -> list:
    """Run ``work(start, count)`` over the fixed batch grid.

    Results come back indexed by batch so the reduction order never depends
    on scheduling.  At most one thread per CPU runs, whatever ``workers``
    asks, since each holds a chunk of draws and perhaps a tile buffer.
    """
    batches = _batches(R)
    w = min(workers or default_workers(), default_workers())
    if w <= 1 or len(batches) <= 1:
        return [work(s, c) for s, c in batches]
    with ThreadPoolExecutor(max_workers=w) as pool:
        return list(pool.map(lambda sc: work(*sc), batches))


def family_hit_counts(sampler, family: SetFamily, R: int, seed: int,
                      workers: int | None = None) -> np.ndarray:
    if sampler.p != family.p:
        raise ParameterError(
            f"sampler dimension {sampler.p} does not match family dimension {family.p}"
        )

    def work(start: int, count: int) -> np.ndarray:
        return np.sum(sampler.map_chunks(seed, start, count,
                                         lambda draws: hit_counts(family, draws)), axis=0)

    parts = _map_batches(work, R, workers)
    return np.sum(parts, axis=0)


def estimate_prob(sampler, set_, R: int, seed: int,
                  workers: int | None = None) -> ProbEstimate:
    """Fraction of R independent draws landing in one set."""
    if R < 100:
        raise ParameterError(f"need R >= 100 replications, got {R!r}")
    family = SetFamily((set_,), ("set",))
    count = int(family_hit_counts(sampler, family, R, seed, workers)[0])
    p_hat = count / R
    return ProbEstimate(p_hat=p_hat, R=R, se=math.sqrt(p_hat * (1.0 - p_hat) / R),
                        seed=seed)


def _gap(sampler_1, sampler_2, family: SetFamily, R: int, seed: int,
         sides: tuple, workers: int | None) -> GapEstimate:
    """Count both sides on independent streams (``mix64(seed, TAG_FIRST)``
    and ``mix64(seed, TAG_SECOND)``) and compare their hit fractions set by
    set."""
    seed_1, seed_2 = rng.mix64(seed, rng.TAG_FIRST), rng.mix64(seed, rng.TAG_SECOND)
    p1 = family_hit_counts(sampler_1, family, R, seed_1, workers) / R
    p2 = family_hit_counts(sampler_2, family, R, seed_2, workers) / R
    diff = np.abs(p1 - p2)
    se = np.sqrt(p1 * (1.0 - p1) / R + p2 * (1.0 - p2) / R)
    k = int(np.argmax(diff))
    rows = tuple(
        GapRow(label=family.labels[i], p_x=float(p1[i]), p_y=float(p2[i]),
               diff=float(diff[i]), se_diff=float(se[i]))
        for i in range(len(family))
    )
    return GapEstimate(
        sup_diff=float(diff[k]), argmax_set_label=family.labels[k], per_set=rows,
        R=R, noise_floor=noise_floor(R, len(family)), seed=seed, sides=sides,
    )


def _check_gap_args(R: int) -> None:
    if R < 1000:
        raise ParameterError(f"need R >= 1000 replications, got {R!r}")


def gaussian_approx_gap(design: DesignSpec, n: int,
                        sigma: ModelCovariance | CovMatrix, family: SetFamily,
                        R: int, seed: int, workers: int | None = None,
                        exact_law: bool = True) -> GapEstimate:
    """Sup over the family of |P(sum in A) - P(N(0, sigma) in A)|, estimated
    from R fresh-sum draws against R gaussian draws on independent streams."""
    _check_gap_args(R)
    return _gap(DesignSumSampler(design, n, exact_law),
                GaussianSumSampler(sigma.factor),
                family, R, seed, ("sum", "gaussian"), workers)


def bootstrap_gap(dataset: Dataset, sigma: ModelCovariance | CovMatrix,
                  family: SetFamily, R: int, seed: int, mode: str,
                  workers: int | None = None) -> GapEstimate:
    """Conditional bootstrap analog: bootstrap draws of a fixed dataset
    against N(0, sigma) draws.  ``mode`` is "MB" (multiplier) or "EB"
    (empirical)."""
    _check_gap_args(R)
    if mode not in ("MB", "EB"):
        raise ParameterError(f"mode must be 'MB' or 'EB', got {mode!r}")
    sampler_b = MultiplierSampler(dataset) if mode == "MB" else EmpiricalSampler(dataset)
    sides = ("multiplier" if mode == "MB" else "empirical", "gaussian")
    return _gap(sampler_b, GaussianSumSampler(sigma.factor),
                family, R, seed, sides, workers)


def _require_lower_orthants(family: SetFamily) -> None:
    for s in family.sets:
        if not isinstance(s, Hyperrectangle) or not np.all(np.isneginf(s.lower)):
            raise ParameterError(
                "interpolation discrepancies are defined over one-sided "
                "rectangles {w : w <= y}"
            )


def interpolation_gap(design: DesignSpec, n: int,
                      sigma: ModelCovariance | CovMatrix, family: SetFamily,
                      v_grid, R: int, seed: int, workers: int | None = None,
                      exact_law: bool = True) -> InterpolationEstimate:
    """Max over interpolation weights and one-sided sets of the discrepancy
    between the interpolated statistic and its gaussian endpoint.

    The noise floor uses the total number of compared cells (sets times
    grid points), since the max runs over all of them.
    """
    v_grid = [float(v) for v in v_grid]
    if not v_grid:
        raise ParameterError("v_grid must hold at least one interpolation weight")
    _check_gap_args(R)
    _require_lower_orthants(family)
    factor = sigma.factor
    per_v = []
    sup = 0.0
    for k, v in enumerate(v_grid):
        est = _gap(InterpolatedSampler(design, n, factor, v, exact_law),
                   GaussianSumSampler(factor), family, R, rng.mix64(seed, rng.TAG_GRID + k),
                   ("interpolated", "gaussian"), workers)
        per_v.append(InterpolationPoint(v=v, estimate=est))
        sup = max(sup, est.sup_diff)
    floor = noise_floor(R, len(family) * len(v_grid))
    return InterpolationEstimate(sup_diff=sup, noise_floor=floor,
                                 per_v=tuple(per_v), R=R, seed=seed)
