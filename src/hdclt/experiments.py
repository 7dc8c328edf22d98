"""Study drivers: rate scans, the anti-concentration check and the smooth-max
sandwich check."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import rng
from .bounds import (
    MOMENT_R,
    BoundParams,
    _check_moment_R,
    _phi_pair,
    default_params,
    gaussian_approx_bound,
    rate_terms,
    tail_third_moment_gaussian,
)
from .datagen import DesignSpec, population_moments
from .errors import MAX_SIZE, ParameterError, Size, config_value
from .geometry import sample_rectangles
from .montecarlo import (
    DRAW_BUDGET,
    GaussianSumSampler,
    _check_gap_args,
    _map_batches,
    gaussian_approx_gap,
)
from .sums import CovMatrix, ModelCovariance


# ---------------------------------------------------------------------------
# rate scan
# ---------------------------------------------------------------------------

def dimension_rule(rule: dict, n: int) -> int:
    """Resolve the dimension for a sample size under a scan rule.

    Rules: {"rule": "fixed", "p": P}; {"rule": "power", "c": C, "coef": A}
    giving p = round(A * n^C); {"rule": "exp_power", "c": C, "coef": A}
    giving p = round(exp(A * n^C)).  Dimensions are floored at 3.
    """
    kind = config_value(rule, "rule", str)
    if kind == "fixed":
        return max(3, config_value(rule, "p", Size))
    coef, c = config_value(rule, "coef", float, 1.0), config_value(rule, "c", float)
    if kind not in ("power", "exp_power"):
        raise ParameterError(f"unknown dimension rule {kind!r}")
    try:
        a_nc = coef * n ** c
        p = max(3, round(a_nc if kind == "power" else math.exp(a_nc)))
    except (OverflowError, ValueError) as exc:  # p infinite or NaN
        raise ParameterError(f"dimension rule {kind!r} gives no dimension at n={n}: {exc}") from exc
    if p > MAX_SIZE:
        raise ParameterError(f"dimension rule {kind!r} gives p={p} above {MAX_SIZE} at n={n}")
    return p


@dataclass(frozen=True)
class ScanSpec:
    """A grid of (n, p) cells: the design template is re-dimensioned per cell.

    ``design`` is a design config without the 'p' entry (it is supplied by
    the rule).  ``family_K`` rectangles, ``R`` >= 1000 gap replications and
    ``moment_R`` >= 2 replications of the bound's tail moment per cell.  All
    of these and every cell's design are checked when the spec is made.
    """

    design: dict
    n_grid: tuple
    p_rule: dict
    family_K: int
    R: int
    seed: int
    params: BoundParams | None = None
    moment_R: int = MOMENT_R
    exact_law: bool = True

    def __post_init__(self):
        ns = tuple(int(n) for n in self.n_grid)
        if len(ns) < 1:
            raise ParameterError("n_grid must be nonempty")
        if list(ns) != sorted(set(ns)):
            raise ParameterError("n_grid must be strictly increasing")
        if ns[0] < 4:
            raise ParameterError(f"every n must be at least 4, got {ns[0]}")
        if self.family_K < 1:
            raise ParameterError(f"family_K must be positive, got {self.family_K!r}")
        if "p" in self.design:
            raise ParameterError("rate-scan design must omit 'p'; the p_rule supplies it")
        _check_gap_args(self.R)
        _check_moment_R(self.moment_R)
        object.__setattr__(self, "n_grid", ns)
        self.designs  # every cell's dimension and design, before any cell runs

    @functools.cached_property
    def designs(self) -> tuple[DesignSpec, ...]:
        """Each cell's design; not a field, so the report holds the spec's inputs alone."""
        return tuple(DesignSpec.from_config(self.design, p=dimension_rule(self.p_rule, n))
                     for n in self.n_grid)


@dataclass(frozen=True)
class ScanRow:
    n: int
    p: int
    rho_hat: float
    noise_floor: float
    D1: float
    main_bound: float
    censored: bool


@dataclass(frozen=True)
class ScanResult:
    """Scan rows plus the log-log decay slope over uncensored rows.

    Rows whose estimate sits at or below the noise floor are censored out
    of the fit rather than biasing the slope toward zero.  ``slope_logp``
    is reported when the dimension varies across the grid (slope of the
    log estimate against log log p), without asserting any exponent.
    """

    rows: tuple
    slope: float | None
    slope_se: float | None
    slope_logp: float | None
    spec: ScanSpec


def _ls_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float | None]:
    xc = x - x.mean()
    slope = float((xc * (y - y.mean())).sum() / (xc * xc).sum())
    if len(x) >= 3:
        resid = y - y.mean() - slope * xc
        dof = len(x) - 2
        se = math.sqrt(float((resid * resid).sum()) / dof / float((xc * xc).sum()))
    else:
        se = None
    return slope, se


def rate_scan(spec: ScanSpec, workers: int | None = None) -> ScanResult:
    """Estimate the discrepancy at every (n, p) cell and fit its decay."""
    rows = []
    for idx, (n, design) in enumerate(zip(spec.n_grid, spec.designs)):
        p = design.p
        moments = population_moments(design)
        cell_seed = rng.mix64(rng.mix64(spec.seed, rng.TAG_CELL), idx)
        sd = np.sqrt(moments.sigma.diag())
        # family seed depends on p only: equal-dimension cells share one
        # family, so decay across n is measured on the same sets
        family_seed = rng.mix64(rng.mix64(spec.seed, rng.TAG_FAMILY), p)
        family = sample_rectangles(p, spec.family_K, sd, family_seed)
        gap = gaussian_approx_gap(design, n, moments.sigma, family, spec.R,
                                  cell_seed, workers, spec.exact_law)
        params = spec.params or default_params(moments)
        L = moments.L_n_population
        phi_used = _phi_pair(L, p, n, params.K2)[1]
        m_y = tail_third_moment_gaussian(moments.sigma, n, phi_used, spec.moment_R,
                                         rng.mix64(cell_seed, rng.TAG_MOMENT))
        main = gaussian_approx_bound(L, m_y.value, p, n, params.K1)
        rows.append(ScanRow(
            n=n, p=p, rho_hat=gap.sup_diff, noise_floor=gap.noise_floor,
            D1=rate_terms(params.B_n, p, n)["D1"], main_bound=main,
            censored=gap.sup_diff <= gap.noise_floor,
        ))

    kept = [r for r in rows if not r.censored]
    slope = slope_se = slope_logp = None
    if len(kept) >= 2:
        x = np.log([r.n for r in kept])
        y = np.log([r.rho_hat for r in kept])
        slope, slope_se = _ls_slope(x, y)
        logp = np.log([math.log(r.p) for r in kept])
        if float(np.ptp(logp)) > 1e-12:
            slope_logp, _ = _ls_slope(logp, y)
    return ScanResult(rows=tuple(rows), slope=slope, slope_se=slope_se,
                      slope_logp=slope_logp, spec=spec)


# ---------------------------------------------------------------------------
# anti-concentration check (Nazarov's inequality)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NazarovRow:
    p: int
    a: float
    y_label: str
    diff_hat: float
    se: float
    ratio: float


@dataclass(frozen=True)
class NazarovResult:
    rows: tuple
    max_ratio: float
    R: int
    seed: int


def _row_max(draws: np.ndarray) -> np.ndarray:
    return np.max(draws, axis=1)


def _anchor_counts(maxima: np.ndarray, anchors: np.ndarray, offsets: list) -> np.ndarray:
    """Per anchor y and offset a, the draws whose coordinate maximum is at most y + a.

    The anchors are taken in slices whose gap array holds at most a quarter
    of ``DRAW_BUDGET`` values, whatever ``y_count``; each anchor is counted
    on its own, so the slicing changes no count.
    """
    per = max(1, DRAW_BUDGET // 4 // max(1, len(maxima)))
    counts = np.empty((len(anchors), len(offsets)), dtype=np.intp)
    for k in range(0, len(anchors), per):
        # rounding is monotone: fl(max_j w_j - y) == max_j fl(w_j - y) bit for bit;
        # one row per anchor, so each count runs along contiguous memory
        gaps = maxima - anchors[k:k + per, None]
        for j, a in enumerate(offsets):
            counts[k:k + per, j] = np.count_nonzero(gaps <= a, axis=1)
        del gaps  # one slice's gaps alive at a time, not two
    return counts


def nazarov_check(sigma: ModelCovariance | CovMatrix, y_count: int, a_grid, R: int,
                  seed: int, workers: int | None = None) -> NazarovResult:
    """Orthant-increment check P(Y <= y + a) - P(Y <= y) against a*sqrt(log p).

    Anchors are coordinatewise equal levels y = Phi^{-1}(u) * sd for u on an
    even grid, covering the center and both tails, so every coordinate must
    have the variance sd^2 (as every model covariance does).  The two
    orthant probabilities are estimated from the same draws, so each
    increment is the fraction of draws in the slab and is nonnegative by
    construction; the laws on the two sides coincide, which is what makes
    the pairing variance-safe here.
    """
    p = sigma.p
    if p < 3:
        raise ParameterError(f"anti-concentration check needs p >= 3, got {p}")
    if y_count < 1:
        raise ParameterError(f"need y_count >= 1 anchor points, got {y_count!r}")
    a_grid = [float(a) for a in a_grid]
    if not a_grid or any(a < 0 for a in a_grid):
        raise ParameterError("offsets must be nonnegative")
    if y_count * (1 + len(a_grid)) > DRAW_BUDGET:  # the levels, counts and rows it makes
        raise ParameterError(f"y_count={y_count} gives {y_count * (1 + len(a_grid))} "
                             f"anchor counts, above {DRAW_BUDGET}")
    _check_gap_args(R)
    diag = sigma.diag()
    if not (diag[0] > 0.0 and np.all(diag == diag[0])):
        raise ParameterError("anchor levels need equal positive coordinate variances")

    sd = math.sqrt(diag[0])
    levels = [(k + 1) / (y_count + 1) for k in range(y_count)]
    anchors = np.array([float(ndtri(u)) * sd for u in levels])
    sampler = GaussianSumSampler(sigma.factor)
    anchor_counts = functools.partial(_anchor_counts, anchors=anchors, offsets=[0.0] + a_grid)

    def work(start: int, count: int) -> np.ndarray:
        # each draw's coordinate maximum is taken as the draw is made
        return np.sum(sampler.map_chunks(seed, start, count, anchor_counts, then=_row_max),
                      axis=0)

    counts = np.sum(_map_batches(work, R, workers), axis=0)

    rows = []
    max_ratio = 0.0
    root_logp = math.sqrt(math.log(p))
    for k, u in enumerate(levels):
        base = counts[k, 0] / R
        for j, a in enumerate(a_grid):
            d = counts[k, j + 1] / R - base
            se = math.sqrt(max(d * (1.0 - d), 0.0) / R)
            ratio = d / (a * root_logp) if a > 0 else 0.0
            max_ratio = max(max_ratio, ratio)
            rows.append(NazarovRow(p=p, a=a, y_label=f"u={u:.6g}",
                                   diff_hat=d, se=se, ratio=ratio))
    return NazarovResult(rows=tuple(rows), max_ratio=max_ratio, R=R, seed=seed)


# ---------------------------------------------------------------------------
# smooth-max sandwich check
# ---------------------------------------------------------------------------

def smoothmax_gap(diffs: np.ndarray, beta: float) -> np.ndarray:
    """F_beta(w) - max_j(w_j - y_j) for rows of differences w - y.

    Max-shifted evaluation: the shifted exponentials are all at most 1, so
    the sum never overflows and the gap is exactly log(sum)/beta >= 0.
    """
    m = diffs.max(axis=-1, keepdims=True)
    return np.log(np.exp(beta * (diffs - m)).sum(axis=-1)) / beta


def smoothmax_check(beta_grid, p_grid, trials: int, seed: int) -> float:
    """Largest violation of 0 <= F_beta - max <= log(p)/beta over random and
    adversarial inputs; a correct implementation stays below 1e-12.

    Random rows are uniform in [-50, 50]; the adversarial rows are the
    all-equal pattern (saturates the upper bound), a one-dominant pattern
    (saturates the lower), and an alternating +-50 pattern.
    """
    beta_grid = [float(b) for b in beta_grid]
    p_grid = [int(p) for p in p_grid]
    if not beta_grid or any(b <= 0 for b in beta_grid):
        raise ParameterError("beta grid must hold positive values")
    if not p_grid or any(p < 1 for p in p_grid):
        raise ParameterError("p grid must hold positive dimensions")
    if len(p_grid) > 1000:  # cell (bi, pi) is keyed by bi * 1000 + pi
        raise ParameterError("p grid must hold at most 1000 dimensions")
    if trials < 1:
        raise ParameterError(f"need trials >= 1, got {trials!r}")

    worst = -math.inf
    for bi, beta in enumerate(beta_grid):
        for pi, p in enumerate(p_grid):
            key = rng.mix64(seed, bi * 1000 + pi)
            keys = rng.words(key, trials)

            def random_gaps(k: np.ndarray) -> np.ndarray:
                return smoothmax_gap(100.0 * rng.to_uniform(rng.word_grid(k, p)) - 50.0,
                                     beta)

            adversarial = np.zeros((4, p))
            adversarial[1, 1:] = -100.0          # one dominant coordinate
            adversarial[2, :] = 50.0             # all equal, positive
            adversarial[3, ::2] = 50.0
            adversarial[3, 1::2] = -50.0         # alternating
            gap = np.concatenate([rng.blocked(random_gaps, keys, p),
                                  smoothmax_gap(adversarial, beta)])
            upper = math.log(p) / beta
            worst = max(worst, float(np.max(-gap)), float(np.max(gap - upper)))
    return worst
