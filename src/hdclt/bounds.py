"""Moment functionals and closed-form rate quantities for the sum statistics.

The rate formulas are templates with explicit multiplicative constants K1,
K2 (default 1): the guarantees behind them only assert existence of
constants depending on the variance floor, so reports always surface the
constants used rather than pretending to a certified envelope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .datagen import Dataset, DesignSpec, population_moments, values_from_row_keys
from .errors import ParameterError
from .montecarlo import GaussianSumSampler, MultiplierSampler, _batches
from .sums import CovMatrix, ModelCovariance

MOMENT_R = 10_000  # default replications of the Monte Carlo tail moments


def _check_q_alpha(q: float | None, alpha: float | None, prefix: str = "") -> None:
    if q is not None and not (q > 2.0):
        raise ParameterError(f"{prefix}q must exceed 2, got {q!r}")
    if alpha is not None and not (0.0 < alpha < 1.0 / math.e):
        raise ParameterError(f"{prefix}alpha must lie in (0, 1/e), got {alpha!r}")


@dataclass(frozen=True)
class BoundParams:
    """Constants entering the rate formulas.

    ``alpha`` is a confidence level and must lie in (0, 1/e); ``q`` is a
    polynomial moment order above 2.
    """

    b: float
    B_n: float
    K1: float = 1.0
    K2: float = 1.0
    q: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        for name in ("b", "B_n", "K1", "K2"):
            v = getattr(self, name)
            if not (v > 0.0) or not math.isfinite(v):
                raise ParameterError(f"params.{name} must be positive, got {v!r}")
        _check_q_alpha(self.q, self.alpha, "params.")


@dataclass(frozen=True)
class MomentEstimate:
    """A Monte Carlo moment with its standard error and replication count."""

    value: float
    se: float
    R: int


@dataclass(frozen=True)
class BoundReport:
    """Every rate quantity of one dataset or design, with the constants used."""

    provenance: str  # "population" | "empirical"
    params: BoundParams
    n: int
    p: int
    L_n: float
    M_x: float
    M_y: float
    M_y_se: float
    phi_n: float
    phi_used: float
    main_bound: float
    D1: float | None = None
    D2q: float | None = None
    D1_alpha: float | None = None
    D2q_alpha: float | None = None
    delta_nr: float | None = None
    moment_R: int = 0


def max_third_moment(dataset: Dataset) -> float:
    """Largest per-coordinate mean cubed absolute deviation from the column mean."""
    return float(np.max(np.mean(np.abs(dataset.centered)**3, axis=0)))


def truncation_threshold(phi: float, n: int, p: int) -> float:
    """Row-maximum cutoff sqrt(n) / (4 phi log p) of the tail moments."""
    if not (phi >= 1.0):
        raise ParameterError(f"phi must be at least 1, got {phi!r}")
    if p < 3:
        raise ParameterError(f"tail moments need p >= 3, got {p}")
    return math.sqrt(n) / (4.0 * phi * math.log(p))


def _tail_cubes(rows: np.ndarray, tau: float) -> np.ndarray:
    # each row's cubed max-abs coordinate, zero where it does not exceed tau
    g = np.max(np.abs(rows), axis=1)
    return np.where(g > tau, g**3, 0.0)


def tail_third_moment(dataset: Dataset, phi: float) -> float:
    """Mean over rows of the cubed centered row maximum, kept above the cutoff."""
    tau = truncation_threshold(phi, dataset.n, dataset.p)
    return float(np.mean(_tail_cubes(dataset.centered, tau)))


def _tail_moment(sampler, tau: float, R: int, seed: int) -> MomentEstimate:
    # batch by batch over the fixed grid of montecarlo: each chunk of draws
    # becomes its cubes before the next chunk is made, and a batch's cubes
    # are summed as one array, in row order; replication r uses the key
    # mix64(seed, r)
    if R < 1:
        raise ParameterError(f"need at least one replication, got {R!r}")
    total = total_sq = 0.0
    for start, count in _batches(R):
        cubes = np.concatenate(sampler.map_chunks(seed, start, count,
                                                  lambda draws: _tail_cubes(draws, tau)))
        total += float(cubes.sum())
        total_sq += float((cubes**2).sum())
    mean = total / R
    se = 0.0
    if R > 1:
        se = math.sqrt(max(0.0, (total_sq - R * mean * mean) / (R - 1)) / R)
    return MomentEstimate(value=mean, se=se, R=R)


def tail_third_moment_bootstrap(dataset: Dataset, phi: float, R: int,
                                seed: int) -> MomentEstimate:
    """Monte Carlo tail third moment of the multiplier-bootstrap maximum.

    Averages the cubed draw maximum above the cutoff over R multiplier
    draws of the given dataset; replication r uses substream mix64(seed, r).
    """
    tau = truncation_threshold(phi, dataset.n, dataset.p)
    return _tail_moment(MultiplierSampler(dataset), tau, R, seed)


def tail_third_moment_gaussian(sigma: ModelCovariance | CovMatrix, n: int, phi: float,
                               R: int, seed: int) -> MomentEstimate:
    """Monte Carlo tail third moment of the N(0, sigma) coordinate maximum."""
    tau = truncation_threshold(phi, n, sigma.p)
    return _tail_moment(GaussianSumSampler(sigma.factor), tau, R, seed)


def _check_rate_args(p: int, n: int) -> None:
    if p < 3:
        raise ParameterError(f"rate formulas need p >= 3, got {p}")
    if n < 4:
        raise ParameterError(f"rate formulas need n >= 4, got {n}")


def smoothing_parameter(L_bar: float, p: int, n: int, K2: float = 1.0) -> float:
    """K2 * (L^2 log^4(p) / n)^(-1/6): the inverse-bandwidth of the smoothing."""
    _check_rate_args(p, n)
    if not (L_bar > 0.0):
        raise ParameterError(f"third-moment scale must be positive, got {L_bar!r}")
    return K2 * (L_bar**2 * math.log(p) ** 4 / n) ** (-1.0 / 6.0)


def gaussian_approx_bound(L_bar: float, M_n: float, p: int, n: int,
                          K1: float = 1.0) -> float:
    """K1 * [ (L^2 log^7(p) / n)^(1/6) + M_n / L ]."""
    _check_rate_args(p, n)
    if not (L_bar > 0.0):
        raise ParameterError(f"third-moment scale must be positive, got {L_bar!r}")
    if M_n < 0.0:
        raise ParameterError(f"tail moment must be nonnegative, got {M_n!r}")
    return K1 * ((L_bar**2 * math.log(p) ** 7 / n) ** (1.0 / 6.0) + M_n / L_bar)


def rate_terms(B_n: float, p: int, n: int, q: float | None = None,
               alpha: float | None = None) -> dict:
    """The four moment-condition rate terms, keyed D1, D2q, D1_alpha, D2q_alpha.

    D2q needs q; the alpha variants need alpha (D2q_alpha needs both).
    Absent inputs simply omit the corresponding keys.
    """
    _check_rate_args(p, n)
    if not (B_n > 0.0):
        raise ParameterError(f"B_n must be positive, got {B_n!r}")
    _check_q_alpha(q, alpha)
    lpn = math.log(p * n)
    out = {"D1": (B_n**2 * lpn**7 / n) ** (1.0 / 6.0)}
    if q is not None:
        out["D2q"] = (B_n**2 * lpn**3 / n ** (1.0 - 2.0 / q)) ** (1.0 / 3.0)
    if alpha is not None:
        out["D1_alpha"] = (
            B_n**2 * lpn**5 * math.log(1.0 / alpha) ** 2 / n
        ) ** (1.0 / 6.0)
        if q is not None:
            out["D2q_alpha"] = (
                B_n**2 * lpn**3 / (alpha ** (2.0 / q) * n ** (1.0 - 2.0 / q))
            ) ** (1.0 / 3.0)
    return out


def max_covariance_gap(sigma_hat: CovMatrix,
                       sigma: ModelCovariance | CovMatrix) -> float:
    """Largest entrywise absolute difference of two covariance matrices."""
    if sigma_hat.p != sigma.p:
        raise ParameterError(
            f"covariance dimensions differ: {sigma_hat.p} vs {sigma.p}"
        )
    return float(np.max(np.abs(sigma_hat.matrix - sigma.matrix)))


def orlicz_norm(samples, alpha: float) -> float:
    """Plug-in exponential-moment norm: the smallest scale at which the
    empirical mean of exp((|x|/scale)^alpha) drops to 2.

    Bisection to 1e-9 relative tolerance; all-zero samples give 0.
    """
    if not (alpha > 0.0):
        raise ParameterError(f"alpha must be positive, got {alpha!r}")
    x = np.abs(np.asarray(samples, dtype=np.float64).ravel())
    if x.size == 0:
        raise ParameterError("need at least one sample")
    top = float(np.max(x))
    if top == 0.0:
        return 0.0

    def feasible(lam: float) -> bool:
        with np.errstate(over="ignore"):
            return float(np.mean(np.exp((x / lam) ** alpha))) <= 2.0

    hi = top / math.log(2.0) ** (1.0 / alpha)  # always feasible
    lo = hi
    while feasible(lo):
        lo /= 2.0
        if lo < 1e-300:
            return 0.0
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _phi_pair(L_bar: float, p: int, n: int, K2: float) -> tuple[float, float]:
    # the tail moments are defined for phi >= 1; below that the bound is
    # vacuous, so they are evaluated at 1 while phi_n is reported as computed
    phi = smoothing_parameter(L_bar, p, n, K2)
    return phi, max(1.0, phi)


def _report(provenance: str, params: BoundParams, n: int, p: int, L: float,
            phi: tuple[float, float], m_x: float, m_y: MomentEstimate,
            delta_nr: float | None = None) -> BoundReport:
    return BoundReport(
        provenance=provenance, params=params, n=n, p=p, L_n=L,
        M_x=m_x, M_y=m_y.value, M_y_se=m_y.se, phi_n=phi[0], phi_used=phi[1],
        main_bound=gaussian_approx_bound(L, m_x + m_y.value, p, n, params.K1),
        delta_nr=delta_nr, moment_R=m_y.R,
        **rate_terms(params.B_n, p, n, params.q, params.alpha),
    )


def report_from_dataset(dataset: Dataset, params: BoundParams,
                        moment_R: int = MOMENT_R, seed: int = 0,
                        sigma: ModelCovariance | CovMatrix | None = None) -> BoundReport:
    """Empirical-analog report: centered moments of one observed matrix."""
    n, p = dataset.n, dataset.p
    L = max_third_moment(dataset)
    phi = _phi_pair(L, p, n, params.K2)
    m_x = tail_third_moment(dataset, phi[1])
    m_y = tail_third_moment_bootstrap(dataset, phi[1], moment_R,
                                      rng.mix64(seed, rng.TAG_SECOND))
    delta = None if sigma is None else max_covariance_gap(dataset.covariance, sigma)
    return _report("empirical", params, n, p, L, phi, m_x, m_y, delta)


def _population_tail_x(design: DesignSpec, tau: float, R: int, seed: int) -> float:
    # row r is the design row of key mix64(seed, r), made and reduced one
    # block at a time; the cubes are summed once, in row order
    cubes = rng.blocked(lambda k: _tail_cubes(values_from_row_keys(design, k), tau),
                        rng.words(seed, max(2, R)), design.p)
    return float(np.mean(cubes))


def report_from_design(design: DesignSpec, n: int,
                       params: BoundParams | None = None,
                       moment_R: int = MOMENT_R, seed: int = 0) -> BoundReport:
    """Population report from a design's analytic moments.

    The gaussian-side tail moment is always Monte Carlo; the data-side one
    is analytic zero for bounded designs below the cutoff and Monte Carlo
    over fresh rows otherwise.
    """
    moments = population_moments(design)
    params = params or BoundParams(b=moments.b_lower, B_n=moments.B_n)
    p = design.p
    L = moments.L_n_population
    phi = _phi_pair(L, p, n, params.K2)
    tau = truncation_threshold(phi[1], n, p)
    if moments.bound is not None and moments.bound <= tau:
        m_x = 0.0  # bounded designs are exactly zero once the cutoff clears the bound
    else:
        m_x = _population_tail_x(design, tau, moment_R, rng.mix64(seed, rng.TAG_FIRST))
    m_y = tail_third_moment_gaussian(moments.sigma, n, phi[1], moment_R,
                                     rng.mix64(seed, rng.TAG_SECOND))
    return _report("population", params, n, p, L, phi, m_x, m_y)
