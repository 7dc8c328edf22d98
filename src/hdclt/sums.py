"""Normalized sums, exact gaussian analogs and the two bootstrap draws.

The gaussian analog of an averaged independent sum is drawn in a single
shot from the average covariance: a normalized sum of independent centered
gaussians with average covariance S has exactly the law N(0, S), so one
factored draw is exact in law and costs O(p^2) per replication instead of
O(n p).  The multiplier and empirical bootstrap draws are computed from
their defining weighted sums.

Each draw kernel maps an array of replication keys to one draw per key;
the samplers of :mod:`hdclt.montecarlo` derive the keys.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .datagen import Dataset
from .errors import NotPositiveSemidefiniteError, ParameterError


@dataclass(frozen=True)
class CovMatrix:
    """A symmetric covariance matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ParameterError(f"covariance must be square, got shape {m.shape}")
        scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
        if float(np.max(np.abs(m - m.T))) > 1e-12 * scale:
            raise ParameterError("covariance must be symmetric within 1e-12")
        if float(np.min(np.diag(m))) < -1e-12 * scale:
            raise ParameterError("covariance diagonal must be nonnegative")
        object.__setattr__(self, "matrix", (m + m.T) / 2.0)

    @property
    def p(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def factor(self) -> CholFactor:
        """``robust_cholesky(self)``, computed once per matrix."""
        return robust_cholesky(self)


@dataclass(frozen=True)
class CholFactor:
    """Lower-triangular factor of a covariance, with the jitter that was needed."""

    L: np.ndarray
    jitter_used: float = 0.0

    @property
    def p(self) -> int:
        return self.L.shape[0]


def normalized_sum(dataset: Dataset) -> np.ndarray:
    """Column sums scaled by n^{-1/2}."""
    return dataset.values.sum(axis=0) / math.sqrt(dataset.n)


def empirical_covariance(dataset: Dataset) -> CovMatrix:
    """Centered second-moment matrix with divisor n (not n-1)."""
    centered = dataset.centered
    return CovMatrix(centered.T @ centered / dataset.n)


BASE_JITTER = 1e-10


def robust_cholesky(cov: CovMatrix) -> CholFactor:
    """Cholesky factor, escalating diagonal jitter BASE_JITTER * 2^k, k = 0..20.

    The first attempt uses no jitter, so well-conditioned inputs report
    ``jitter_used == 0``.  Raises after 21 failed jittered attempts.
    """
    a = cov.matrix
    jitters = [0.0] + [BASE_JITTER * 2.0**k for k in range(21)]
    eye = np.eye(cov.p)
    for jit in jitters:
        try:
            L = np.linalg.cholesky(a + jit * eye)
            return CholFactor(L=L, jitter_used=jit)
        except np.linalg.LinAlgError:
            continue
    raise NotPositiveSemidefiniteError(
        f"matrix not positive semidefinite after jitter up to {jitters[-1]:g}"
    )


def _normals(keys: np.ndarray, count: int) -> np.ndarray:
    """Words 0..count-1 of each key's stream as standard normals, made in
    cache-sized blocks; the matrix product that follows runs on the whole
    array."""
    return rng.blocked(lambda block: rng.to_normal(rng.word_grid(block, count)),
                       keys, count)


def gaussian_draw_batch(chol: CholFactor, keys: np.ndarray) -> np.ndarray:
    """One N(0, L L') draw per replication key; word t of a key's stream
    feeds coordinate t."""
    return _normals(keys, chol.p) @ chol.L.T


def multiplier_draw_batch(dataset: Dataset, keys: np.ndarray) -> np.ndarray:
    """n^{-1/2} sum of centered rows weighted by independent standard normals,
    one draw per replication key (word i of a key's stream weights row i).

    Conditional on the data each draw is exactly gaussian with the empirical
    covariance.
    """
    return _normals(keys, dataset.n) @ dataset.centered / math.sqrt(dataset.n)


def empirical_resample_draw_batch(dataset: Dataset, keys: np.ndarray) -> np.ndarray:
    """n^{-1/2} sum of n rows resampled with replacement, centered at the
    mean, one draw per replication key (word i of a key's stream picks the
    i-th resampled row).

    Each resampled multiset is summed through its row-count vector, which
    gives the same row totals as materializing the resample up to float
    summation order.
    """
    n = dataset.n

    def row_counts(block: np.ndarray) -> np.ndarray:
        idx = (rng.to_uniform(rng.word_grid(block, n)) * n).astype(np.int64)
        np.minimum(idx, n - 1, out=idx)
        idx += (np.arange(len(block), dtype=np.int64) * n)[:, None]
        counts = np.bincount(idx.ravel(), minlength=len(block) * n)
        return counts.reshape(len(block), n).astype(np.float64)

    totals = rng.blocked(row_counts, keys, n) @ dataset.values
    mean = dataset.values.mean(axis=0)
    return (totals - n * mean) / math.sqrt(n)
