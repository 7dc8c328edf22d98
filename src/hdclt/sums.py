"""Normalized sums, exact gaussian analogs and the two bootstrap draws.

A normalized sum of independent centered gaussians with average covariance
S has exactly the law N(0, S), so its gaussian analog is one factored draw
``factor.apply(z)`` of p standard normals z.  That costs O(p^2) per
replication with the dense ``CholFactor`` of data and explicit covariance
matrices, and O(p) with the closed-form factors of the identity,
equicorrelated and AR(1) models, which never build a p x p array.
``gaussian_draw_batch`` is the one kernel that applies a factor: the
Gaussian side of every comparison and the rows of a gaussian design
(:mod:`hdclt.datagen`) are drawn through it.  The multiplier
and empirical bootstrap draws are computed from their defining weighted sums.

Each draw kernel maps an array of replication keys to one draw per key;
the samplers of :mod:`hdclt.montecarlo` derive the keys.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import rng
from .errors import NotPositiveSemidefiniteError, ParameterError

if TYPE_CHECKING:  # datagen builds its model factors from this module
    from .datagen import CovarianceModel, Dataset


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

    def diag(self) -> np.ndarray:
        return np.diag(self.matrix)

    @functools.cached_property
    def factor(self) -> CholFactor:
        """``robust_cholesky(self)``, computed once per matrix."""
        return robust_cholesky(self)


@dataclass(frozen=True)
class ModelCovariance:
    """``var * model.matrix(p)``, the covariance of a design.

    It answers ``factor`` in closed form and builds its dense ``matrix``
    only on demand, so no draw ever needs a p x p array.
    """

    model: CovarianceModel  # datagen's: kind, matrix(p), factor(p, scale)
    p: int
    var: float = 1.0

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return self.var * self.model.matrix(self.p)

    def diag(self) -> np.ndarray:
        # the diagonal entry as ``matrix`` rounds it: (1 - r) + r need not be 1
        return np.full(self.p, self.var * self.model.matrix(1)[0, 0])

    @functools.cached_property
    def factor(self):
        """The model's factor, computed once per covariance."""
        return self.model.factor(self.p, math.sqrt(self.var))


# A factor F of a covariance S = F F' maps rows z of standard normals to
# rows ``apply(z) = z @ F.T`` of N(0, S) draws; every kind reads the p
# values of a row in the same order, so one stream word feeds one coordinate.
# Every kind but ``CholFactor`` is row-local: it gives the same bits for any
# slicing of the rows, and ``gaussian_draw_batch`` applies it to each block
# of ``rng.BLOCK`` normals as it is made, in place, as ``apply(z, out=z)``
# (without ``out`` it makes a new array).  ``CholFactor``, a matrix product,
# is applied to fixed tiles of rows (``_tile_product``).

@dataclass(frozen=True)
class CholFactor:
    """Dense lower-triangular factor of a covariance, with the jitter that was
    needed."""

    L: np.ndarray
    jitter_used: float = 0.0

    @property
    def p(self) -> int:
        return self.L.shape[0]

    def apply(self, z: np.ndarray) -> np.ndarray:
        return z @ self.L.T


@dataclass(frozen=True)
class ScaledIdentityFactor:
    """The factor ``scale * I`` of ``scale**2 * I``."""

    p: int
    scale: float = 1.0

    def apply(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.multiply(z, self.scale, out=out)


@dataclass(frozen=True)
class EquicorrelatedFactor:
    """The symmetric square root ``a I + b 1 1'`` of ``scale**2 * ((1 - r) I
    + r 1 1')``, applied as ``a z + b (row sum of z)``; see ``of``."""

    p: int
    a: float
    b: float

    @staticmethod
    def of(p: int, r: float, scale: float = 1.0) -> "EquicorrelatedFactor":
        """a = scale sqrt(1 - r) and a + p b = scale sqrt(1 - r + p r), the roots
        of the eigenvalues; b is formed without that difference's cancellation."""
        root = math.sqrt(1.0 - r)
        b = scale * r / (math.sqrt(1.0 - r + p * r) + root)
        return EquicorrelatedFactor(p, scale * root, b)

    def apply(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # numpy's row sum, not a BLAS product: a draw's bits are its key's alone
        shared = z.sum(axis=-1, keepdims=True)
        shared *= self.b
        y = np.multiply(z, self.a, out=out)
        y += shared
        return y


@dataclass(frozen=True)
class AR1Factor:
    """The Cholesky factor of ``scale**2 * r**|i - j|``, applied to each row
    by ``rng.ar1``, the stationary recursion x_0 = scale z_0, x_j = c z_j +
    r x_{j-1}, c = scale sqrt(1 - r^2)."""

    p: int
    r: float
    scale: float = 1.0

    def apply(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return rng.ar1(z, self.r, self.scale, out)


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


def _normals(keys: np.ndarray, count: int, out: np.ndarray | None = None) -> np.ndarray:
    """Words 0..count-1 of each key's stream as standard normals, written
    into ``out``, a (len(keys), count) float array, or a new one.  They are
    made in blocks of ``rng.BLOCK`` elements (at least one key), each in its
    own rows of ``out``: the words, then the normals written over them."""
    out = np.empty(keys.shape + (count,)) if out is None else out
    per = max(1, rng.BLOCK // count)
    for i in range(0, len(keys), per):
        w = out[i:i + per].view(np.uint64)
        rng.to_normal(rng.word_grid(keys[i:i + per], count, out=w), out=w.view(np.float64))
    return out


def _tile_product(keys: np.ndarray, width: int, operand, product,
                  out: np.ndarray | None, start: int, then=None) -> np.ndarray:
    """``product`` of the operand rows of ``keys``, which ``operand(keys,
    out=rows)`` writes into ``rows``, mapped by the row reducer ``then`` if
    given.  Without ``out`` one product takes every key.  With ``out``, a
    buffer of T rows of at least ``width`` values, each product runs on T
    rows of it: key i, replication ``start + i``, sits on row ``(start + i)
    % T`` and the rows of keys not asked for are zero, so a draw's bits
    depend on its key alone; ``then`` reduces each tile's rows."""
    if then is None:
        then = lambda rows: rows
    if out is None:
        return then(product(operand(keys, out=np.empty((len(keys), width)))))
    T = len(out)
    tile = out.reshape(-1)[:T * width].reshape(T, width)
    draws = None
    ends = [*range(T - start % T, len(keys), T), len(keys)]
    for i, j in zip([0, *ends], ends):  # keys[i:j] fall in one tile
        row = (start + i) % T
        tile[:row] = tile[row + j - i:] = 0.0
        operand(keys[i:j], out=tile[row:row + j - i])
        part = then(product(tile)[row:row + j - i])
        if draws is None:
            draws = np.empty((len(keys),) + part.shape[1:])
        draws[i:j] = part
        del part  # one tile's product alive at a time, not two
    return draws


# The product kernels below take ``out``, the tile buffer of ``_tile_product``,
# and ``start``, the replication index of their first key.

def gaussian_draw_batch(factor, keys: np.ndarray, out: np.ndarray | None = None,
                        start: int = 0, then=None) -> np.ndarray:
    """One N(0, F F') draw per replication key, F the covariance factor;
    word t of a key's stream feeds coordinate t.  Only a dense factor's
    product reads ``out`` and ``start``.  ``then``, a row reducer (a map of
    a (rows, p) array of draws that treats every row independently), if
    given, takes the draws as they are made and its results are returned:
    per block of a row-local factor, per tile of a product."""
    if isinstance(factor, CholFactor):
        return _tile_product(keys, factor.p, functools.partial(_normals, count=factor.p),
                             factor.apply, out, start, then)

    def draws(block):  # the words, normals and draws of a block in one array
        z = _normals(block, factor.p)
        y = factor.apply(z, out=z)
        return y if then is None else then(y)

    return rng.blocked(draws, keys, factor.p)


def multiplier_draw_batch(dataset: Dataset, keys: np.ndarray,
                          out: np.ndarray | None = None, start: int = 0) -> np.ndarray:
    """n^{-1/2} sum of centered rows weighted by independent standard normals,
    one draw per replication key (word i of a key's stream weights row i).

    Conditional on the data each draw is exactly gaussian with the empirical
    covariance.
    """
    draws = _tile_product(keys, dataset.n, functools.partial(_normals, count=dataset.n),
                          lambda weights: weights @ dataset.centered, out, start)
    draws /= math.sqrt(dataset.n)
    return draws


def empirical_resample_draw_batch(dataset: Dataset, keys: np.ndarray,
                                  out: np.ndarray | None = None, start: int = 0) -> np.ndarray:
    """n^{-1/2} sum of n rows resampled with replacement, centered at the
    mean, one draw per replication key (word i of a key's stream picks the
    i-th resampled row).

    Each resampled multiset is summed through its row-count vector, which
    gives the same row totals as materializing the resample up to float
    summation order.
    """
    n = dataset.n

    def row_counts(block: np.ndarray) -> np.ndarray:
        # u <= 1 - 2**-53 makes fl(u * n) < n for every n < 2**53: no clamp
        idx = (rng.to_uniform(rng.word_grid(block, n)) * n).astype(np.int64)
        idx += (np.arange(len(block), dtype=np.int64) * n)[:, None]
        counts = np.bincount(idx.ravel(), minlength=len(block) * n)
        return counts.reshape(len(block), n).astype(np.float64)

    totals = _tile_product(keys, n, functools.partial(rng.blocked, row_counts, width=n),
                           lambda counts: counts @ dataset.values, out, start)
    totals -= n * dataset.mean
    totals /= math.sqrt(n)
    return totals
