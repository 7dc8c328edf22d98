"""Synthetic designs for centered independent rows with known moments.

A design describes the common law of the rows of an ``n x p`` data matrix.
Five families are supported, all centered:

* ``rademacher``      -- independent signs, bounded by 1;
* ``trunc_exp``       -- symmetrized exponential with sub-exponential tails,
                         scaled so ``E exp(|X|/B_n) = 2`` exactly;
* ``heavy_tail``      -- symmetrized Pareto with polynomial tails, scaled so
                         ``E[(max_j |X_j| / B_n)^q] = 1.8`` (10% margin below
                         the admissible ceiling of 2);
* ``gaussian``        -- exact multivariate normal with an identity,
                         equicorrelated or AR(1) correlation structure;
* ``log_concave``     -- a log-concave family: either the gaussian variant
                         above or a uniform on a centered cube.

``population_moments`` reports the analytic per-coordinate moments and the
moment-condition flags of a design, so that empirical checks have an exact
reference.  Row ``i`` of a sampled matrix is a pure function of
``mix64(seed, i)`` (see :mod:`hdclt.rng`), which makes generation
order-independent and safe to parallelize.
"""
from __future__ import annotations

import csv
import functools
import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import rng
from .errors import ParameterError, Size, config_object, config_value
from .sums import (AR1Factor, CovMatrix, EquicorrelatedFactor, ModelCovariance,
                   ScaledIdentityFactor, _normals, gaussian_draw_batch)

_GAUSS_THIRD = 2.0 * math.sqrt(2.0 / math.pi)  # E|N(0,1)|^3

DESIGN_KINDS = ("rademacher", "trunc_exp", "heavy_tail", "gaussian", "log_concave")
COVARIANCE_KINDS = ("identity", "equicorrelated", "ar1")

_SIGNS = np.array([1.0, -1.0])  # the value of a clear and of a set sign bit

_MAGIC = b"HDCB"
_VERSION = 1


@dataclass(frozen=True)
class CovarianceModel:
    """Correlation structure of a gaussian design; unit diagonal throughout."""

    kind: str = "identity"
    r: float | None = None

    def __post_init__(self):
        if self.kind not in COVARIANCE_KINDS:
            raise ParameterError(f"unknown covariance model {self.kind!r}")
        if self.kind == "identity":
            if self.r is not None:
                raise ParameterError("identity covariance takes no parameter r")
        else:
            if self.r is None or not (0.0 < self.r < 1.0):
                raise ParameterError(
                    f"covariance model {self.kind!r} needs r in (0, 1), got {self.r!r}"
                )

    def matrix(self, p: int) -> np.ndarray:
        if self.kind == "identity":
            return np.eye(p)
        if self.kind == "equicorrelated":
            return (1.0 - self.r) * np.eye(p) + self.r * np.ones((p, p))
        idx = np.arange(p)
        return self.r ** np.abs(idx[:, None] - idx[None, :])

    def factor(self, p: int, scale: float = 1.0):
        """Closed-form factor of ``scale**2 * matrix(p)``, built in O(p)."""
        if self.kind == "identity":
            return ScaledIdentityFactor(p, scale)
        if self.kind == "equicorrelated":
            return EquicorrelatedFactor.of(p, self.r, scale)
        return AR1Factor(p, self.r, scale)

    @staticmethod
    def from_config(cfg: dict) -> "CovarianceModel":
        return config_object(cfg, CovarianceModel, kind=config_value(cfg, "model", str),
                             r=config_value(cfg, "r", float, None))


IDENTITY = CovarianceModel("identity")


@dataclass(frozen=True)
class DesignSpec:
    """Parameters of a row distribution.

    ``scale`` is the tail scale B_n for ``trunc_exp`` and ``heavy_tail`` and
    the coordinate standard deviation for the uniform ``log_concave``
    variant; the sign/gaussian designs have no free scale.  ``tail_index``
    is the polynomial-moment order q of the heavy-tailed family and must
    exceed 4 so that fourth moments exist.  ``standardize`` rescales the
    coordinates to unit variance (and the reported scale constants along
    with them).

    ``law``, the coordinates' common law that ``population_moments`` and
    ``values_from_row_keys`` read, is made and checked once, when the design
    is: a design whose reported b, fourth moment, L_n or B_n, or L_n**2 or
    B_n**2, is not a finite positive float is rejected.
    """

    kind: str
    p: int
    covariance: CovarianceModel = IDENTITY
    scale: float = 1.0
    tail_index: float | None = None
    variant: str | None = None
    standardize: bool = False

    def __post_init__(self):
        if self.kind not in DESIGN_KINDS:
            raise ParameterError(f"unknown design kind {self.kind!r}")
        if not isinstance(self.p, int) or self.p < 3:
            raise ParameterError(f"design dimension p must be an integer >= 3, got {self.p!r}")
        if not (self.scale > 0.0) or not math.isfinite(self.scale):
            raise ParameterError(f"design scale must be positive, got {self.scale!r}")
        if self.kind == "log_concave":
            if self.variant not in ("gaussian", "uniform"):
                raise ParameterError(
                    "log_concave needs variant 'gaussian' or 'uniform', "
                    f"got {self.variant!r}"
                )
        elif self.variant is not None:
            raise ParameterError(f"design {self.kind!r} takes no variant")
        if not self.gaussian and self.covariance.kind != "identity":
            raise ParameterError(
                f"design {self.kind!r} supports only independent coordinates"
            )
        if self.kind == "heavy_tail":
            if self.tail_index is None or not (self.tail_index > 4.0):
                raise ParameterError(
                    f"heavy_tail needs tail_index q > 4, got {self.tail_index!r}"
                )
        elif self.tail_index is not None:
            raise ParameterError(f"design {self.kind!r} takes no tail_index")
        if (self.kind == "rademacher" or self.gaussian) and self.scale != 1.0:
            what = "gaussian log_concave variant" if self.variant else f"design {self.kind!r}"
            raise ParameterError(f"{what} has a fixed scale of 1")
        try:  # makes the law; the rate formulas take L_n**2 and B_n**2
            m = population_moments(self)
            fits = all(0.0 < v < math.inf for v in (
                m.b_lower, m.fourth_moment_max, m.L_n_population, m.B_n,
                m.L_n_population**2, m.B_n**2))
        except (OverflowError, ZeroDivisionError):
            fits = False
        if not fits:
            raise ParameterError(f"design {self.kind!r} with scale {self.scale!r} "
                                 "has moments outside the float range")

    @functools.cached_property
    def law(self) -> dict:
        """The coordinates' common law (see ``_base_moments``); not a field, so
        equality, hashing and the reports keep their shape."""
        return _base_moments(self)

    @property
    def gaussian(self) -> bool:
        """True when rows are exactly N(0, Sigma)."""
        return self.kind == "gaussian" or self.variant == "gaussian"

    @staticmethod
    def from_config(cfg: dict, p: int | None = None) -> "DesignSpec":
        """The design of the config object ``cfg``, its ``p`` key given as ``p`` if set."""
        cov = config_value(cfg, "covariance", dict, None)
        return config_object(
            cfg, DesignSpec,
            kind=config_value(cfg, "kind", str),
            p=config_value(cfg, "p", Size) if p is None else p,
            covariance=IDENTITY if cov is None else CovarianceModel.from_config(cov),
            scale=config_value(cfg, "scale", float, 1.0),
            tail_index=config_value(cfg, "tail_index", float, None),
            variant=config_value(cfg, "variant", str, None),
            standardize=config_value(cfg, "standardize", bool, False),
        )


@dataclass(frozen=True)
class Dataset:
    """An observed n x p matrix of rows."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ParameterError(f"dataset values must be 2-d, got shape {v.shape}")
        if v.shape[0] < 2:
            raise ParameterError(f"dataset needs n >= 2 rows, got {v.shape[0]}")
        if v.shape[1] < 1:
            raise ParameterError("dataset needs at least one column")
        if not np.all(np.isfinite(v)):
            raise ParameterError("dataset values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    @functools.cached_property
    def mean(self) -> np.ndarray:
        """The column means, computed once per dataset."""
        return self.values.mean(axis=0)

    @functools.cached_property
    def centered(self) -> np.ndarray:
        """The rows minus their column means, computed once per dataset."""
        return self.values - self.mean

    @functools.cached_property
    def covariance(self) -> CovMatrix:
        """The empirical covariance (divisor n), computed once per dataset."""
        return CovMatrix(self.centered.T @ self.centered / self.n)


@dataclass(frozen=True)
class MomentReport:
    """Analytic per-coordinate moments of a design and its condition flags.

    ``condition_flags`` maps each moment condition to "holds", "fails" or
    "not-applicable", evaluated at the reported ``B_n``.  ``e1_value`` is
    ``E exp(|X_j| / B_n)`` (``inf`` for polynomial tails) and ``e2_value``
    is ``E[(max_j |X_j| / B_n)^q]`` when a tail order q applies.
    ``bound`` is the almost-sure bound of ``|X_j|``, ``None`` when the
    design is unbounded.
    """

    b_lower: float
    B_n: float
    L_n_population: float
    fourth_moment_max: float
    sigma: ModelCovariance
    condition_flags: dict
    tail_index: float | None = None
    e1_value: float | None = None
    e2_value: float | None = None
    bound: float | None = None


@functools.lru_cache(maxsize=None)
def _pareto_max_moment(p: int, shape: float, order: float) -> float:
    """E[(max of p iid Pareto(shape))^order] for order < shape.

    Computed as 1 + (order/shape) * Int_0^1 x^(-order/shape) g(x) dx with
    g(x) = (1 - (1-x)^p) / x, using an algebraic-weight quadrature for the
    endpoint singularity.
    """
    from scipy.integrate import quad  # deferred: slow to import, only heavy_tail uses it

    if not order < shape:
        raise ParameterError("max-moment order must be below the Pareto shape")
    ratio = order / shape

    def g(x):
        if x < 1e-12:
            return float(p)
        if x >= 1.0:
            return 1.0
        return -math.expm1(p * math.log1p(-x)) / x

    val, _ = quad(g, 0.0, 1.0, weight="alg", wvar=(-ratio, 0.0), limit=200)
    return 1.0 + ratio * val


def _base_moments(design: DesignSpec) -> dict:
    """The law of ``DesignSpec.law``: unstandardized moments and row parameters.

    ``mgf(t)`` is ``E exp(t |X_j|)`` and ``bound`` the almost-sure bound of
    ``|X_j|``, ``None`` when the law is unbounded; a polynomial-tail law also
    gives ``e2``, its ``E[(max_j |X_j| / B_n)^q]``.  The row transforms read
    ``lam`` (trunc_exp), ``a`` and ``c`` (heavy_tail) and ``h`` (uniform cube).
    """
    if design.kind == "rademacher":
        return dict(var=1.0, third=1.0, fourth=1.0, B=1.0, bound=1.0, mgf=math.exp)
    if design.kind == "trunc_exp":
        lam = design.scale / 2.0
        return dict(
            var=2.0 * lam**2, third=6.0 * lam**3, fourth=24.0 * lam**4,
            B=design.scale, bound=None, lam=lam,
            mgf=lambda t: math.inf if lam * t >= 1.0 else 1.0 / (1.0 - lam * t),
        )
    if design.kind == "heavy_tail":
        # Pareto shape q + 1: at shape exactly q the q-th max-moment is
        # infinite, while q + 1 keeps moments up to order q finite, so the
        # polynomial-tail condition is pinned at 1.8, 90% of its ceiling
        q = design.tail_index
        a = q + 1.0
        e2 = 1.8
        c = design.scale * (e2 / _pareto_max_moment(design.p, a, q)) ** (1.0 / q)
        return dict(
            var=c**2 * a / (a - 2.0),
            third=c**3 * a / (a - 3.0),
            fourth=c**4 * a / (a - 4.0),
            B=design.scale, bound=None, a=a, c=c, mgf=lambda t: math.inf, e2=e2,
        )
    if design.gaussian:
        return dict(var=1.0, third=_GAUSS_THIRD, fourth=3.0, B=math.sqrt(3.0), bound=None,
                    mgf=lambda t: 2.0 * math.exp(t * t / 2.0) * float(ndtr(t)))
    # uniform cube with sd = scale
    h = math.sqrt(3.0) * design.scale
    third = h**3 / 4.0
    fourth = h**4 / 5.0

    def mgf(t):
        try:
            return math.expm1(h * t) / (h * t)
        except OverflowError:  # beyond the floats: E.1 fails rather than raises
            return math.inf

    return dict(var=design.scale**2, third=third, fourth=fourth,
                B=max(third, math.sqrt(fourth)), bound=h, h=h, mgf=mgf)


def population_moments(design: DesignSpec) -> MomentReport:
    """Analytic moments and moment-condition flags of a design."""
    base = design.law
    sd = math.sqrt(base["var"]) if design.standardize else 1.0
    var = base["var"] / sd**2
    third = base["third"] / sd**3
    fourth = base["fourth"] / sd**4
    B = base["B"] / sd
    bound = None if base["bound"] is None else base["bound"] / sd

    e1 = base["mgf"](1.0 / (B * sd))
    e2 = base.get("e2")

    tol = 1e-12
    flags = {
        "M.1": "holds" if var > 0.0 else "fails",
        "M.2": "holds" if (third <= B + tol and fourth <= B**2 + tol) else "fails",
        "E.1": "holds" if e1 <= 2.0 + 1e-9 else "fails",
    }
    if e2 is not None:
        flags["E.2"] = "holds" if e2 <= 2.0 + tol else "fails"
    elif bound is not None and bound <= B + tol:
        flags["E.2"] = "holds"  # bounded by B, so every moment order passes
    else:
        flags["E.2"] = "not-applicable"

    return MomentReport(
        b_lower=var,
        B_n=B,
        L_n_population=third,
        fourth_moment_max=fourth,
        sigma=ModelCovariance(design.covariance, design.p, var),
        condition_flags=flags,
        tail_index=design.tail_index,
        e1_value=e1,
        e2_value=e2,
        bound=bound,
    )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def words_per_row(design: DesignSpec) -> int:
    """Number of 64-bit stream words one row consumes."""
    if design.kind == "rademacher":
        return (design.p + 63) // 64
    if design.covariance.kind == "equicorrelated":
        return design.p + 1
    return design.p


def values_from_row_keys(design: DesignSpec, row_keys: np.ndarray) -> np.ndarray:
    """Realize rows from their stream keys; output shape is ``row_keys.shape + (p,)``.

    This is the single definition of every design's transform; batched
    samplers call it with a matrix of keys and get bit-identical rows to
    one-at-a-time generation.  The transforms of ``trunc_exp``,
    ``heavy_tail`` and the uniform cube run in place: the words and the
    values are the only arrays of their size, and the words, once read,
    hold the scratch values.
    """
    p, law = design.p, design.law
    if design.kind == "rademacher":
        w = rng.word_grid(row_keys, words_per_row(design))
        bits = np.unpackbits(
            np.ascontiguousarray(w).view(np.uint8), axis=-1, bitorder="little"
        )[..., :p]
        x = _SIGNS[bits]
    elif design.kind in ("trunc_exp", "heavy_tail") or design.variant == "uniform":
        w = rng.word_grid(row_keys, p)
        x = rng.to_symmetric(w)
        t = w.view(np.float64)
        if design.kind == "trunc_exp":
            # -lam * sign(v) * log1p(-|v|), with the sign taken from v itself
            np.copysign(x, -1.0, out=t)
            np.log1p(t, out=t)
            t *= law["lam"]
            np.copysign(t, x, out=x)
        elif design.kind == "heavy_tail":
            # (c * sign(v)) * |v|**(-1/a), in that order: v = 0 gives NaN
            np.abs(x, out=t)
            np.power(t, -1.0 / law["a"], out=t)
            np.sign(x, out=x)
            x *= law["c"]
            x *= t
        else:  # the uniform log-concave cube
            x *= law["h"]
    else:  # gaussian, or the gaussian log-concave variant: made in blocks
        cov = design.covariance
        if cov.kind == "equicorrelated":
            # one shared normal, then p own ones: not the Cholesky factor's words
            x = _normals(row_keys, words_per_row(design), lambda z, _: (
                math.sqrt(cov.r) * z[..., :1] + math.sqrt(1.0 - cov.r) * z[..., 1:]))
        else:  # identity, or the AR(1) recursion of its factor
            x = gaussian_draw_batch(cov.factor(p), row_keys)

    if design.standardize:
        x /= math.sqrt(law["var"])
    return x


def sample_dataset(design: DesignSpec, n: int, seed: int) -> Dataset:
    """Draw an ``n x p`` matrix; row i is a pure function of mix64(seed, i)."""
    if not isinstance(n, int) or n < 2:
        raise ParameterError(f"need n >= 2 rows, got {n!r}")
    return Dataset(values=values_from_row_keys(design, rng.words(seed, n)))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def write_dataset(dataset: Dataset, path: str, fmt: str | None = None) -> None:
    """Persist a dataset; ``fmt`` is 'bin' or 'csv' (default from extension)."""
    fmt = fmt or ("csv" if str(path).endswith(".csv") else "bin")
    if fmt == "bin":
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<I", _VERSION))
            fh.write(struct.pack("<QQ", dataset.n, dataset.p))
            fh.write(np.ascontiguousarray(dataset.values, dtype="<f8").tobytes())
    elif fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([f"x{j + 1}" for j in range(dataset.p)])
            for row in dataset.values:
                writer.writerow([f"{v:.17g}" for v in row])
    else:
        raise ParameterError(f"unknown dataset format {fmt!r}")


def read_dataset(path: str) -> Dataset:
    """Load a dataset written by :func:`write_dataset` (either format)."""
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head == _MAGIC:
            header = fh.read(20)
            if len(header) != 20:
                raise OSError(f"{path}: dataset header needs 24 bytes, "
                              f"found {4 + len(header)}")
            version, n, p = struct.unpack("<IQQ", header)
            if version != _VERSION:
                raise ParameterError(f"unsupported dataset version {version}")
            payload = fh.read()
            if len(payload) != 8 * n * p:
                raise OSError(f"{path}: dataset shape ({n}, {p}) needs {8 * n * p} "
                              f"payload bytes, found {len(payload)}")
            data = np.frombuffer(payload, dtype="<f8").reshape(n, p)
            return Dataset(values=data.astype(np.float64))
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if not header or not header[0].startswith("x"):
                raise ParameterError(f"{path} is neither a binary nor a csv dataset")
            rows = []
            for row in filter(None, reader):
                try:
                    if len(row) != len(header):
                        raise ValueError
                    rows.append([float(v) for v in row])
                except ValueError:
                    raise OSError(f"{path}: csv line {reader.line_num} must hold "
                                  f"{len(header)} numbers") from None
        except UnicodeDecodeError:
            raise OSError(f"{path}: csv dataset is not UTF-8 text") from None
    if not rows:
        raise ParameterError(f"{path}: csv dataset has no rows")
    return Dataset(values=np.asarray(rows, dtype=np.float64))
