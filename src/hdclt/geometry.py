"""Set classes: hyperrectangles, halfspace polytopes, sparsely convex sets.

All sets are closed (boundaries count as inside) and immutable.  A polytope
is stored in halfspace form as unit outward normals with offsets, so that
an epsilon-expansion is just an offset shift.  Sparsely convex sets are
intersections of pieces that each depend on a small number of coordinates;
the supported pieces are sparse halfspaces and low-dimensional balls, and
every ball can be replaced by a circumscribing-polytope approximation whose
normals inherit the same coordinate support.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import rng
from .errors import ParameterError, config_value

_UNIT_TOL = 1e-12


# ---------------------------------------------------------------------------
# set descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hyperrectangle:
    """Coordinatewise interval set; sides may be infinite, emptiness is legal."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ParameterError("rectangle bounds must be 1-d arrays of equal length")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ParameterError("rectangle bounds must not be NaN")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def p(self) -> int:
        return self.lower.shape[0]

    @functools.cached_property
    def max_level(self) -> float | None:
        """t when this is the max-type set {w : w_j <= t for all j}, t < inf, else None."""
        t = float(self.upper[0]) if self.p else np.inf
        if t < np.inf and np.all(self.upper == t) and np.all(np.isneginf(self.lower)):
            return t
        return None

    def contains_batch(self, points: np.ndarray) -> np.ndarray:
        return ((points >= self.lower) & (points <= self.upper)).all(axis=-1)


@dataclass(frozen=True)
class Polytope:
    """Intersection of halfspaces {w : w'v_k <= c_k} with unit normals v_k."""

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.normals, dtype=np.float64)
        c = np.asarray(self.offsets, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ParameterError("polytope needs a (m, p) normal matrix with m >= 1")
        if c.shape != (v.shape[0],):
            raise ParameterError("polytope needs one offset per facet")
        if not np.all(np.isfinite(v)) or not np.all(np.isfinite(c)):
            raise ParameterError("polytope facets must be finite")
        norms = np.linalg.norm(v, axis=1)
        if np.max(np.abs(norms - 1.0)) > _UNIT_TOL:
            raise ParameterError("facet normals must be unit vectors within 1e-12")
        object.__setattr__(self, "normals", v)
        object.__setattr__(self, "offsets", c)

    @property
    def p(self) -> int:
        return self.normals.shape[1]

    @property
    def m(self) -> int:
        return self.normals.shape[0]

    def contains_batch(self, points: np.ndarray) -> np.ndarray:
        return (points @ self.normals.T <= self.offsets).all(axis=-1)


@dataclass(frozen=True)
class SparseHalfspace:
    """{w : w'v <= c} with v supported on few coordinates."""

    v: np.ndarray
    c: float

    def __post_init__(self):
        v = np.asarray(self.v, dtype=np.float64)
        if v.ndim != 1 or not np.all(np.isfinite(v)) or not math.isfinite(self.c):
            raise ParameterError("halfspace needs a finite vector and offset")
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > _UNIT_TOL:
            raise ParameterError("halfspace normal must be a unit vector")
        object.__setattr__(self, "v", v)

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.v))


@dataclass(frozen=True)
class SparseBall:
    """{w : |(w_j)_{j in J} - center| <= radius}, depending only on J."""

    indices: tuple
    center: np.ndarray
    radius: float

    def __post_init__(self):
        idx = tuple(int(j) for j in self.indices)
        if len(idx) < 1 or len(set(idx)) != len(idx):
            raise ParameterError("ball needs distinct coordinate indices")
        ctr = np.asarray(self.center, dtype=np.float64)
        if ctr.shape != (len(idx),) or not np.all(np.isfinite(ctr)):
            raise ParameterError("ball center must be finite with one entry per index")
        if not (self.radius > 0.0) or not math.isfinite(self.radius):
            raise ParameterError(f"ball radius must be positive, got {self.radius!r}")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "center", ctr)

    @property
    def support_size(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class SparseConvexSet:
    """Intersection of convex pieces, each depending on at most s coordinates."""

    p: int
    s: int
    pieces: tuple

    def __post_init__(self):
        if self.p < 1:
            raise ParameterError("sparse set needs a positive ambient dimension")
        if len(self.pieces) < 1:
            raise ParameterError("sparse set needs at least one piece")
        for piece in self.pieces:
            if isinstance(piece, SparseHalfspace):
                if piece.v.shape[0] != self.p:
                    raise ParameterError("halfspace dimension mismatch")
            elif isinstance(piece, SparseBall):
                if max(piece.indices) >= self.p or min(piece.indices) < 0:
                    raise ParameterError("ball indices out of range")
            else:
                raise ParameterError(f"unsupported piece type {type(piece).__name__}")
            if piece.support_size > self.s:
                raise ParameterError(
                    f"piece depends on {piece.support_size} coordinates, more than s={self.s}"
                )
        object.__setattr__(self, "pieces", tuple(self.pieces))

    def contains_batch(self, points: np.ndarray) -> np.ndarray:
        ok = np.ones(points.shape[:-1], dtype=bool)
        for piece in self.pieces:
            if isinstance(piece, SparseHalfspace):
                ok &= points @ piece.v <= piece.c
            else:
                delta = points[..., list(piece.indices)] - piece.center
                ok &= (delta * delta).sum(axis=-1) <= piece.radius**2
        return ok


@dataclass(frozen=True)
class SetFamily:
    """A labelled list of set descriptors sharing one ambient dimension."""

    sets: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.sets) < 1 or len(self.sets) != len(self.labels):
            raise ParameterError("family needs one label per set and at least one set")
        dims = {s.p for s in self.sets}
        if len(dims) != 1:
            raise ParameterError(f"family members must share one dimension, got {dims}")
        object.__setattr__(self, "sets", tuple(self.sets))
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))

    @property
    def p(self) -> int:
        return self.sets[0].p

    def __len__(self) -> int:
        return len(self.sets)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def contains(set_, w: np.ndarray) -> bool:
    """Closed-set membership of a single point."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != set_.p:
        raise ParameterError(f"point dimension {w.shape} does not match set dimension {set_.p}")
    return bool(set_.contains_batch(w[None, :])[0])


def _rect_hit_count(rect: Hyperrectangle, points: np.ndarray) -> int:
    """Count of points inside a rectangle, filtering survivors coordinate by
    coordinate so near-empty sets exit early."""
    alive = None
    for j in range(rect.p):
        lo = rect.lower[j]
        hi = rect.upper[j]
        if lo == -np.inf and hi == np.inf:
            continue
        col = points[:, j] if alive is None else points[alive, j]
        keep = (col >= lo) & (col <= hi)
        alive = np.flatnonzero(keep) if alive is None else alive[keep]
        if alive.size == 0:
            return 0
    return points.shape[0] if alive is None else int(alive.size)


def hit_counts(family: SetFamily, points: np.ndarray) -> np.ndarray:
    """Number of the given points inside each family member.

    A max-type set {w : w_j <= t for all j} is counted as max_j w_j <= t
    in one pass over the points; its p bounded sides never empty the
    survivors of the coordinate loop.
    """
    out = np.empty(len(family), dtype=np.int64)
    row_max = None
    for k, s in enumerate(family.sets):
        t = s.max_level if isinstance(s, Hyperrectangle) else None
        if t is not None:
            if row_max is None:
                row_max = np.max(points, axis=1)
            out[k] = int(np.count_nonzero(row_max <= t))
        elif isinstance(s, Hyperrectangle):
            out[k] = _rect_hit_count(s, points)
        else:
            out[k] = int(np.count_nonzero(s.contains_batch(points)))
    return out


# ---------------------------------------------------------------------------
# polytope constructions
# ---------------------------------------------------------------------------

def expand(poly: Polytope, eps: float) -> Polytope:
    """Relax every facet offset by eps (the epsilon-expanded polytope)."""
    if not (eps >= 0.0):
        raise ParameterError(f"expansion must be nonnegative, got {eps!r}")
    if eps == 0.0:
        return poly
    return Polytope(poly.normals, poly.offsets + eps)


def fibonacci_sphere(m: int) -> np.ndarray:
    """m spiral points on the unit 2-sphere (golden-angle construction)."""
    i = np.arange(m, dtype=np.float64)
    z = 1.0 - (2.0 * i + 1.0) / m
    theta = i * (math.pi * (3.0 - math.sqrt(5.0)))
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([rho * np.cos(theta), rho * np.sin(theta), z])


def covering_angle(directions: np.ndarray) -> float:
    """Largest angle from any unit direction to its nearest point of the set.

    Equals the largest angular circumradius over the faces of the convex
    hull of the points (the spherical Delaunay triangulation), computed
    exactly from the face planes.
    """
    from scipy.spatial import ConvexHull  # deferred: slow to import, rarely used

    hull = ConvexHull(directions)
    worst = 0.0
    pts = directions
    for simplex in hull.simplices:
        a, b, c = pts[simplex]
        nrm = np.cross(b - a, c - a)
        nn = float(np.linalg.norm(nrm))
        if nn == 0.0:
            continue
        nrm = nrm / nn
        d = float(nrm @ a)
        if d < 0.0:
            nrm, d = -nrm, -d
        worst = max(worst, math.acos(min(1.0, max(-1.0, d))))
    return worst


def approximate_ball(indices, center, radius: float, eps: float, p: int) -> Polytope:
    """Circumscribe-from-inside polytope for a 2- or 3-dimensional ball.

    Returns an inner polytope whose eps-expansion covers the ball: with
    tangent-direction normals v_k and offsets radius*cos(theta) (theta the
    covering angle of the normal set), every polytope point lies inside the
    ball and the ball's support in each normal direction exceeds the offset
    by at most radius*(1 - cos(theta)) <= eps.  The normals live in the full
    p-dimensional space but are supported on the given coordinates only.
    """
    idx = tuple(int(j) for j in indices)
    if len(idx) not in (2, 3):
        raise ParameterError(f"ball approximation supports 2 or 3 coordinates, got {len(idx)}")
    if not (0.0 < eps < radius):
        raise ParameterError(f"need 0 < eps < radius, got eps={eps!r}, radius={radius!r}")
    if max(idx) >= p or min(idx) < 0:
        raise ParameterError("ball indices out of range for the ambient dimension")
    ctr = np.asarray(center, dtype=np.float64)
    if ctr.shape != (len(idx),):
        raise ParameterError("center must have one entry per ball coordinate")

    if len(idx) == 2:
        # equiangular normals; the polygon's vertices sit exactly on the sphere.
        # ceil of pi/acos(1 - eps/r) up to float rounding at integer quotients,
        # so pin m to the smallest verified count instead
        m = max(3, math.ceil(math.pi / math.acos(1.0 - eps / radius)))
        while radius * (1.0 - math.cos(math.pi / m)) > eps:
            m += 1
        while m > 3 and radius * (1.0 - math.cos(math.pi / (m - 1))) <= eps:
            m -= 1
        angles = 2.0 * math.pi * np.arange(m) / m
        local = np.column_stack([np.cos(angles), np.sin(angles)])
        cos_theta = math.cos(math.pi / m)
    else:
        theta_target = math.acos(1.0 - eps / radius)
        m = max(8, math.ceil(2.2 / (1.0 - math.cos(theta_target))))
        while True:
            local = fibonacci_sphere(m)
            theta = covering_angle(local)
            if radius * (1.0 - math.cos(theta)) <= eps:
                cos_theta = math.cos(theta)
                break
            m = m + max(1, m // 16)

    normals = np.zeros((m, p))
    normals[:, list(idx)] = local
    offsets = radius * cos_theta + local @ ctr
    return Polytope(normals, offsets)


def to_polytope(sset: SparseConvexSet, eps: float) -> Polytope:
    """Replace every ball piece by its polytope approximation; halfspaces pass
    through unchanged.  The result P satisfies P inside the set inside
    expand(P, eps), and its normals keep the pieces' coordinate support."""
    if not (eps > 0.0):
        raise ParameterError(f"approximation precision must be positive, got {eps!r}")
    normals = []
    offsets = []
    for piece in sset.pieces:
        if isinstance(piece, SparseHalfspace):
            normals.append(piece.v[None, :])
            offsets.append(np.array([piece.c]))
        else:
            poly = approximate_ball(piece.indices, piece.center, piece.radius, eps, sset.p)
            normals.append(poly.normals)
            offsets.append(poly.offsets)
    return Polytope(np.vstack(normals), np.concatenate(offsets))


# ---------------------------------------------------------------------------
# sampling and checking
# ---------------------------------------------------------------------------

def _family_deviations(p: int, count: int, sigma_diag, member: str) -> np.ndarray:
    """``sigma_diag`` as the p positive deviations of a family of ``count`` sets."""
    if count < 1:
        raise ParameterError(f"need at least one {member}, got {count!r}")
    sd = np.asarray(sigma_diag, dtype=np.float64)
    if sd.shape != (p,) or np.any(sd <= 0):
        raise ParameterError("sigma_diag must hold p positive deviations")
    return sd


def sample_rectangles(p: int, count: int, sigma_diag, seed: int) -> SetFamily:
    """A family of random rectangles scaled to per-coordinate deviations.

    Each side is independently unbounded with probability 1/2, otherwise its
    endpoint is sd_j * Phi^{-1}(u) with u uniform on (0.05, 0.95); a bounded
    pair out of order is swapped.  The last member is always the one-sided
    max-type set {w : w_j <= t for all j}, with t = mean(sd) *
    Phi^{-1}(u^(1/p)) so that its gaussian content is roughly uniform in u
    rather than degenerating as p grows.
    """
    sd = _family_deviations(p, count, sigma_diag, "rectangle")

    sets = []
    labels = []
    for k in range(count - 1):
        key = rng.mix64(seed, k)
        w = rng.words(key, 3 * p)
        flags = w[0::3]
        u_lo = 0.05 + 0.9 * rng.to_uniform(w[1::3])
        u_hi = 0.05 + 0.9 * rng.to_uniform(w[2::3])
        lo_unbounded = (flags & np.uint64(1)).astype(bool)
        hi_unbounded = (flags & np.uint64(2)).astype(bool)
        lo = np.where(lo_unbounded, -np.inf, sd * ndtri(u_lo))
        hi = np.where(hi_unbounded, np.inf, sd * ndtri(u_hi))
        both = ~lo_unbounded & ~hi_unbounded
        swap = both & (lo > hi)
        lo2 = np.where(swap, hi, lo)
        hi2 = np.where(swap, lo, hi)
        sets.append(Hyperrectangle(lo2, hi2))
        labels.append(f"rect{k:03d}")

    key = rng.mix64(seed, count - 1)
    u = 0.05 + 0.9 * rng.to_uniform(rng.words(key, 1))[0]
    t = float(np.mean(sd)) * float(ndtri(u ** (1.0 / p)))
    sets.append(Hyperrectangle(np.full(p, -np.inf), np.full(p, t)))
    labels.append(f"rect{count - 1:03d}:max")
    return SetFamily(tuple(sets), tuple(labels))


def one_sided_family(p: int, count: int, sigma_diag, seed: int) -> SetFamily:
    """Lower-orthant sets {w : w <= y} with quantile-spread corners."""
    sd = _family_deviations(p, count, sigma_diag, "set")
    sets = []
    labels = []
    for k in range(count):
        key = rng.mix64(seed, k)
        u = 0.05 + 0.9 * rng.to_uniform(rng.words(key, p))
        # exponent 1/p keeps the joint gaussian content non-degenerate in high p
        y = sd * ndtri(u ** (1.0 / p))
        sets.append(Hyperrectangle(np.full(p, -np.inf), y))
        labels.append(f"orthant{k:03d}")
    return SetFamily(tuple(sets), tuple(labels))


def sandwich_check(inner: Polytope, sset: SparseConvexSet, eps: float,
                   trials: int, box_halfwidth: float, seed: int) -> int:
    """Count sandwich violations on uniform points in a centered cube.

    A point violates the sandwich when it is inside the inner polytope but
    outside the set, or inside the set but outside the eps-expansion.
    """
    if trials < 1:
        raise ParameterError(f"need at least one trial, got {trials!r}")
    if inner.p != sset.p:
        raise ParameterError("polytope and set dimensions differ")
    outer = expand(inner, eps)

    def violated(keys: np.ndarray) -> np.ndarray:
        pts = box_halfwidth * rng.to_symmetric(rng.word_grid(keys, sset.p))
        in_inner = inner.contains_batch(pts)
        in_set = sset.contains_batch(pts)
        in_outer = outer.contains_batch(pts)
        return (in_inner & ~in_set) | (in_set & ~in_outer)

    keys = rng.words(seed, trials)
    # slices of 2**16 points: the membership tests hold matrix products
    return int(np.count_nonzero(rng.blocked(violated, keys, sset.p, (1 << 16) * sset.p)))


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------

def _num_out(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def _num_in(x) -> float:
    """A rectangle bound: a JSON number, or the string "inf" or "-inf"."""
    if x in ("inf", "-inf"):
        return float(x)
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ParameterError(f"rectangle bound must be a number, 'inf' or '-inf', got {x!r}")
    return float(x)


def set_to_config(set_) -> dict:
    if isinstance(set_, Hyperrectangle):
        return {
            "kind": "rect",
            "lower": [_num_out(v) for v in set_.lower],
            "upper": [_num_out(v) for v in set_.upper],
        }
    if isinstance(set_, Polytope):
        return {
            "kind": "polytope",
            "facets": [
                {"v": [float(x) for x in v], "c": float(c)}
                for v, c in zip(set_.normals, set_.offsets)
            ],
        }
    if isinstance(set_, SparseConvexSet):
        pieces = []
        for piece in set_.pieces:
            if isinstance(piece, SparseHalfspace):
                pieces.append({"type": "halfspace",
                               "v": [float(x) for x in piece.v], "c": float(piece.c)})
            else:
                pieces.append({"type": "ball", "J": list(piece.indices),
                               "center": [float(x) for x in piece.center],
                               "radius": float(piece.radius)})
        return {"kind": "sparse", "s": set_.s, "p": set_.p, "pieces": pieces}
    raise ParameterError(f"unknown set type {type(set_).__name__}")


def set_from_config(cfg: dict):
    kind = config_value(cfg, "kind", str)
    if kind == "rect":
        return Hyperrectangle([_num_in(v) for v in config_value(cfg, "lower", list)],
                              [_num_in(v) for v in config_value(cfg, "upper", list)])
    if kind == "polytope":
        facets = config_value(cfg, "facets", list, item=dict)
        normals = [config_value(f, "v", list, item=float) for f in facets]
        if len({len(v) for v in normals}) > 1:
            raise ParameterError("polytope facet normals must share one length")
        return Polytope(normals, [config_value(f, "c", float) for f in facets])
    if kind == "sparse":
        pieces = []
        for pc in config_value(cfg, "pieces", list, item=dict):
            piece = config_value(pc, "type", str)
            if piece == "halfspace":
                pieces.append(SparseHalfspace(config_value(pc, "v", list, item=float),
                                              config_value(pc, "c", float)))
            elif piece == "ball":
                pieces.append(SparseBall(config_value(pc, "J", list, item=int),
                                         config_value(pc, "center", list, item=float),
                                         config_value(pc, "radius", float)))
            else:
                raise ParameterError(f"unknown sparse piece type {piece!r}")
        return SparseConvexSet(p=config_value(cfg, "p", int), s=config_value(cfg, "s", int),
                               pieces=tuple(pieces))
    raise ParameterError(f"unknown set kind {kind!r}")


def family_to_config(family: SetFamily) -> dict:
    return {
        "p": family.p,
        "sets": [dict(label=lab, **set_to_config(s))
                 for lab, s in zip(family.labels, family.sets)],
    }


def family_from_config(cfg: dict) -> SetFamily:
    sets = []
    labels = []
    for entry in config_value(cfg, "sets", list, item=dict):
        labels.append(config_value(entry, "label", str))
        sets.append(set_from_config({k: v for k, v in entry.items() if k != "label"}))
    return SetFamily(tuple(sets), tuple(labels))
