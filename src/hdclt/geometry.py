"""Set classes: hyperrectangles, halfspace polytopes, sparsely convex sets.

All sets are closed (boundaries count as inside) and immutable.  A polytope
is stored in halfspace form as unit outward normals with offsets, so that
an epsilon-expansion is just an offset shift.  Sparsely convex sets are
intersections of pieces that each depend on at most s coordinates J: a
sparse halfspace (J, w, c) and a low-dimensional ball (J, center, radius)
are stored by their support and tested on the points' coordinates on J
alone, so a piece costs O(s) whatever p is, and a coordinate outside J,
even an infinite or NaN one, does not constrain it.  Hits count by exact
membership.  A disk also has an inner polygon whose expansion covers it
(``approximate_ball``).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from . import rng
from .errors import ParameterError, Size, config_error, config_object, config_value

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

    @functools.cached_property
    def narrowest_first(self) -> tuple:
        """The bounded coordinates (a side finite) by increasing N(0, 1)
        content ndtr(upper) - ndtr(lower), ties in index order."""
        bounded = np.flatnonzero((self.lower > -np.inf) | (self.upper < np.inf))
        content = ndtr(self.upper[bounded]) - ndtr(self.lower[bounded])
        return tuple(bounded[np.argsort(content, kind="stable")].tolist())

    def contains_batch(self, points: np.ndarray) -> np.ndarray:
        # a coordinate unbounded on both sides constrains nothing, not even a NaN
        free = np.isneginf(self.lower) & np.isposinf(self.upper)
        return (((points >= self.lower) & (points <= self.upper)) | free).all(axis=-1)


@dataclass(frozen=True)
class Polytope:
    """Intersection of halfspaces {w : w'v_k <= c_k} with unit normals v_k."""

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        if len({np.shape(v) for v in self.normals}) > 1:
            raise ParameterError("polytope facet normals must share one length")
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


def _on_support(piece, name: str) -> None:
    """Store ``piece.indices`` as a tuple of ints and ``piece.<name>`` as one
    finite float per index; the set checks the indices themselves."""
    idx = tuple(int(j) for j in piece.indices)
    vec = np.asarray(getattr(piece, name), dtype=np.float64)
    if vec.shape != (len(idx),) or not np.all(np.isfinite(vec)):
        raise ParameterError(f"piece {name} must be finite with one entry per index")
    object.__setattr__(piece, "indices", idx)
    object.__setattr__(piece, name, vec)


@dataclass(frozen=True)
class SparseHalfspace:
    """{x : (x_j)_{j in J}'w <= c}, a unit normal w on the coordinates J."""

    indices: tuple
    w: np.ndarray
    c: float

    def __post_init__(self):
        _on_support(self, "w")
        if not math.isfinite(self.c):
            raise ParameterError(f"halfspace offset must be finite, got {self.c!r}")
        if abs(float(np.linalg.norm(self.w)) - 1.0) > _UNIT_TOL:
            raise ParameterError("halfspace normal must be a unit vector")

    def holds(self, x: np.ndarray) -> np.ndarray:
        """Membership of points given by their coordinates on J."""
        return (x * self.w).sum(axis=-1) <= self.c


@dataclass(frozen=True)
class SparseBall:
    """{w : |(w_j)_{j in J} - center| <= radius}, depending only on J."""

    indices: tuple
    center: np.ndarray
    radius: float

    def __post_init__(self):
        _on_support(self, "center")
        if not (self.radius > 0.0) or not math.isfinite(self.radius):
            raise ParameterError(f"ball radius must be positive, got {self.radius!r}")

    def holds(self, x: np.ndarray) -> np.ndarray:
        """Membership of points given by their coordinates on J."""
        delta = x - self.center
        return (delta * delta).sum(axis=-1) <= self.radius**2


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
            if not isinstance(piece, (SparseHalfspace, SparseBall)):
                raise ParameterError(f"unsupported piece type {type(piece).__name__}")
            J = piece.indices
            if not J or len(set(J)) != len(J) or min(J) < 0 or max(J) >= self.p:
                raise ParameterError(f"piece indices {J} must be distinct, in [0, {self.p})")
            if len(J) > self.s:
                raise ParameterError(f"piece depends on {len(J)} coordinates, more than s={self.s}")
        object.__setattr__(self, "pieces", tuple(self.pieces))

    def contains_batch(self, points: np.ndarray) -> np.ndarray:
        ok = np.ones(points.shape[:-1], dtype=bool)
        for piece in self.pieces:
            ok &= piece.holds(points[..., list(piece.indices)])
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

def _rect_hit_count(rect: Hyperrectangle, points: np.ndarray) -> int:
    """Count of points inside a rectangle, filtering survivors coordinate by
    coordinate, narrowest first, so that most sets empty in a few steps."""
    alive = None
    for j in rect.narrowest_first:
        col = points[:, j] if alive is None else points[alive, j]
        keep = (col >= rect.lower[j]) & (col <= rect.upper[j])
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


def approximate_ball(indices, center, radius: float, eps: float, p: int) -> Polytope:
    """Circumscribe-from-inside polygon for a 2-dimensional ball (a disk).

    Returns an inner polytope whose eps-expansion covers the disk: with m
    equiangular normals v_k and offsets radius*cos(pi/m), every polytope
    point lies inside the disk and the disk's support in each normal
    direction exceeds the offset by radius*(1 - cos(pi/m)) <= eps.  The
    normals live in the full p-dimensional space but are supported on the
    two given coordinates only.
    """
    idx = tuple(int(j) for j in indices)
    if len(idx) != 2:
        raise ParameterError(f"ball approximation supports 2 coordinates, got {len(idx)}")
    if not (0.0 < eps < radius):
        raise ParameterError(f"need 0 < eps < radius, got eps={eps!r}, radius={radius!r}")
    if max(idx) >= p or min(idx) < 0:
        raise ParameterError("ball indices out of range for the ambient dimension")
    ctr = np.asarray(center, dtype=np.float64)
    if ctr.shape != (2,):
        raise ParameterError("center must have one entry per ball coordinate")

    # the polygon's vertices sit exactly on the circle.  m is the ceil of
    # pi/acos(1 - eps/r) up to float rounding at integer quotients, so pin it
    # to the smallest verified count instead
    m = max(3, math.ceil(math.pi / math.acos(1.0 - eps / radius)))
    while radius * (1.0 - math.cos(math.pi / m)) > eps:
        m += 1
    while m > 3 and radius * (1.0 - math.cos(math.pi / (m - 1))) <= eps:
        m -= 1
    angles = 2.0 * math.pi * np.arange(m) / m
    local = np.column_stack([np.cos(angles), np.sin(angles)])

    normals = np.zeros((m, p))
    normals[:, list(idx)] = local
    offsets = radius * math.cos(math.pi / m) + local @ ctr
    return Polytope(normals, offsets)


# ---------------------------------------------------------------------------
# sampling and checking
# ---------------------------------------------------------------------------

def sample_rectangles(p: int, count: int, sigma_diag, seed: int) -> SetFamily:
    """A family of random rectangles scaled to per-coordinate deviations.

    Each side is independently unbounded with probability 1/2, otherwise its
    endpoint is sd_j * Phi^{-1}(u) with u uniform on (0.05, 0.95); a bounded
    pair out of order is swapped.  The last member is always the one-sided
    max-type set {w : w_j <= t for all j}, with t = mean(sd) *
    Phi^{-1}(u^(1/p)) so that its gaussian content is roughly uniform in u
    rather than degenerating as p grows.
    """
    if count < 1:
        raise ParameterError(f"need at least one rectangle, got {count!r}")
    sd = np.asarray(sigma_diag, dtype=np.float64)
    if sd.shape != (p,) or np.any(sd <= 0):
        raise ParameterError("sigma_diag must hold p positive deviations")

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
        w = rng.word_grid(keys, sset.p)
        pts = rng.flip_signs(box_halfwidth * rng.to_uniform(w), w)
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

def _num_in(x) -> float:
    """A rectangle bound: a JSON number, or the string "inf" or "-inf"."""
    if x in ("inf", "-inf"):
        return float(x)
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ParameterError(f"rectangle bound must be a number, 'inf' or '-inf', got {x!r}")
    return float(x)


def set_to_config(set_) -> dict:
    if isinstance(set_, Hyperrectangle):
        return {"kind": "rect", "lower": set_.lower.tolist(), "upper": set_.upper.tolist()}
    if isinstance(set_, Polytope):
        return {
            "kind": "polytope",
            "facets": [
                {"v": v.tolist(), "c": float(c)}
                for v, c in zip(set_.normals, set_.offsets)
            ],
        }
    if isinstance(set_, SparseConvexSet):
        pieces = []
        for pc in set_.pieces:
            numbers = ({"type": "halfspace", "w": pc.w.tolist(), "c": float(pc.c)}
                       if isinstance(pc, SparseHalfspace) else
                       {"type": "ball", "center": pc.center.tolist(),
                        "radius": float(pc.radius)})
            pieces.append(dict(J=list(pc.indices), **numbers))
        return {"kind": "sparse", "s": set_.s, "p": set_.p, "pieces": pieces}
    raise ParameterError(f"unknown set type {type(set_).__name__}")


def _piece_from_config(pc: dict, p: int, s: int):
    """A piece of a sparse set in R^p; a value error names the piece's path."""
    piece = config_value(pc, "type", str)
    if piece == "halfspace":
        make, numbers = SparseHalfspace, dict(w=config_value(pc, "w", list, item=float),
                                              c=config_value(pc, "c", float))
    elif piece == "ball":
        make, numbers = SparseBall, dict(center=config_value(pc, "center", list, item=float),
                                         radius=config_value(pc, "radius", float))
    else:
        raise config_error(pc, f"unknown sparse piece type {piece!r}")
    # the piece is checked in a set of its own, so the set's checks of its
    # support J name the piece too
    return config_object(pc, lambda **f: SparseConvexSet(p, s, (make(**f),)).pieces[0],
                         indices=config_value(pc, "J", list, item=int), **numbers)


def set_from_config(cfg: dict):
    """The set of a config object; a value error names the object's path."""
    kind = config_value(cfg, "kind", str)
    if kind == "rect":
        return config_object(cfg, lambda lower, upper: Hyperrectangle(
            [_num_in(v) for v in lower], [_num_in(v) for v in upper]),
            lower=config_value(cfg, "lower", list), upper=config_value(cfg, "upper", list))
    if kind == "polytope":
        facets = config_value(cfg, "facets", list, item=dict)
        return config_object(cfg, Polytope,
                             normals=[config_value(f, "v", list, item=float) for f in facets],
                             offsets=[config_value(f, "c", float) for f in facets])
    if kind == "sparse":
        p, s = config_value(cfg, "p", Size), config_value(cfg, "s", Size)
        if p < 1:  # before the pieces, which are checked in sets of dimension p
            raise config_error(cfg, "sparse set needs a positive ambient dimension")
        pieces = tuple(_piece_from_config(pc, p, s)
                       for pc in config_value(cfg, "pieces", list, item=dict))
        return config_object(cfg, SparseConvexSet, p=p, s=s, pieces=pieces)
    raise config_error(cfg, f"unknown set kind {kind!r}")


def family_to_config(family: SetFamily) -> dict:
    return {
        "p": family.p,
        "sets": [dict(label=lab, **set_to_config(s))
                 for lab, s in zip(family.labels, family.sets)],
    }


def family_from_config(cfg: dict) -> SetFamily:
    entries = config_value(cfg, "sets", list, item=dict)
    labels = tuple(config_value(entry, "label", str) for entry in entries)
    family = config_object(cfg, SetFamily, "sets", labels=labels,
                           sets=tuple(set_from_config(entry) for entry in entries))
    p = config_value(cfg, "p", Size, family.p)  # family_to_config writes it
    if p != family.p:
        raise ParameterError(f"family.p={p} does not match the sets' dimension {family.p}")
    return family
