import math

import numpy as np
import pytest

from hdclt import rng
from hdclt.errors import ParameterError
from hdclt.geometry import (
    _rect_hit_count,
    Hyperrectangle,
    Polytope,
    SetFamily,
    SparseBall,
    SparseConvexSet,
    SparseHalfspace,
    approximate_ball,
    contains,
    covering_angle,
    expand,
    family_from_config,
    family_to_config,
    fibonacci_sphere,
    hit_counts,
    sample_rectangles,
    sandwich_check,
    set_from_config,
    set_to_config,
    to_polytope,
)


def unit_disk(p=2, s=2):
    return SparseConvexSet(p=p, s=s, pieces=(SparseBall((0, 1), np.zeros(2), 1.0),))


def test_contains_rectangle():
    r = Hyperrectangle(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert contains(r, np.array([0.5, -0.2]))
    assert contains(r, np.array([1.0, 1.0]))  # closed boundary
    assert not contains(r, np.array([1.0001, 0.0]))
    with pytest.raises(ParameterError):
        contains(r, np.array([0.0, 0.0, 0.0]))


def test_contains_polytope_boundary():
    po = Polytope(np.array([[1.0, 0.0]]), np.array([0.0]))
    assert contains(po, np.array([0.0, 5.0]))
    assert not contains(po, np.array([1e-9, 5.0]))


def test_contains_sparse_set():
    ss = SparseConvexSet(p=3, s=2, pieces=(
        SparseBall((0, 1), np.zeros(2), 1.0),
        SparseHalfspace(np.array([0.0, 0.0, 1.0]), 0.0),
    ))
    assert contains(ss, np.array([0.6, 0.8, -1.0]))
    assert not contains(ss, np.array([0.6, 0.81, -1.0]))  # 0.36 + 0.6561 > 1
    assert not contains(ss, np.array([0.6, 0.8, 0.5]))


def test_sparse_set_validates_support():
    with pytest.raises(ParameterError):
        SparseConvexSet(p=3, s=1, pieces=(SparseBall((0, 1), np.zeros(2), 1.0),))


def test_expand():
    po = Polytope(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 2.0]))
    assert expand(po, 0.0) is po
    e = expand(po, 0.25)
    assert np.array_equal(e.offsets, np.array([1.25, 2.25]))
    square = Polytope(
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.ones(4)
    )
    assert np.all(expand(square, 0.5).offsets == 1.5)
    with pytest.raises(ParameterError):
        expand(po, -0.1)


def test_expand_additivity_exact():
    po = Polytope(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.3, -0.7]))
    a = expand(expand(po, 0.25), 0.5)
    b = expand(po, 0.75)
    assert np.array_equal(a.offsets, b.offsets)


def test_expansion_monotone():
    po = Polytope(np.array([[1.0, 0.0], [-0.6, 0.8]]), np.array([0.2, 0.1]))
    pts = 3.0 * (2.0 * rng.to_uniform(rng.word_grid(
        rng.mix64_array(5, np.arange(500, dtype=np.uint64)), 2)) - 1.0)
    inner = po.contains_batch(pts)
    outer = expand(po, 0.4).contains_batch(pts)
    assert np.all(outer[inner])


def test_disk_approximation_closed_forms():
    d = approximate_ball((0, 1), np.zeros(2), 1.0, 0.5, 2)
    assert d.m == 3
    assert np.allclose(d.offsets, 0.5)

    d = approximate_ball((0, 1), np.zeros(2), 1.0, 0.01, 2)
    assert d.m == 23
    assert np.allclose(d.offsets, math.cos(math.pi / 23))
    # vertices (adjacent facet intersections) sit on the unit circle
    assert abs(d.offsets[0] / math.cos(math.pi / d.m) - 1.0) < 1e-9

    # m depends only on eps / r
    d2 = approximate_ball((0, 1), np.zeros(2), 2.0, 0.02, 2)
    assert d2.m == 23


def test_ball_normals_unit_and_sparse():
    d = approximate_ball((1, 3), np.array([0.5, -0.5]), 1.0, 0.05, 5)
    assert np.max(np.abs(np.linalg.norm(d.normals, axis=1) - 1.0)) < 1e-12
    support = np.count_nonzero(d.normals, axis=1)
    assert np.all(support <= 2)
    assert np.all(d.normals[:, [0, 2, 4]] == 0.0)


def test_ball_approximation_errors():
    with pytest.raises(ParameterError):
        approximate_ball((0, 1), np.zeros(2), 1.0, 1.0, 2)
    with pytest.raises(ParameterError):
        approximate_ball((0, 1, 2, 3), np.zeros(4), 1.0, 0.1, 5)


def test_three_dim_ball_covering_verified():
    ball = approximate_ball((0, 1, 2), np.zeros(3), 1.0, 0.05, 3)
    theta = covering_angle(ball.normals)
    assert 1.0 * (1.0 - math.cos(theta)) <= 0.05
    sset = SparseConvexSet(p=3, s=3, pieces=(SparseBall((0, 1, 2), np.zeros(3), 1.0),))
    assert sandwich_check(ball, sset, 0.05, 20_000, 1.3, 21) == 0


def test_fibonacci_sphere_unit_norm():
    pts = fibonacci_sphere(200)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12


def test_to_polytope_composition():
    hs = SparseConvexSet(p=2, s=1, pieces=(SparseHalfspace(np.array([1.0, 0.0]), 0.7),))
    poly = to_polytope(hs, 0.5)
    assert poly.m == 1 and poly.offsets[0] == 0.7

    disk = unit_disk()
    assert to_polytope(disk, 0.01).m == 23

    boxed = SparseConvexSet(p=2, s=2, pieces=(
        SparseBall((0, 1), np.zeros(2), 1.0),
        SparseHalfspace(np.array([1.0, 0.0]), 1.0),
        SparseHalfspace(np.array([-1.0, 0.0]), 1.0),
        SparseHalfspace(np.array([0.0, 1.0]), 1.0),
        SparseHalfspace(np.array([0.0, -1.0]), 1.0),
    ))
    assert to_polytope(boxed, 0.01).m == 27


def test_sandwich_disk():
    disk = unit_disk()
    inner = approximate_ball((0, 1), np.zeros(2), 1.0, 0.01, 2)
    assert sandwich_check(inner, disk, 0.01, 20_000, 1.25, 123) == 0
    assert sandwich_check(inner, disk, 0.005, 20_000, 1.25, 123) > 0


def test_sandwich_exact_halfspace_representation():
    sset = SparseConvexSet(p=2, s=1, pieces=(
        SparseHalfspace(np.array([1.0, 0.0]), 0.3),
        SparseHalfspace(np.array([0.0, -1.0]), 0.4),
    ))
    inner = to_polytope(sset, 1e-6)
    assert sandwich_check(inner, sset, 1e-6, 20_000, 2.0, 9) == 0


def test_sample_rectangles_reproducible_and_well_formed():
    fam = sample_rectangles(4, 30, np.ones(4), 77)
    fam2 = sample_rectangles(4, 30, np.ones(4), 77)
    assert len(fam) == 30
    for a, b in zip(fam.sets, fam2.sets):
        assert np.array_equal(a.lower, b.lower) and np.array_equal(a.upper, b.upper)
    for s in fam.sets:
        bounded = np.isfinite(s.lower) & np.isfinite(s.upper)
        assert np.all(s.lower[bounded] < s.upper[bounded])
    # forced max-type member
    last = fam.sets[-1]
    assert np.all(np.isneginf(last.lower))
    assert np.ptp(last.upper) == 0.0
    assert fam.labels[-1].endswith(":max")


def test_sample_rectangles_unbounded_fraction():
    fam = sample_rectangles(2, 100, np.ones(2), 99)
    unbounded = sum(int(np.isinf(s.lower).sum() + np.isinf(s.upper).sum())
                    for s in fam.sets)
    sides = 2 * 2 * 100
    frac = unbounded / sides
    assert abs(frac - 0.5) <= 5.0 * math.sqrt(0.25 / sides)


def test_single_rectangle_family():
    fam = sample_rectangles(3, 1, np.ones(3), 5)
    assert len(fam) == 1
    assert np.all(np.isneginf(fam.sets[0].lower))


def test_hit_counts_matches_direct_evaluation():
    fam = sample_rectangles(6, 25, np.ones(6), 31)
    keys = rng.mix64_array(8, np.arange(4000, dtype=np.uint64))
    pts = rng.to_normal(rng.word_grid(keys, 6))
    fast = hit_counts(fam, pts)
    direct = np.array([int(s.contains_batch(pts).sum()) for s in fam.sets])
    assert np.array_equal(fast, direct)


@pytest.mark.parametrize("p", [3, 100, 1000])
def test_max_type_hit_count_matches_coordinate_loop(p):
    # the row-max count of the max-type member equals the survivor loop
    fam = sample_rectangles(p, 10, np.ones(p), 41)
    assert fam.sets[-1].max_level is not None
    keys = rng.mix64_array(12, np.arange(2000, dtype=np.uint64))
    pts = rng.to_normal(rng.word_grid(keys, p))
    loop = [_rect_hit_count(s, pts) for s in fam.sets]
    assert hit_counts(fam, pts).tolist() == loop
    assert 0 < loop[-1] < len(pts)


def test_max_type_hit_count_edge_cases():
    # NaN and infinite coordinates, t = -inf, and sets that only look max-type
    inf = np.inf
    pts = np.array([[0.0, 1.0], [np.nan, 0.0], [-inf, -inf], [2.0, 0.5]])
    sets = (Hyperrectangle(np.full(2, -inf), np.full(2, 1.0)),
            Hyperrectangle(np.full(2, -inf), np.full(2, inf)),
            Hyperrectangle(np.full(2, -inf), np.full(2, -inf)),
            Hyperrectangle(np.array([-inf, 0.0]), np.full(2, 1.0)),
            Hyperrectangle(np.full(2, -inf), np.array([1.0, 2.0])))
    assert [s.max_level for s in sets] == [1.0, None, -inf, None, None]
    fam = SetFamily(sets, tuple(f"s{k}" for k in range(len(sets))))
    assert hit_counts(fam, pts).tolist() == [_rect_hit_count(s, pts) for s in sets]


def test_family_requires_homogeneous_dimension():
    r2 = Hyperrectangle(np.zeros(2), np.ones(2))
    r3 = Hyperrectangle(np.zeros(3), np.ones(3))
    with pytest.raises(ParameterError):
        SetFamily((r2, r3), ("a", "b"))


def test_set_config_round_trips():
    rect = Hyperrectangle(np.array([-np.inf, 0.0]), np.array([1.5, np.inf]))
    cfg = set_to_config(rect)
    assert cfg["lower"][0] == "-inf" and cfg["upper"][1] == "inf"
    back = set_from_config(cfg)
    assert np.array_equal(back.lower, rect.lower)
    assert np.array_equal(back.upper, rect.upper)

    poly = approximate_ball((0, 1), np.array([0.1, 0.2]), 1.0, 0.2, 3)
    back = set_from_config(set_to_config(poly))
    assert np.array_equal(back.normals, poly.normals)
    assert np.array_equal(back.offsets, poly.offsets)

    sset = SparseConvexSet(p=3, s=2, pieces=(
        SparseBall((0, 2), np.array([0.0, 1.0]), 2.0),
        SparseHalfspace(np.array([0.0, 1.0, 0.0]), 0.5),
    ))
    back = set_from_config(set_to_config(sset))
    assert back.s == 2 and back.p == 3 and len(back.pieces) == 2

    fam = sample_rectangles(3, 5, np.ones(3), 1)
    back = family_from_config(family_to_config(fam))
    assert back.labels == fam.labels
    for a, b in zip(back.sets, fam.sets):
        assert np.array_equal(a.lower, b.lower)
