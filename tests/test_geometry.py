import dataclasses
import io
import json
import math

import numpy as np
import pytest
from scipy.special import ndtr

from hdclt import cli, rng, serialize
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
    expand,
    family_from_config,
    family_to_config,
    hit_counts,
    sample_rectangles,
    sandwich_check,
    set_from_config,
    set_to_config,
)


def unit_disk(p=2, s=2):
    return SparseConvexSet(p=p, s=s, pieces=(SparseBall((0, 1), np.zeros(2), 1.0),))


def contains(set_, w):
    return set_.contains_batch(np.array(w)[None])[0]


def test_contains_rectangle():
    r = Hyperrectangle(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert contains(r, [0.5, -0.2])
    assert contains(r, [1.0, 1.0])  # closed boundary
    assert not contains(r, [1.0001, 0.0])


def test_contains_polytope_boundary():
    po = Polytope(np.array([[1.0, 0.0]]), np.array([0.0]))
    assert contains(po, [0.0, 5.0])
    assert not contains(po, [1e-9, 5.0])


def test_contains_sparse_set():
    ss = SparseConvexSet(p=3, s=2, pieces=(
        SparseBall((0, 1), np.zeros(2), 1.0),
        SparseHalfspace((2,), np.array([1.0]), 0.0),
    ))
    assert contains(ss, [0.6, 0.8, -1.0])
    assert not contains(ss, [0.6, 0.81, -1.0])  # 0.36 + 0.6561 > 1
    assert not contains(ss, [0.6, 0.8, 0.5])


def test_sparse_set_validates_support():
    with pytest.raises(ParameterError):
        SparseConvexSet(p=3, s=1, pieces=(SparseBall((0, 1), np.zeros(2), 1.0),))


def test_coordinates_off_a_pieces_support_do_not_constrain_it():
    # {w : w_2 <= 2}: an infinite or NaN coordinate outside J = {2} leaves a
    # point inside, as an unconstrained rectangle side does
    inf = np.inf
    sset = SparseConvexSet(p=3, s=1, pieces=(SparseHalfspace((2,), np.array([1.0]), 2.0),))
    pts = np.array([[inf, 0.0, 0.0], [-inf, 0.0, 0.0], [0.0, inf, 1.0],
                    [np.nan, -inf, 2.0], [inf, 0.0, 3.0], [0.0, 0.0, inf]])
    assert sset.contains_batch(pts).tolist() == [True, True, True, True, False, False]
    family = SetFamily((sset,), ("half",))
    assert hit_counts(family, pts).tolist() == [4]


def random_sparse_pieces(p, s, K, gen):
    """K pieces on random supports of 1 to s coordinates, halfspaces and balls
    alternating, each with its dense form: a function of the points giving
    the piece's membership and its value before the comparison."""
    pieces, dense = [], []
    for k in range(K):
        J = tuple(gen.choice(p, gen.integers(1, s + 1), replace=False).tolist())
        if k % 2 == 0:
            w = gen.standard_normal(len(J))
            pieces.append(SparseHalfspace(J, w / np.linalg.norm(w), gen.normal()))
            v = np.zeros(p)
            v[list(J)] = pieces[-1].w
            dense.append(lambda pts, v=v, c=pieces[-1].c: (pts @ v <= c, pts @ v - c))
        else:
            pieces.append(SparseBall(J, 0.5 * gen.standard_normal(len(J)), gen.uniform(0.5, 2.5)))
            dense.append(lambda pts, b=pieces[-1]: (
                ((pts[:, list(b.indices)] - b.center) ** 2).sum(axis=-1) <= b.radius**2, None))
    return pieces, dense


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 50, 1000])
def test_sparse_pieces_count_as_their_dense_form(p, s):
    gen = np.random.default_rng(10 * p + s)
    pieces, dense = random_sparse_pieces(p, s, 40, gen)
    points = gen.standard_normal((2000, p)) * gen.uniform(0.2, 3.0, (2000, 1))
    for k, piece in enumerate(pieces):  # rows on, and 1e-12 outside, halfspace k's face
        if isinstance(piece, SparseHalfspace):
            points[k, list(piece.indices)] = piece.c * piece.w
            points[40 + k, list(piece.indices)] = (piece.c + 1e-12) * piece.w
    singles = [SparseConvexSet(p=p, s=s, pieces=(piece,)) for piece in pieces]
    inside = [single.contains_batch(points) for single in singles]
    for piece, ins, oracle in zip(pieces, inside, dense):
        expect, gap = oracle(points)
        differ = np.flatnonzero(ins != expect)
        if differ.size:  # only within a few ulps of a halfspace's face
            assert gap is not None, piece
            x = points[differ][:, list(piece.indices)]
            tol = 4 * s * np.finfo(float).eps * (np.abs(x) @ np.abs(piece.w) + abs(piece.c))
            assert np.all(np.abs(gap[differ]) <= tol)
        assert 0 < np.count_nonzero(ins) < len(points)
    family = SetFamily(tuple(singles), tuple(f"k{k}" for k in range(len(singles))))
    assert hit_counts(family, points).tolist() == [int(np.count_nonzero(i)) for i in inside]
    whole = SparseConvexSet(p=p, s=s, pieces=tuple(pieces[:4]))
    assert np.array_equal(whole.contains_batch(points), np.logical_and.reduce(inside[:4]))


def test_sparse_family_holds_O_of_Ks_numbers():
    # p = 10**5 with K = 100 pieces of s = 2: a dense normal would hold p
    p, s, K = 100_000, 2, 100
    pieces, _ = random_sparse_pieces(p, s, K, np.random.default_rng(5))
    family = SetFamily(tuple(SparseConvexSet(p=p, s=s, pieces=tuple(pieces[i:i + 10]))
                             for i in range(0, K, 10)), tuple(f"f{i}" for i in range(10)))
    held = sum(np.size(getattr(pc, f.name)) for pc in pieces for f in dataclasses.fields(pc))
    assert held <= 3 * K * s
    text = serialize.dumps(family_to_config(family))
    assert len(text) <= 100 * 3 * K * s
    back = family_from_config(json.loads(text))
    assert set_to_config(back.sets[3]) == set_to_config(family.sets[3])


def test_halfspace_config_needs_w_not_v(tmp_path):
    # the dense normal v is gone: a config giving it exits 2 naming the missing w
    cfg = {"seed": 3, "out": str(tmp_path / "rho.json"), "n": 20, "R": 1000,
           "design": {"kind": "rademacher", "p": 3},
           "family": {"p": 3, "sets": [{"label": "h", "kind": "sparse", "p": 3, "s": 1,
                                        "pieces": [{"type": "halfspace", "v": [0.0, 0.0, 1.0],
                                                    "c": 0.5}]}]}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    code = cli.run(["estimate-rho", "--config", str(path)], stdout=io.StringIO(), stderr=err)
    assert code == 2
    assert "family.sets[0].pieces[0].w" in err.getvalue()
    assert not (tmp_path / "rho.json").exists()


@pytest.mark.parametrize("piece,message", [
    ({"type": "halfspace", "J": [0, 2], "w": [0.6, 0.9], "c": 0.5},
     "family.sets[0].pieces[1]: halfspace normal must be a unit vector"),
    ({"type": "halfspace", "J": [2, 2], "w": [0.6, 0.8], "c": 0.5},
     "family.sets[0].pieces[1]: piece indices (2, 2) must be distinct, in [0, 3)"),
    ({"type": "ball", "J": [1], "center": [0.0], "radius": -1.0},
     "family.sets[0].pieces[1]: ball radius must be positive"),
    ({"type": "ball", "J": [0, 1], "center": [0.0, 0.0], "radius": 1.0},
     "family.sets[0].pieces[1]: piece depends on 2 coordinates, more than s=1"),
])
def test_bad_sparse_piece_exits_2_naming_its_path(tmp_path, piece, message):
    cfg = {"seed": 3, "out": str(tmp_path / "rho.json"), "n": 20, "R": 1000,
           "design": {"kind": "rademacher", "p": 3},
           "family": {"p": 3, "sets": [{"label": "h", "kind": "sparse", "p": 3, "s": 1,
                                        "pieces": [{"type": "halfspace", "J": [0],
                                                    "w": [1.0], "c": 0.5}, piece]}]}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    code = cli.run(["estimate-rho", "--config", str(path)], stdout=io.StringIO(), stderr=err)
    assert code == 2
    assert f"error: {message}" in err.getvalue()
    assert not (tmp_path / "rho.json").exists()


@pytest.mark.parametrize("entry,message", [
    ({"kind": "rect", "lower": [0.0, 0.0, 0.0], "upper": [1.0, 1.0]},
     "family.sets[0]: rectangle bounds must be 1-d arrays of equal length"),
    ({"kind": "polytope", "facets": [{"v": [1.0, 1.0, 0.0], "c": 0.0}]},
     "family.sets[0]: facet normals must be unit vectors within 1e-12"),
    ({"kind": "sparse", "p": 3, "s": 1, "pieces": []},
     "family.sets[0]: sparse set needs at least one piece"),
])
def test_bad_set_exits_2_naming_its_path(tmp_path, entry, message):
    cfg = {"seed": 3, "out": str(tmp_path / "rho.json"), "n": 20, "R": 1000,
           "design": {"kind": "rademacher", "p": 3},
           "family": {"p": 3, "sets": [dict(label="a", **entry)]}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    code = cli.run(["estimate-rho", "--config", str(path)], stdout=io.StringIO(), stderr=err)
    assert code == 2
    assert f"error: {message}" in err.getvalue()


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
        rng.words(5, 500), 2)) - 1.0)
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
    for idx in ((0, 1, 2), (0, 1, 2, 3)):  # only a disk has a cover
        with pytest.raises(ParameterError, match="supports 2 coordinates"):
            approximate_ball(idx, np.zeros(len(idx)), 1.0, 0.1, 5)


def test_sandwich_disk():
    disk = unit_disk()
    inner = approximate_ball((0, 1), np.zeros(2), 1.0, 0.01, 2)
    assert sandwich_check(inner, disk, 0.01, 20_000, 1.25, 123) == 0
    assert sandwich_check(inner, disk, 0.005, 20_000, 1.25, 123) > 0


def test_sandwich_exact_halfspace_representation():
    sset = SparseConvexSet(p=2, s=1, pieces=(
        SparseHalfspace((0,), np.array([1.0]), 0.3),
        SparseHalfspace((1,), np.array([-1.0]), 0.4),
    ))
    inner = Polytope(np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([0.3, 0.4]))
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
    keys = rng.words(8, 4000)
    pts = rng.to_normal(rng.word_grid(keys, 6))
    fast = hit_counts(fam, pts)
    direct = np.array([int(s.contains_batch(pts).sum()) for s in fam.sets])
    assert np.array_equal(fast, direct)


@pytest.mark.parametrize("p", [3, 100, 1000])
def test_max_type_hit_count_matches_coordinate_loop(p):
    # the row-max count of the max-type member equals the survivor loop
    fam = sample_rectangles(p, 10, np.ones(p), 41)
    assert fam.sets[-1].max_level is not None
    keys = rng.words(12, 2000)
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


def random_rectangles(p, K, seed):
    """K rectangles of every shape the hit counts treat apart: whole-space,
    empty (a pair lo > hi), max-type, half-bounded and two-sided sides."""
    gen = np.random.default_rng(seed)
    sets = []
    for k in range(K):
        lo = -gen.uniform(0.5, 4.0, p)
        hi = gen.uniform(0.5, 4.0, p)
        lo[gen.random(p) < 0.5] = -np.inf
        hi[gen.random(p) < 0.5] = np.inf
        shape = k % 5
        if shape == 0:
            lo[:], hi[:] = -np.inf, np.inf
        elif shape == 1:
            j = gen.integers(p)
            lo[j], hi[j] = 0.5, -0.5
        elif shape == 2:
            lo[:], hi[:] = -np.inf, gen.uniform(0.0, 3.0)
        sets.append(Hyperrectangle(lo, hi))
    return SetFamily(tuple(sets), tuple(f"r{k}" for k in range(K)))


@pytest.mark.parametrize("p", [3, 50])
def test_hit_counts_equal_brute_force_membership(p):
    family = random_rectangles(p, 200, p)
    gen = np.random.default_rng(100 + p)
    points = gen.standard_normal((3000, p))
    points[gen.random(points.shape) < 0.002] = np.nan
    points[:20, 0] = np.nan  # NaN where a set is bounded, and where it is not
    points[20:30] = np.inf * np.sign(gen.standard_normal((10, p)))
    expect = [int(np.count_nonzero(s.contains_batch(points))) for s in family.sets]
    assert hit_counts(family, points).tolist() == expect
    assert expect[0] == len(points)  # whole space: every row, NaN rows too
    assert expect[1] == 0  # empty
    assert any(0 < c < len(points) for c in expect[2::5])  # max-type
    assert any(0 < c < len(points) for c in expect[3::5])


def test_sweep_lists_the_bounded_coordinates_narrowest_first():
    inf = np.inf
    rect = Hyperrectangle(np.array([-inf, 0.0, -1.0, -inf, 2.0, -1.0]),
                          np.array([0.0, inf, 1.0, inf, 1.0, 1.0]))
    # contents 1/2, 1/2, 0.68, unbounded, empty, 0.68: ties keep index order
    assert rect.narrowest_first == (4, 0, 1, 2, 5)
    for s in random_rectangles(50, 200, 7).sets:
        bounded = [j for j in range(s.p) if s.lower[j] > -inf or s.upper[j] < inf]
        content = {j: ndtr(s.upper[j]) - ndtr(s.lower[j]) for j in bounded}
        assert s.narrowest_first == tuple(sorted(bounded, key=lambda j: (content[j], j)))


def test_family_requires_homogeneous_dimension():
    r2 = Hyperrectangle(np.zeros(2), np.ones(2))
    r3 = Hyperrectangle(np.zeros(3), np.ones(3))
    with pytest.raises(ParameterError):
        SetFamily((r2, r3), ("a", "b"))


def test_set_config_round_trips():
    rect = Hyperrectangle(np.array([-np.inf, 0.0]), np.array([1.5, np.inf]))
    cfg = set_to_config(rect)
    assert serialize.dumps(cfg) == '{"kind":"rect","lower":["-inf",0],"upper":[1.5,"inf"]}\n'
    back = set_from_config(cfg)
    assert np.array_equal(back.lower, rect.lower)
    assert np.array_equal(back.upper, rect.upper)

    poly = approximate_ball((0, 1), np.array([0.1, 0.2]), 1.0, 0.2, 3)
    back = set_from_config(set_to_config(poly))
    assert np.array_equal(back.normals, poly.normals)
    assert np.array_equal(back.offsets, poly.offsets)

    sset = SparseConvexSet(p=3, s=2, pieces=(
        SparseBall((0, 2), np.array([0.0, 1.0]), 2.0),
        SparseHalfspace((1,), np.array([1.0]), 0.5),
    ))
    back = set_from_config(set_to_config(sset))
    assert back.s == 2 and back.p == 3 and len(back.pieces) == 2

    fam = sample_rectangles(3, 5, np.ones(3), 1)
    back = family_from_config(family_to_config(fam))
    assert back.labels == fam.labels
    for a, b in zip(back.sets, fam.sets):
        assert np.array_equal(a.lower, b.lower)


@pytest.mark.parametrize("cfg", [
    {"kind": "rect", "lower": [True], "upper": [1.0]},
    {"kind": "rect", "lower": 0.0, "upper": [1.0]},
    {"kind": "polytope", "facets": [{"v": ["1"], "c": 0.0}]},
    {"kind": "sparse", "p": 3, "s": 1.5,
     "pieces": [{"type": "ball", "J": [0], "center": [0.0], "radius": 1.0}]},
    {"kind": "sparse", "p": 3, "s": 1,
     "pieces": [{"type": "ball", "J": [0.5], "center": [0.0], "radius": 1.0}]},
], ids=["bool_bound", "scalar_bounds", "string_normal", "fractional_s", "fractional_index"])
def test_set_config_values_are_typed(cfg):
    with pytest.raises(ParameterError):
        set_from_config(cfg)


def test_family_config_needs_labelled_sets():
    rect = {"kind": "rect", "lower": ["-inf"], "upper": [0.0]}
    for cfg in ({"p": 1, "sets": 5}, {"p": 1, "sets": [rect]}, {"p": 1, "sets": [5]}):
        with pytest.raises(ParameterError):
            family_from_config(cfg)


def mixed_family(p=4):
    # one member of each kind a family config names, each holding some of
    # the standard normal points below
    return SetFamily((
        Hyperrectangle(np.array([-1.0, -np.inf, -0.5, -np.inf]),
                       np.array([1.0, 0.5, np.inf, np.inf])),
        Hyperrectangle(np.full(p, -np.inf), np.full(p, 0.8)),  # max-type
        approximate_ball((0, 1), np.array([0.2, -0.1]), 1.0, 0.2, p),
        SparseConvexSet(p=p, s=2, pieces=(
            SparseHalfspace((2, 3), np.array([0.6, 0.8]), 0.5),
            SparseBall((1, 3), np.array([0.0, 0.2]), 1.2),
        )),
    ), ("rect", "max", "polytope", "sparse"))


def test_hit_counts_of_a_mixed_family_match_membership():
    family = mixed_family()
    points = np.random.default_rng(2).standard_normal((2000, 4))
    expect = [int(np.count_nonzero(s.contains_batch(points))) for s in family.sets]
    assert all(0 < c < len(points) for c in expect)
    assert hit_counts(family, points).tolist() == expect


def test_estimate_rho_reports_every_member_of_a_mixed_family(tmp_path):
    family = mixed_family()
    cfg = {"seed": 3, "out": str(tmp_path / "rho.json"), "n": 20, "R": 1000,
           "design": {"kind": "rademacher", "p": 4}, "family": family_to_config(family)}
    path = tmp_path / "c.json"
    path.write_text(serialize.dumps(cfg))  # infinite bounds as "inf" and "-inf"
    err = io.StringIO()
    code = cli.run(["estimate-rho", "--config", str(path)], stdout=io.StringIO(), stderr=err)
    assert code == 0, err.getvalue()
    rows = json.loads((tmp_path / "rho.json").read_text())["estimate"]["per_set"]
    assert [row["label"] for row in rows] == list(family.labels)
