import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from hdclt import rng
from hdclt.datagen import (
    CovarianceModel,
    Dataset,
    DesignSpec,
    population_moments,
    read_dataset,
    sample_dataset,
    values_from_row_keys,
    write_dataset,
)
from hdclt.errors import ParameterError
from hdclt.geometry import hit_counts, sample_rectangles
from hdclt.montecarlo import noise_floor
from hdclt.sums import gaussian_draw_batch

ALL_DESIGNS = [
    DesignSpec(kind="rademacher", p=3),
    DesignSpec(kind="trunc_exp", p=3, scale=1.0),
    DesignSpec(kind="heavy_tail", p=3, scale=1.0, tail_index=5.0),
    DesignSpec(kind="gaussian", p=3),
    DesignSpec(kind="gaussian", p=3, covariance=CovarianceModel("equicorrelated", 0.5)),
    DesignSpec(kind="gaussian", p=4, covariance=CovarianceModel("ar1", 0.5)),
    DesignSpec(kind="log_concave", p=3, variant="uniform"),
    DesignSpec(kind="log_concave", p=3, variant="gaussian"),
    DesignSpec(kind="heavy_tail", p=3, scale=1.0, tail_index=5.0, standardize=True),
    DesignSpec(kind="trunc_exp", p=3, scale=1.0, standardize=True),
]


def test_invalid_designs_rejected():
    with pytest.raises(ParameterError):
        DesignSpec(kind="heavy_tail", p=3, scale=1.0, tail_index=4.0)
    with pytest.raises(ParameterError):
        DesignSpec(kind="heavy_tail", p=3, scale=1.0)
    with pytest.raises(ParameterError):
        DesignSpec(kind="rademacher", p=2)
    with pytest.raises(ParameterError):
        DesignSpec(kind="rademacher", p=3, covariance=CovarianceModel("ar1", 0.5))
    with pytest.raises(ParameterError):
        CovarianceModel("equicorrelated", 1.0)
    with pytest.raises(ParameterError):
        CovarianceModel("identity", 0.5)
    with pytest.raises(ParameterError):
        DesignSpec(kind="gaussian", p=3, scale=2.0)
    with pytest.raises(ParameterError):
        DesignSpec(kind="log_concave", p=3)
    with pytest.raises(ParameterError):
        sample_dataset(DesignSpec(kind="rademacher", p=3), 1, 0)


@pytest.mark.parametrize("kind, scale, extra", [
    ("trunc_exp", 1e-60, {}),
    ("trunc_exp", 1e60, {}),
    ("trunc_exp", 1e100, {"standardize": True}),
    ("log_concave", 1e60, {"variant": "uniform"}),
])
def test_design_rejects_moments_outside_the_float_range(kind, scale, extra):
    message = f"design {kind!r} with scale {scale!r} has moments outside the float range"
    with pytest.raises(ParameterError, match=re.escape(message)):
        DesignSpec(kind=kind, p=5, scale=scale, **extra)


def test_overflowing_exponential_moment_fails_E1():
    # the uniform cube's E exp(|X| / B_n) = expm1(h t) / (h t) at h t = 1291
    m = population_moments(DesignSpec(kind="log_concave", p=5, variant="uniform", scale=1e-3))
    assert m.e1_value == math.inf
    assert m.condition_flags["E.1"] == "fails"


def test_rademacher_support():
    ds = sample_dataset(DesignSpec(kind="rademacher", p=3), 4, 7)
    assert ds.values.shape == (4, 3)
    assert set(np.unique(ds.values)) <= {-1.0, 1.0}


def test_gaussian_column_means_centered():
    ds = sample_dataset(DesignSpec(kind="gaussian", p=3), 100_000, 1)
    assert np.all(np.abs(ds.values.mean(axis=0)) < 4.0 / math.sqrt(100_000))


def test_heavy_tail_polynomial_moment_against_quadrature_oracle():
    q, p = 5.0, 3
    design = DesignSpec(kind="heavy_tail", p=p, scale=1.0, tail_index=q)
    report = population_moments(design)

    # oracle: exact inclusion-exclusion series for E[(max of p Pareto(a))^q]
    # with a = q + 1: 1 + sum_k C(p,k) (-1)^(k+1) q / (a k - q)
    a = q + 1.0
    emax_oracle = 1.0 + sum(
        math.comb(p, k) * (-1.0) ** (k + 1) * q / (a * k - q) for k in range(1, p + 1)
    )
    c_oracle = report.B_n * (1.8 / emax_oracle) ** (1.0 / q)
    assert report.e2_value == pytest.approx(1.8)
    assert report.b_lower == pytest.approx(c_oracle**2 * a / (a - 2.0), rel=1e-8)

    ds = sample_dataset(design, 100_000, 2)
    w = (np.abs(ds.values).max(axis=1) / report.B_n) ** q
    se = w.std(ddof=1) / math.sqrt(len(w))
    assert w.mean() <= 2.0 * (1.0 + 5.0 * se)


def test_rademacher_population_moments():
    m = population_moments(DesignSpec(kind="rademacher", p=3))
    assert (m.b_lower, m.B_n, m.L_n_population) == (1.0, 1.0, 1.0)
    assert np.array_equal(m.sigma.matrix, np.eye(3))
    assert m.condition_flags["M.1"] == "holds"
    assert m.condition_flags["M.2"] == "holds"
    assert m.condition_flags["E.2"] == "holds"


def test_gaussian_third_moment_against_quadrature_oracle():
    m = population_moments(DesignSpec(kind="gaussian", p=3))
    oracle = quad(lambda x: abs(x) ** 3 * math.exp(-x * x / 2.0) / math.sqrt(2 * math.pi),
                  -np.inf, np.inf)[0]
    assert m.L_n_population == pytest.approx(oracle, rel=1e-9)
    assert m.L_n_population == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-12)


def test_equicorrelated_sigma():
    m = population_moments(
        DesignSpec(kind="gaussian", p=3, covariance=CovarianceModel("equicorrelated", 0.5))
    )
    expect = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]])
    assert np.array_equal(m.sigma.matrix, expect)


def test_trunc_exp_exponential_moment_is_two():
    m = population_moments(DesignSpec(kind="trunc_exp", p=3, scale=1.0))
    assert m.e1_value == pytest.approx(2.0)
    assert m.condition_flags["E.1"] == "holds"


def _abs_density_oracle(design, B_n):
    # E exp(|X| / B_n) by quadrature over the density of |X|, rebuilt from
    # the transform in values_from_row_keys and any standardization
    if design.kind == "trunc_exp":
        # |X| ~ Exp(mean lam) with lam = scale / 2, and sd = sqrt(2) lam
        lam = 1.0 / math.sqrt(2.0) if design.standardize else design.scale / 2.0
        return quad(lambda x: math.exp(x / B_n - x / lam) / lam, 0.0, np.inf)[0]
    if design.kind == "gaussian":
        return 2.0 * quad(lambda x: math.exp(x / B_n - x * x / 2.0) / math.sqrt(2 * math.pi),
                          0.0, np.inf)[0]
    h = math.sqrt(3.0) * (1.0 if design.standardize else design.scale)  # |X| ~ U(0, h)
    return quad(lambda x: math.exp(x / B_n) / h, 0.0, h)[0]


@pytest.mark.parametrize("design", [
    DesignSpec(kind="trunc_exp", p=3, scale=1.0),
    DesignSpec(kind="trunc_exp", p=3, scale=0.7, standardize=True),
    DesignSpec(kind="gaussian", p=3),
    DesignSpec(kind="log_concave", p=3, variant="uniform", scale=0.5),
    DesignSpec(kind="log_concave", p=3, variant="uniform", scale=3.0, standardize=True),
], ids=lambda d: d.kind + ("-std" if d.standardize else ""))
def test_exponential_moment_against_quadrature_oracle(design):
    m = population_moments(design)
    assert m.e1_value == pytest.approx(_abs_density_oracle(design, m.B_n), rel=1e-9)


def test_exponential_moment_of_signs_and_polynomial_tails():
    m = population_moments(DesignSpec(kind="rademacher", p=3))
    assert m.e1_value == math.exp(1.0 / m.B_n)  # |X| = 1 surely
    design = DesignSpec(kind="heavy_tail", p=3, tail_index=5.0)
    m = population_moments(design)
    assert m.e1_value == math.inf
    # |X| is Pareto(a = q + 1) above c, with variance c^2 a / (a - 2); the
    # quadrature of E exp(|X| / B_n) over [c, c + 200 B_n] alone is past any bound
    a = design.tail_index + 1.0
    c = math.sqrt(m.b_lower * (a - 2.0) / a)
    head = quad(lambda x: math.exp(x / m.B_n) * a * c**a * x ** (-a - 1.0),
                c, c + 200.0 * m.B_n, limit=200)[0]
    assert head > 1e60


@pytest.mark.parametrize("design,bound", [
    (DesignSpec(kind="rademacher", p=3), 1.0),
    (DesignSpec(kind="rademacher", p=3, standardize=True), 1.0),
    (DesignSpec(kind="trunc_exp", p=3), None),
    (DesignSpec(kind="heavy_tail", p=3, tail_index=5.0), None),
    (DesignSpec(kind="gaussian", p=3), None),
    (DesignSpec(kind="log_concave", p=3, variant="gaussian"), None),
    (DesignSpec(kind="log_concave", p=3, variant="uniform", scale=0.5),
     0.5 * math.sqrt(3.0)),
    (DesignSpec(kind="log_concave", p=3, variant="uniform", scale=4.0, standardize=True),
     math.sqrt(3.0)),
], ids=lambda v: (v.kind + ("-std" if v.standardize else "")
                  if isinstance(v, DesignSpec) else str(v)))
def test_moment_report_bound(design, bound):
    m = population_moments(design)
    assert m.bound == bound
    if bound is not None:
        rows = sample_dataset(design, 2000, 6).values
        assert np.max(np.abs(rows)) <= bound


@pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda d: f"{d.kind}-{d.covariance.kind}-{d.variant}-{d.standardize}")
def test_centering_and_moment_fidelity(design):
    R = 100_000
    report = population_moments(design)
    ds = sample_dataset(design, R, 11)
    sd = np.sqrt(np.diag(report.sigma.matrix))

    means = ds.values.mean(axis=0)
    assert np.all(np.abs(means) <= 4.0 * sd / math.sqrt(R))

    # second and third moments within 5 sample standard errors of analytic
    sq = ds.values**2
    se2 = sq.std(axis=0, ddof=1) / math.sqrt(R)
    assert np.all(np.abs(sq.mean(axis=0) - np.diag(report.sigma.matrix)) <= 5 * se2)

    cube = np.abs(ds.values) ** 3
    se3 = cube.std(axis=0, ddof=1) / math.sqrt(R)
    assert np.all(np.abs(cube.mean(axis=0) - report.L_n_population) <= 5 * se3)


def test_trunc_exp_empirical_exponential_moment():
    design = DesignSpec(kind="trunc_exp", p=3, scale=1.0)
    report = population_moments(design)
    ds = sample_dataset(design, 100_000, 13)
    vals = np.exp(np.abs(ds.values) / report.B_n)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert vals.mean() <= 2.0 + 5.0 * se


def test_standardize_forces_unit_variance():
    design = DesignSpec(kind="heavy_tail", p=3, scale=1.0, tail_index=6.0, standardize=True)
    report = population_moments(design)
    assert report.b_lower == pytest.approx(1.0)
    ds = sample_dataset(design, 100_000, 17)
    assert np.all(np.abs(ds.values.var(axis=0) - 1.0) < 0.2)


def test_determinism_and_row_substreams():
    design = DesignSpec(kind="gaussian", p=4, covariance=CovarianceModel("ar1", 0.3))
    a = sample_dataset(design, 50, 99).values
    b = sample_dataset(design, 50, 99).values
    assert np.array_equal(a, b)
    # rows are pure functions of their keys: any subset reproduces bit-identically
    keys = rng.words(99, 50)
    sub = values_from_row_keys(design, keys[10:20])
    assert np.array_equal(sub, a[10:20])


def _literal_oracle(design, w):
    # the transforms of the non-gaussian designs, out of place: a magnitude
    # from u = (k + 0.5) * 2**-52 of k = w >> 12, the sign from bit 0 of w
    if design.kind == "rademacher":
        bits = np.unpackbits(
            np.ascontiguousarray(w).view(np.uint8), axis=-1, bitorder="little"
        )[..., :design.p]
        x = 1.0 - 2.0 * bits.astype(np.float64)
    else:
        u = ((w >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52
        sign = np.where(w & np.uint64(1), -1.0, 1.0)
        if design.kind == "trunc_exp":
            x = sign * (design.scale / 2.0 * -np.log(u))
        elif design.kind == "heavy_tail":
            x = sign * (design.law["c"] * u ** (-1.0 / design.law["a"]))
        else:
            x = sign * (math.sqrt(3.0) * design.scale * u)
    if design.standardize:
        x = x / math.sqrt(design.law["var"])
    return x


# k = w >> 12 is 0, 2**51 or 2**52 - 1 (the ends of to_uniform), bit 0 is 0 or 1
EDGE_WORDS = [0, 2**12 - 1, 2**12, 2**63, 2**64 - 2**12, 2**64 - 1]


def _edged(monkeypatch, seen):
    # rng.word_grid with the edge words at both ends of every grid it makes
    word_grid = rng.word_grid

    def edged(keys, count, **kwargs):
        w = word_grid(keys, count, **kwargs)
        flat = w.reshape(-1)
        flat[:len(EDGE_WORDS)] = flat[-len(EDGE_WORDS):] = EDGE_WORDS
        seen.append(w.copy())
        return w

    monkeypatch.setattr(rng, "word_grid", edged)


@pytest.mark.parametrize("p", [3, 64, 100, 130])
@pytest.mark.parametrize("design", [
    dict(kind="trunc_exp"),
    dict(kind="trunc_exp", scale=0.7),
    dict(kind="heavy_tail", tail_index=5.0),
    dict(kind="heavy_tail", tail_index=5.0, standardize=True),
    dict(kind="log_concave", variant="uniform"),
    dict(kind="rademacher"),
], ids=lambda d: "-".join(str(v) for v in d.values()))
def test_literal_transforms_match_oracle(monkeypatch, design, p):
    # the in-place transforms against the oracle on the same words, bit for
    # bit, with the edge words at both ends of a block: every value is finite
    design = DesignSpec(p=p, **design)
    seen = []
    _edged(monkeypatch, seen)
    keys = rng.words(4, 40).reshape(8, 5)
    x = values_from_row_keys(design, keys)
    want = _literal_oracle(design, seen[0])
    assert x.shape == want.shape == (8, 5, p)
    np.testing.assert_array_equal(x.view(np.uint64), want.view(np.uint64))
    assert np.all(np.isfinite(x))


@pytest.mark.parametrize("design", [
    dict(kind="gaussian"),
    dict(kind="trunc_exp"),
    dict(kind="heavy_tail", tail_index=4.5),
    dict(kind="heavy_tail", tail_index=50.0),
    dict(kind="log_concave", variant="uniform"),
], ids=lambda d: "-".join(str(v) for v in d.values()))
def test_edge_words_give_finite_values(monkeypatch, design):
    # stream 3 gave +inf (the normal, trunc_exp) and NaN (heavy_tail) here
    design = DesignSpec(p=6, **design)
    seen = []
    _edged(monkeypatch, seen)
    x = values_from_row_keys(design, rng.words(5, 3))
    assert seen and all(w.size >= len(EDGE_WORDS) for w in seen)
    assert np.all(np.isfinite(x))
    if design.kind != "gaussian":
        np.testing.assert_array_equal(x, _literal_oracle(design, seen[0]))


# stream 3's maps, the oracle of the law of the sign-magnitude values: a
# uniform of the top 53 bits in (0, 1], its symmetric v = 2u - 1, and the
# transforms of v, bit for bit as stream 3 made them
def _stream3_uniform(w):
    return ((w >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _stream3_symmetric(w):
    return 2.0 * _stream3_uniform(w) - 1.0


def _stream3_trunc_exp(v, law):
    return np.copysign(np.log1p(np.copysign(v, -1.0)) * law["lam"], v)


def _stream3_heavy_tail(v, law):
    return np.sign(v) * law["c"] * np.abs(v) ** (-1.0 / law["a"])


def _stream3_cube(v, law):
    return law["h"] * v


@pytest.mark.parametrize("design,stream3", [
    (dict(kind="trunc_exp", scale=1.3), _stream3_trunc_exp),
    (dict(kind="heavy_tail", tail_index=4.5), _stream3_heavy_tail),
    (dict(kind="heavy_tail", tail_index=50.0), _stream3_heavy_tail),
    (dict(kind="log_concave", variant="uniform", scale=1.3), _stream3_cube),
], ids=["trunc_exp", "heavy_tail-q4.5", "heavy_tail-q50", "uniform"])
def test_sign_magnitude_values_keep_the_stream3_law(design, stream3):
    from scipy.stats import ks_2samp

    design = DesignSpec(p=10, **design)
    n = 200_000
    old = stream3(_stream3_symmetric(rng.words(31, n)), design.law)
    new = values_from_row_keys(design, rng.words(32, n // design.p)).ravel()
    # the two-sample KS statistic below its 0.1% critical value
    assert ks_2samp(old, new).statistic < math.sqrt(-0.5 * math.log(0.0005)) * math.sqrt(2.0 / n)
    # the mean and the moments of population_moments, each within 5 standard
    # errors; a heavy tail's k-th moment only where its estimate has a variance
    m = population_moments(design)
    for x in (old, new):
        assert abs(x.mean()) < 5.0 * x.std() / math.sqrt(n)
        for k, want in ((2, m.b_lower), (3, m.L_n_population), (4, m.fourth_moment_max)):
            if design.kind == "heavy_tail" and 2 * k >= design.law["a"]:
                continue
            power = np.abs(x) ** k
            assert abs(power.mean() - want) < 5.0 * power.std() / math.sqrt(n), k


@pytest.mark.parametrize("p", [20, 100, 1000])
def test_ar1_rows_match_column_loop(p):
    # the AR(1) factor's recursion against the column loop it replaced
    r = 0.7
    design = DesignSpec(kind="gaussian", p=p, covariance=CovarianceModel("ar1", r))
    keys = rng.words(5, 64)
    z = rng.to_normal(rng.word_grid(keys, p))
    x = np.empty_like(z)
    x[..., 0] = z[..., 0]
    c = math.sqrt(1.0 - r**2)
    for j in range(1, p):
        x[..., j] = r * x[..., j - 1] + c * z[..., j]
    assert np.array_equal(values_from_row_keys(design, keys), x)
    assert np.array_equal(values_from_row_keys(design, keys.reshape(8, 8)),
                          x.reshape(8, 8, p))


def _one_factor(z, r):
    # the equicorrelated rows of stream 2, kept as a law oracle: from p + 1
    # normals per row, one shared z_0 and p own ones, sqrt(r) z_0 + sqrt(1 - r) z_j
    return math.sqrt(r) * z[..., :1] + math.sqrt(1.0 - r) * z[..., 1:]


@pytest.mark.parametrize("p", [3, 50, 1000])
@pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
def test_equicorrelated_rows_are_factor_draws(r, p):
    cov = CovarianceModel("equicorrelated", r)
    design = DesignSpec(kind="gaussian", p=p, covariance=cov)
    keys = rng.words(6, 64)
    # a row is a draw of the model's factor, p words per row, whatever the
    # shape of the keys
    rows = gaussian_draw_batch(cov.factor(p), keys)
    np.testing.assert_array_equal(values_from_row_keys(design, keys), rows)
    np.testing.assert_array_equal(values_from_row_keys(design, keys.reshape(8, 8)),
                                  rows.reshape(8, 8, p))
    # the one-factor map is z @ G.T with G G' the covariance: the same law
    G = _one_factor(np.eye(p + 1), r).T
    assert np.max(np.abs(G @ G.T - cov.matrix(p))) <= 1e-15


def test_equicorrelated_rows_match_the_one_factor_rows_in_law():
    # hit fractions of rows and of the oracle's rows, on independent words,
    # agree within the identical-law noise floor
    p, r, R, K = 50, 0.5, 20_000, 20
    design = DesignSpec(kind="gaussian", p=p, covariance=CovarianceModel("equicorrelated", r))
    family = sample_rectangles(p, K, np.ones(p), 3)
    rows = values_from_row_keys(design, rng.words(7, R))
    oracle = _one_factor(rng.to_normal(rng.word_grid(rng.words(8, R), p + 1)), r)
    diff = (hit_counts(family, rows) - hit_counts(family, oracle)) / R
    assert np.max(np.abs(diff)) <= noise_floor(R, K)


def test_dataset_file_round_trips(tmp_path):
    ds = sample_dataset(DesignSpec(kind="trunc_exp", p=4, scale=1.0), 30, 5)
    binp = tmp_path / "d.bin"
    csvp = tmp_path / "d.csv"
    write_dataset(ds, str(binp))
    write_dataset(ds, str(csvp))
    assert binp.read_bytes()[:4] == b"HDCB"
    assert np.array_equal(read_dataset(str(binp)).values, ds.values)
    assert np.array_equal(read_dataset(str(csvp)).values, ds.values)
    header = csvp.read_text().splitlines()[0]
    assert header == "x1,x2,x3,x4"


def test_dataset_csv_bytes(tmp_path):
    path = tmp_path / "d.csv"
    write_dataset(Dataset(np.array([[1.0, -0.5], [0.1, 2e-20]])), str(path))
    assert path.read_bytes() == b"x1,x2\n1,-0.5\n0.10000000000000001,1.9999999999999999e-20\n"


def test_gaussian_law_flag():
    gaussian = [d for d in ALL_DESIGNS if d.gaussian]
    assert [(d.kind, d.variant) for d in gaussian] == (
        [("gaussian", None)] * 3 + [("log_concave", "gaussian")])


def test_design_config_round_trip():
    # one config per entry of ALL_DESIGNS, in order; the first spells out
    # every default, the others only what differs from it
    configs = [
        {"kind": "rademacher", "p": 3, "covariance": {"model": "identity"},
         "scale": 1.0, "standardize": False},
        {"kind": "trunc_exp", "p": 3, "scale": 1.0},
        {"kind": "heavy_tail", "p": 3, "scale": 1.0, "tail_index": 5.0},
        {"kind": "gaussian", "p": 3},
        {"kind": "gaussian", "p": 3, "covariance": {"model": "equicorrelated", "r": 0.5}},
        {"kind": "gaussian", "p": 4, "covariance": {"model": "ar1", "r": 0.5}},
        {"kind": "log_concave", "p": 3, "variant": "uniform"},
        {"kind": "log_concave", "p": 3, "variant": "gaussian"},
        {"kind": "heavy_tail", "p": 3, "scale": 1.0, "tail_index": 5.0, "standardize": True},
        {"kind": "trunc_exp", "p": 3, "scale": 1.0, "standardize": True},
    ]
    assert len(configs) == len(ALL_DESIGNS)
    for cfg, design in zip(configs, ALL_DESIGNS):
        assert DesignSpec.from_config(cfg) == design


@pytest.mark.parametrize("cfg", [
    {"kind": "trunc_exp", "p": 4, "standardize": "false"},
    {"kind": "trunc_exp", "p": 4, "standardize": 0},
    {"kind": "trunc_exp", "p": 4.5},
    {"kind": "trunc_exp", "p": 4, "scale": "2"},
    {"kind": "heavy_tail", "p": 4, "tail_index": "5"},
    {"kind": "gaussian", "p": 4, "covariance": {"model": "ar1", "r": "0.5"}},
], ids=["standardize_string", "standardize_zero", "p_fraction", "scale_string",
        "tail_index_string", "r_string"])
def test_design_config_values_are_typed(cfg):
    # each was coerced by int(), float() or bool(), or raised a TypeError
    with pytest.raises(ParameterError):
        DesignSpec.from_config(cfg)

