import math

import numpy as np
import pytest
from scipy.integrate import quad

from hdclt import rng
from hdclt.datagen import (
    CovarianceModel,
    Dataset,
    DesignSpec,
    MomentReport,
    population_moments,
    read_dataset,
    sample_dataset,
    values_from_row_keys,
    verify_conditions,
    write_dataset,
)
from hdclt.errors import ParameterError

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


def test_verify_conditions_examples():
    identity = population_moments(DesignSpec(kind="gaussian", p=3))
    out = verify_conditions(identity, 2)
    assert out["M.1''"]["status"] == "holds"
    assert out["M.1''"]["constant"] == pytest.approx(1.0)

    equi = population_moments(
        DesignSpec(kind="gaussian", p=3, covariance=CovarianceModel("equicorrelated", 0.5))
    )
    out = verify_conditions(equi, 2)
    assert out["M.1''"]["constant"] == pytest.approx(0.5)
    assert not out["M.1''"]["sampled"]

    from hdclt.sums import CovMatrix

    singular = MomentReport(
        b_lower=1.0, B_n=1.0, L_n_population=1.0, fourth_moment_max=1.0,
        sigma=CovMatrix(np.ones((3, 3))), condition_flags={},
    )
    assert verify_conditions(singular, 2)["M.1''"]["status"] == "fails"


def test_verify_conditions_sampled_branch():
    m = population_moments(DesignSpec(kind="gaussian", p=50))
    out = verify_conditions(m, 4)  # C(50, 4) = 230300 subsets
    assert out["M.1''"]["sampled"]
    assert out["M.1''"]["status"] == "holds"
    assert out["M.1''"]["constant"] == pytest.approx(1.0)


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
    keys = rng.mix64_array(99, np.arange(50, dtype=np.uint64))
    sub = values_from_row_keys(design, keys[10:20])
    assert np.array_equal(sub, a[10:20])


@pytest.mark.parametrize("p", [20, 100, 1000])
def test_ar1_rows_match_column_loop(p):
    # the AR(1) factor's recursion against the column loop it replaced
    r = 0.7
    design = DesignSpec(kind="gaussian", p=p, covariance=CovarianceModel("ar1", r))
    keys = rng.mix64_array(5, np.arange(64, dtype=np.uint64))
    z = rng.to_normal(rng.word_grid(keys, p))
    x = np.empty_like(z)
    x[..., 0] = z[..., 0]
    c = math.sqrt(1.0 - r**2)
    for j in range(1, p):
        x[..., j] = r * x[..., j - 1] + c * z[..., j]
    assert np.array_equal(values_from_row_keys(design, keys), x)
    assert np.array_equal(values_from_row_keys(design, keys.reshape(8, 8)),
                          x.reshape(8, 8, p))


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
