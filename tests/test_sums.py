import math

import numpy as np
import pytest

from hdclt import rng
from hdclt.datagen import (
    CovarianceModel,
    DesignSpec,
    Dataset,
    population_moments,
    sample_dataset,
)
from hdclt.errors import NotPositiveSemidefiniteError, ParameterError
from hdclt.geometry import sample_rectangles
from hdclt.montecarlo import GaussianSumSampler, InterpolatedSampler, family_hit_counts
from hdclt.sums import (
    CholFactor,
    CovMatrix,
    ModelCovariance,
    empirical_covariance,
    empirical_resample_draw_batch,
    gaussian_draw_batch,
    multiplier_draw_batch,
    normalized_sum,
    robust_cholesky,
)


def keys(seed, count):
    """Replication keys mix64(seed, r) for r = 0..count-1."""
    return rng.mix64_array(seed, np.arange(count, dtype=np.uint64))


def one_key(key):
    return np.array([key], dtype=np.uint64)


def test_normalized_sum_hand_cases():
    assert normalized_sum(Dataset(np.ones((4, 1))))[0] == 2.0
    alt = Dataset(np.array([[1.0], [-1.0], [1.0], [-1.0]]))
    assert normalized_sum(alt)[0] == 0.0
    two = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(normalized_sum(two), 1.0 / math.sqrt(2.0))


def test_normalized_sum_negation():
    ds = sample_dataset(DesignSpec(kind="gaussian", p=3), 10, 3)
    neg = Dataset(-ds.values)
    assert np.array_equal(normalized_sum(neg), -normalized_sum(ds))


def test_empirical_covariance_divisor_n():
    assert empirical_covariance(Dataset(np.array([[1.0], [-1.0]]))).matrix[0, 0] == 1.0
    assert empirical_covariance(Dataset(np.array([[2.0], [0.0]]))).matrix[0, 0] == 1.0
    const = Dataset(np.full((5, 3), 2.5))
    assert np.all(empirical_covariance(const).matrix == 0.0)


def test_covariance_validation():
    with pytest.raises(ParameterError):
        CovMatrix(np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ParameterError):
        CovMatrix(np.array([[-1.0, 0.0], [0.0, 1.0]]))


def test_cholesky_identity_and_diagonal():
    c = robust_cholesky(CovMatrix(np.eye(3)))
    assert c.jitter_used == 0.0
    assert np.array_equal(c.L, np.eye(3))
    c = robust_cholesky(CovMatrix(np.diag([4.0, 9.0])))
    assert np.allclose(np.diag(c.L), [2.0, 3.0])


def test_cholesky_rank_one_jitter():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    c = robust_cholesky(CovMatrix(a))
    assert c.jitter_used > 0.0
    assert np.max(np.abs(c.L @ c.L.T - a)) <= 1e-8 * (1.0 + a.max())


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveSemidefiniteError):
        robust_cholesky(CovMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])))


def test_covariance_factor_is_computed_once(monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
    cov = CovMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert cov.factor is cov.factor
    assert len(calls) == 1
    assert np.array_equal(cov.factor.L, robust_cholesky(cov).L)


def test_dataset_centered_rows():
    ds = Dataset(np.array([[1.0, 4.0], [3.0, 8.0]]))
    assert np.array_equal(ds.centered, [[-1.0, -2.0], [1.0, 2.0]])
    assert ds.centered is ds.centered


def test_gaussian_draw_zero_factor():
    chol = CholFactor(L=np.zeros((3, 3)))
    assert np.all(gaussian_draw_batch(chol, keys(5, 4)) == 0.0)


def test_gaussian_draw_statistics():
    chol = robust_cholesky(CovMatrix(np.eye(3)))
    draws = gaussian_draw_batch(chol, keys(11, 100_000))
    assert np.all(np.abs(draws.var(axis=0) - 1.0) <= 5.0 * math.sqrt(2.0 / 100_000))
    one = robust_cholesky(CovMatrix(np.array([[4.0]])))
    d1 = gaussian_draw_batch(one, keys(12, 100_000))
    assert abs(d1.mean()) <= 4.0 * 2.0 / math.sqrt(100_000)


def test_gaussian_batch_matches_single():
    chol = robust_cholesky(CovMatrix(np.array([[2.0, 0.5], [0.5, 1.0]])))
    batch = gaussian_draw_batch(chol, keys(42, 20))
    for r in (0, 7, 19):
        # word t of the replication's stream feeds coordinate t
        single = chol.L @ rng.to_normal(rng.words(rng.mix64(42, r), 2))
        assert np.allclose(batch[r], single, rtol=1e-12, atol=1e-14)


def test_gaussian_covariance_convergence():
    sigma = np.array([[1.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 1.0]])
    chol = robust_cholesky(CovMatrix(sigma))
    R = 100_000
    draws = gaussian_draw_batch(chol, keys(3, R))
    got = draws.T @ draws / R
    tol = 6.0 * np.sqrt((np.outer(np.diag(sigma), np.diag(sigma)) + sigma**2) / R)
    assert np.all(np.abs(got - sigma) <= tol)


CORRELATED = [(kind, r) for kind in ("equicorrelated", "ar1") for r in (0.1, 0.5, 0.9)]
MODELS = [("identity", None), ("equicorrelated", 0.5), ("ar1", 0.5)]


@pytest.mark.parametrize("p", [3, 20, 1000])
@pytest.mark.parametrize("kind, r", CORRELATED)
def test_model_factor_matches_dense_cholesky(kind, r, p):
    model = CovarianceModel(kind, r)
    factor = model.factor(p)
    L = np.linalg.cholesky(model.matrix(p))
    # apply(z) = z @ F.T, so the factor applied to the identity is F.T
    assert np.max(np.abs(factor.apply(np.eye(p)).T - L)) <= 1e-14
    z = rng.to_normal(rng.word_grid(keys(p, 64), p))
    want = z @ L.T
    assert np.max(np.abs(factor.apply(z) - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("p", [3, 20, 1000])
@pytest.mark.parametrize("var", [0.5, 1.0])
def test_identity_factor_is_the_dense_product(var, p):
    sigma = ModelCovariance(CovarianceModel("identity"), p, var)
    L = robust_cholesky(CovMatrix(sigma.matrix)).L
    z = rng.to_normal(rng.word_grid(keys(p, 64), p))
    assert np.array_equal(sigma.factor.apply(z), z @ L.T)


@pytest.mark.parametrize("kind, r", MODELS)
def test_model_factor_hit_counts_equal_dense(kind, r):
    p, R = 50, 20_000
    sigma = ModelCovariance(CovarianceModel(kind, r), p)
    family = sample_rectangles(p, 20, np.sqrt(sigma.diag()), 4)
    structured = family_hit_counts(GaussianSumSampler(sigma.factor), family, R, 5, 1)
    dense = family_hit_counts(GaussianSumSampler(CovMatrix(sigma.matrix).factor),
                              family, R, 5, 1)
    np.testing.assert_array_equal(structured, dense)


@pytest.mark.parametrize("p", [20, 200])
@pytest.mark.parametrize("kind, r", MODELS)
def test_model_draws_are_key_local(kind, r, p):
    # no matrix product on the path, so a draw is a function of its key
    # alone: keys drawn on their own equal the same keys of a full batch
    sampler = GaussianSumSampler(CovarianceModel(kind, r).factor(p))
    batch = keys(31, 8192)
    whole = sampler.draw_keys(batch)
    for m in (1, 7, 300):
        for k0 in (0, 4093, 8192 - m):
            np.testing.assert_array_equal(sampler.draw_keys(batch[k0:k0 + m]),
                                          whole[k0:k0 + m])


@pytest.mark.parametrize("kind, r", MODELS)
def test_model_draws_equal_the_factor_on_whole_normals(kind, r):
    # a structured factor is applied to each block of normals as it is made;
    # that gives the bits of applying it to the whole batch of normals
    p = 1000
    factor = CovarianceModel(kind, r).factor(p, 0.7)
    batch = keys(37, 100)
    z = rng.to_normal(rng.word_grid(batch, p))
    np.testing.assert_array_equal(gaussian_draw_batch(factor, batch), factor.apply(z))


def test_model_covariance_matches_its_dense_matrix():
    for kind, r in MODELS + [("equicorrelated", 0.1), ("equicorrelated", 0.7)]:
        design = DesignSpec(kind="gaussian", p=6, covariance=CovarianceModel(kind, r))
        sigma = population_moments(design).sigma
        assert "matrix" not in vars(sigma)  # built only on demand
        assert np.array_equal(sigma.diag(), np.diag(sigma.matrix))
        assert sigma.factor is sigma.factor


def test_interpolated_boundaries_exact():
    design = DesignSpec(kind="gaussian", p=3)
    chol = robust_cholesky(CovMatrix(np.eye(3)))
    key = one_key(99)
    at_one = InterpolatedSampler(design, 10, chol, 1.0, exact_law=False).draw_keys(key)
    sx = normalized_sum(sample_dataset(design, 10, rng.mix64(99, 1)))
    assert np.array_equal(at_one[0], sx)
    at_zero = InterpolatedSampler(design, 10, chol, 0.0, exact_law=False).draw_keys(key)
    sy = GaussianSumSampler(chol).draw_keys(one_key(rng.mix64(99, 2)))
    assert np.array_equal(at_zero, sy)
    with pytest.raises(ParameterError):
        InterpolatedSampler(design, 10, chol, 1.5, exact_law=False)


def test_multiplier_draw_identical_rows_zero():
    const = Dataset(np.full((6, 3), 1.7))
    assert np.all(multiplier_draw_batch(const, keys(9, 4)) == 0.0)


def test_multiplier_draw_variance():
    data = Dataset(np.array([[1.0], [-1.0]]))
    draws = multiplier_draw_batch(data, keys(5, 100_000))
    assert abs(draws.var() - 1.0) <= 5.0 * math.sqrt(2.0 / 100_000)
    assert abs(draws.mean()) <= 4.0 * math.sqrt(1.0 / 100_000)


def test_multiplier_conditional_covariance_identity():
    data = Dataset(np.random.default_rng(0).standard_normal((50, 4)))
    shat = empirical_covariance(data).matrix
    R = 100_000
    draws = multiplier_draw_batch(data, keys(77, R))
    got = draws.T @ draws / R
    tol = 6.0 * np.sqrt((np.outer(np.diag(shat), np.diag(shat)) + shat**2) / R)
    assert np.all(np.abs(got - shat) <= tol)


def test_multiplier_batch_matches_single():
    data = Dataset(np.random.default_rng(1).standard_normal((20, 3)))
    batch = multiplier_draw_batch(data, keys(5, 10))
    centered = data.values - data.values.mean(axis=0)
    for r in (0, 3, 9):
        # word i of the replication's stream weights centered row i
        e = rng.to_normal(rng.words(rng.mix64(5, r), 20))
        single = centered.T @ e / math.sqrt(20)
        assert np.allclose(batch[r], single, rtol=1e-12, atol=1e-14)


def test_empirical_draw_identical_rows_zero():
    const = Dataset(np.full((6, 3), -0.4))
    # zero up to the rounding of summing -0.4 through each row-count vector
    draws = empirical_resample_draw_batch(const, keys(3, 4))
    assert np.all(np.abs(draws) <= 1e-15)


def test_empirical_draw_conditional_moments():
    data = Dataset(np.array([[1.0], [-1.0]]))
    draws = empirical_resample_draw_batch(data, keys(6, 100_000))
    assert abs(draws.var() - 1.0) <= 5.0 * math.sqrt(2.0 / 100_000)
    assert abs(draws.mean()) <= 4.0 * math.sqrt(1.0 / 100_000)


def test_empirical_batch_matches_single():
    data = Dataset(np.random.default_rng(2).standard_normal((30, 3)))
    batch = empirical_resample_draw_batch(data, keys(8, 10))
    for r in (0, 4, 9):
        # word i of the replication's stream picks the i-th resampled row
        u = rng.to_uniform(rng.words(rng.mix64(8, r), 30))
        idx = np.minimum((u * 30).astype(np.int64), 29)
        total = data.values[idx].sum(axis=0)
        single = (total - 30 * data.values.mean(axis=0)) / math.sqrt(30)
        assert np.allclose(batch[r], single, rtol=1e-12, atol=1e-14)


class _CountedMean(np.ndarray):
    """An array that counts the calls of its ``mean``."""

    calls = 0

    def mean(self, *args, **kwargs):
        _CountedMean.calls += 1
        return np.asarray(self).mean(*args, **kwargs)


def test_empirical_draws_read_the_dataset_mean_once(monkeypatch):
    # the column mean is the dataset's, computed once, not once per slice
    values = np.random.default_rng(4).standard_normal((30, 3))
    data = Dataset(values)
    object.__setattr__(data, "values", data.values.view(_CountedMean))
    monkeypatch.setattr(_CountedMean, "calls", 0)
    plain = Dataset(values)
    for i in (0, 10, 20):
        batch = keys(8 + i, 10)
        np.testing.assert_array_equal(empirical_resample_draw_batch(data, batch),
                                      empirical_resample_draw_batch(plain, batch))
    assert _CountedMean.calls == 1


def test_draws_are_deterministic():
    data = Dataset(np.random.default_rng(3).standard_normal((25, 4)))
    for kernel in (multiplier_draw_batch, empirical_resample_draw_batch):
        assert np.array_equal(kernel(data, keys(9, 5)), kernel(data, keys(9, 5)))
