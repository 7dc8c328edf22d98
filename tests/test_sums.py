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
    empirical_resample_draw_batch,
    gaussian_draw_batch,
    multiplier_draw_batch,
    robust_cholesky,
)


def keys(seed, count):
    """Replication keys mix64(seed, r) for r = 0..count-1."""
    return rng.words(seed, count)


def one_key(key):
    return np.array([key], dtype=np.uint64)


def test_empirical_covariance_divisor_n():
    assert Dataset(np.array([[1.0], [-1.0]])).covariance.matrix[0, 0] == 1.0
    assert Dataset(np.array([[2.0], [0.0]])).covariance.matrix[0, 0] == 1.0
    const = Dataset(np.full((5, 3), 2.5))
    assert np.all(const.covariance.matrix == 0.0)


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


class Stream2EquicorrelatedFactor:
    """The equicorrelated factor of stream 2, kept as a law oracle: the exact
    Cholesky factor of ``scale**2 * ((1 - r) I + r 1 1')``, column j holding
    ``d[j]`` on the diagonal and ``c[j]`` in every row below it, applied as
    ``d * z`` plus the shifted prefix sum of ``c * z``."""

    def __init__(self, p, r, scale=1.0):
        # s_0 = 0, d_j = sqrt(1 - s_j), c_j = (r - s_j) / d_j, s_{j+1} = s_j + c_j^2
        d, c, s = [], [], 0.0
        for _ in range(p):
            d.append(math.sqrt(1.0 - s))
            c.append((r - s) / d[-1])
            s += c[-1] * c[-1]
        self.p, self.d, self.c = p, scale * np.array(d), scale * np.array(c)

    def apply(self, z):
        below = np.cumsum(self.c * z, axis=-1)
        y = self.d * z
        y[..., 1:] += below[..., :-1]
        return y


def _dense(factor):
    # apply(z) = z @ F.T, so the factor applied to the identity is F.T
    return factor.apply(np.eye(factor.p)).T


@pytest.mark.parametrize("p", [3, 20, 1000])
@pytest.mark.parametrize("kind, r", CORRELATED)
def test_model_factor_matches_dense_cholesky(kind, r, p):
    # AR(1) applies its Cholesky factor; the equicorrelated model its
    # symmetric root, whose square is the covariance
    model = CovarianceModel(kind, r)
    factor = model.factor(p)
    F = _dense(factor)
    if kind == "ar1":
        assert np.max(np.abs(F - np.linalg.cholesky(model.matrix(p)))) <= 1e-14
    else:
        np.testing.assert_array_equal(F, F.T)
        assert np.max(np.abs(F @ F - model.matrix(p))) <= 1e-13
    z = rng.to_normal(rng.word_grid(keys(p, 64), p))
    want = z @ F.T
    assert np.max(np.abs(factor.apply(z) - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("p", [3, 20, 1000])
@pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("scale", [1.0, 1.3])
def test_equicorrelated_factors_share_one_law(scale, r, p):
    # the symmetric root and the stream-2 Cholesky factor are two factors F of
    # one covariance: each gives F F' = sigma, so their draws share one law
    sigma = scale**2 * CovarianceModel("equicorrelated", r).matrix(p)
    root = _dense(CovarianceModel("equicorrelated", r).factor(p, scale))
    chol = _dense(Stream2EquicorrelatedFactor(p, r, scale))
    assert np.max(np.abs(chol - np.linalg.cholesky(sigma))) <= 1e-14 * scale
    for F in (root, chol):
        assert np.max(np.abs(F @ F.T - sigma)) <= 1e-13 * scale**2


@pytest.mark.parametrize("p", [3, 20, 1000])
@pytest.mark.parametrize("var", [0.5, 1.0])
def test_identity_factor_is_the_dense_product(var, p):
    sigma = ModelCovariance(CovarianceModel("identity"), p, var)
    L = robust_cholesky(CovMatrix(sigma.matrix)).L
    z = rng.to_normal(rng.word_grid(keys(p, 64), p))
    assert np.array_equal(sigma.factor.apply(z), z @ L.T)


@pytest.mark.parametrize("kind, r", MODELS)
def test_model_factor_hit_counts_equal_dense(kind, r):
    # against the dense product of the same factor: the Cholesky factor of
    # the identity and AR(1) models, the symmetric root of the equicorrelated one
    p, R = 50, 20_000
    sigma = ModelCovariance(CovarianceModel(kind, r), p)
    family = sample_rectangles(p, 20, np.sqrt(sigma.diag()), 4)
    structured = family_hit_counts(GaussianSumSampler(sigma.factor), family, R, 5, 1)
    dense_factor = (CholFactor(L=_dense(sigma.factor)) if kind == "equicorrelated"
                    else CovMatrix(sigma.matrix).factor)
    dense = family_hit_counts(GaussianSumSampler(dense_factor), family, R, 5, 1)
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
    sx = sample_dataset(design, 10, rng.mix64(99, 1)).values.sum(axis=0) / math.sqrt(10)
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
    shat = data.covariance.matrix
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


# n at the ends of the int ranges, at a power of two and one past it
CLAMP_N = [2, 3, 2000, 2**20, 2**20 + 1, 2**31 - 1]


@pytest.mark.parametrize("n", CLAMP_N)
def test_resample_index_needs_no_clamp(n):
    # u <= 1 - 2**-53 makes fl(u * n) < n: the largest uniform picks row n - 1
    top = rng.to_uniform(np.array([2**64 - 1], dtype=np.uint64))
    assert top[0] == 1.0 - 2.0**-53
    assert (top * n)[0] < n
    assert int((top * n).astype(np.int64)[0]) == n - 1


def test_resample_draws_equal_with_and_without_clamp():
    # the clamp the kernel no longer applies, np.minimum(idx, n - 1), moves
    # no resample index (the edge words included), so no row count and no
    # draw: the kernel's draws still match the clamped oracle of
    # test_empirical_batch_matches_single
    words = np.concatenate([rng.word_grid(keys(9, 100), 2000).ravel(),
                            np.array([0, 2**64 - 2**12, 2**64 - 1], dtype=np.uint64)])
    u = rng.to_uniform(words)
    for n in CLAMP_N:
        idx = (u * n).astype(np.int64)
        assert idx.min() >= 0 and np.array_equal(idx, np.minimum(idx, n - 1))


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
