import numpy as np

from hdclt import rng


def test_scalar_and_array_mix_agree():
    for seed in (0, 1, 12345, 2**63, -7, 2**64 - 1):
        counters = np.arange(200, dtype=np.uint64)
        vec = rng.mix64_array(seed, counters)
        assert all(int(v) == rng.mix64(seed, i) for i, v in enumerate(vec))


def test_word_grid_matches_words():
    key = rng.mix64(9, 3)
    keys = np.array([key, rng.mix64(9, 4)], dtype=np.uint64)
    grid = rng.word_grid(keys, 64)
    assert np.array_equal(grid[0], rng.words(key, 64))
    assert np.array_equal(grid[1], rng.words(int(keys[1]), 64))


def test_mix64_keys_matches_scalar():
    keys = rng.mix64_array(42, np.arange(50, dtype=np.uint64))
    out = rng.mix64_keys(keys, 7)
    assert all(int(o) == rng.mix64(int(k), 7) for k, o in zip(keys, out))


def test_offset_slicing_is_order_independent():
    key = 77
    full = rng.words(key, 100)
    # word t is mix64(key, t) whichever slice of counters asks for it
    assert np.array_equal(full[60:], rng.mix64_array(key, np.arange(60, 100, dtype=np.uint64)))


def test_uniforms_open_interval():
    u = rng.to_uniform(rng.words(5, 200_000))
    assert u.min() > 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_normals_moments():
    z = rng.to_normal(rng.words(6, 200_000))
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02


def test_streams_decorrelated():
    a = rng.to_normal(rng.words(1, 50_000))
    b = rng.to_normal(rng.words(2, 50_000))
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.02


def test_blocked_slices_rows_and_matches_one_call(monkeypatch):
    keys = rng.mix64_array(3, np.arange(23, dtype=np.uint64))
    seen = []

    def normals(block):
        seen.append(len(block))
        return rng.to_normal(rng.word_grid(block, 4))

    whole = normals(keys)
    seen.clear()
    out = rng.blocked(normals, keys, 4, 20)  # 20 // 4 = 5 rows per slice
    assert seen == [5, 5, 5, 5, 3]
    np.testing.assert_array_equal(out, whole)

    seen.clear()
    monkeypatch.setattr(rng, "BLOCK", 7)  # the default budget is read per call
    np.testing.assert_array_equal(rng.blocked(normals, keys, 4), whole)
    assert seen == [1] * 23
    seen.clear()
    np.testing.assert_array_equal(rng.blocked(normals, keys, 4, 1 << 30), whole)
    assert seen == [23]
