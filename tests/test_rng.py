import numpy as np

from hdclt import rng


def test_scalar_and_array_mix_agree():
    for seed in (0, 1, 12345, 2**63, -7, 2**64 - 1):
        vec = rng.words(seed, 200)
        assert all(int(v) == rng.mix64(seed, i) for i, v in enumerate(vec))


def test_word_grid_matches_words():
    key = rng.mix64(9, 3)
    keys = np.array([key, rng.mix64(9, 4)], dtype=np.uint64)
    grid = rng.word_grid(keys, 64)
    assert np.array_equal(grid[0], rng.words(key, 64))
    assert np.array_equal(grid[1], rng.words(int(keys[1]), 64))


def test_mix64_keys_matches_scalar():
    keys = rng.words(42, 50)
    out = rng.mix64_keys(keys, 7)
    assert all(int(o) == rng.mix64(int(k), 7) for k, o in zip(keys, out))


def test_offset_slicing_is_order_independent():
    key = 77
    full = rng.words(key, 100)
    # word t is mix64(key, t) whichever slice of counters asks for it
    assert np.array_equal(full[60:], rng.words(key, 40, 60))


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
    keys = rng.words(3, 23)
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


# words at the edges of to_uniform: k = w >> 12 is 0, 2**51 or 2**52 - 1, and
# bit 0 (the sign of a literal value, which to_uniform never reads) is 0 or 1
EDGE_WORDS = np.array([0, 2**12 - 1, 2**12, 2**63, 2**64 - 2**12, 2**64 - 1],
                      dtype=np.uint64)


def test_uniform_rounding_edges():
    # every step of (k + 0.5) * 2**-52 is exact: no word rounds to 0, 0.5 or 1
    u = rng.to_uniform(EDGE_WORDS)
    assert u.tolist() == [(int(w) // 2**12 + 0.5) * 2.0**-52 for w in EDGE_WORDS]
    assert u.tolist() == [2.0**-53, 2.0**-53, 1.5 * 2.0**-52, 0.5 + 2.0**-53,
                          1.0 - 2.0**-53, 1.0 - 2.0**-53]
    assert np.all((u > 0.0) & (u < 1.0))
    z = rng.to_normal(EDGE_WORDS)
    assert np.all(np.isfinite(z)) and z[0] == -z[-1]


def test_flip_signs_negates_where_bit_0_is_set():
    w = np.concatenate([EDGE_WORDS, rng.words(8, 60_000)]).reshape(-1, 6)
    x = rng.to_uniform(w)
    want = np.where(w & np.uint64(1), -x, x)
    got = rng.flip_signs(x, w.copy())
    assert got is x
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got[0].tolist() == [2.0**-53, -2.0**-53, 1.5 * 2.0**-52, 0.5 + 2.0**-53,
                               1.0 - 2.0**-53, -(1.0 - 2.0**-53)]
    assert abs(np.mean(got < 0.0) - 0.5) < 0.01
