"""Counter-based random streams for reproducible parallel Monte Carlo.

Every random quantity in this package is a pure function of a 64-bit seed
and an integer counter.  The stream derivation is a SplitMix64-style
avalanche::

    mix64(seed, counter) = finalize(seed + GAMMA * (counter + 1))   mod 2**64

where ``finalize`` is the xor-shift/multiply output function of SplitMix64
and ``GAMMA`` is the golden-ratio increment 0x9E3779B97F4A7C15.  Substreams
are derived by nesting: row ``i`` of a dataset drawn with seed ``s`` uses
the key ``mix64(s, i)``, and the ``t``-th 64-bit word of that row is
``mix64(mix64(s, i), t)``.  Because every word is a closed-form function of
(seed, counters), generation is order-independent: any partition of the
work across threads or batches produces bit-identical output.  A word
makes one value: a uniform in (0, 1), a normal, or a sign-magnitude value.
"""
from __future__ import annotations

import numpy as np
from scipy.special import ndtri

MASK64 = 0xFFFFFFFFFFFFFFFF
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U64_GAMMA = np.uint64(GAMMA)
_U64_MIX1 = np.uint64(_MIX1)
_U64_MIX2 = np.uint64(_MIX2)

# elements one block of an elementwise stage touches: its temporaries stay in
# cache instead of streaming through memory
BLOCK = 1 << 15

# Substream tags: a consumer with seed s draws from mix64(s, TAG_*), and
# several consumers may share one tag.
#   TAG_FIRST   side 1 of montecarlo._gap, the data branch of an interpolated
#               draw, the M_x rows of bounds.report_from_design
#   TAG_SECOND  side 2 of _gap, the Gaussian branch of an interpolated draw,
#               M_y of both bounds reports
#   TAG_FAMILY  a rectangle family derived from the run seed (cli, rate_scan)
#   TAG_CELL    rate_scan's cell idx has the seed mix64(mix64(s, TAG_CELL), idx)
#   TAG_MOMENT  rate_scan's M_y, below its cell seed: its own stream, not the
#               cell gap's Gaussian side
#   TAG_GRID    interpolation_gap's grid point k uses TAG_GRID + k
TAG_FIRST = 1
TAG_SECOND = 2
TAG_FAMILY = 3
TAG_CELL = 4
TAG_MOMENT = 5
TAG_GRID = 16


def mix64(seed: int, counter: int) -> int:
    """Avalanche mix of a seed and a counter into a 64-bit word.

    Pure integer arithmetic; agrees bit for bit with the vectorized
    helpers below.
    """
    z = (seed + GAMMA * (counter + 1)) & MASK64
    z ^= z >> 30
    z = (z * _MIX1) & MASK64
    z ^= z >> 27
    z = (z * _MIX2) & MASK64
    z ^= z >> 31
    return z


def _finalize(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """The SplitMix64 output function of ``z``, in place; ``scratch``, a
    uint64 array of z's shape, holds its shifts instead of a new array."""
    t = np.empty_like(z) if scratch is None else scratch
    np.right_shift(z, np.uint64(30), out=t)
    np.bitwise_xor(z, t, out=z)
    np.multiply(z, _U64_MIX1, out=z)
    np.right_shift(z, np.uint64(27), out=t)
    np.bitwise_xor(z, t, out=z)
    np.multiply(z, _U64_MIX2, out=z)
    np.right_shift(z, np.uint64(31), out=t)
    np.bitwise_xor(z, t, out=z)
    return z


def mix64_array(seed: int, counters: np.ndarray) -> np.ndarray:
    """Vectorized ``mix64`` of one seed against an array of counters."""
    z = counters.astype(np.uint64, copy=True)
    z += np.uint64(1)
    z *= _U64_GAMMA
    z += np.uint64(int(seed) & MASK64)
    return _finalize(z)


def mix64_keys(keys: np.ndarray, counter: int) -> np.ndarray:
    """Elementwise ``mix64(keys[...], counter)`` for an array of seeds."""
    z = keys.astype(np.uint64, copy=True)
    z += np.uint64(((counter + 1) * GAMMA) & MASK64)
    return _finalize(z)


def words(key: int, count: int) -> np.ndarray:
    """64-bit words ``mix64(key, t)`` for t = 0..count-1."""
    return mix64_array(key, np.arange(count, dtype=np.uint64))


def word_grid(keys: np.ndarray, count: int, out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """Words for many keys at once; returns shape ``keys.shape + (count,)``.

    ``word_grid(keys, c)[..., t] == mix64(keys[...], t)`` element-wise.
    ``out`` receives the words and ``scratch`` holds the temporaries of
    ``_finalize``, both uint64 arrays of that shape; without them new arrays
    are made.
    """
    pre = (np.arange(count, dtype=np.uint64) + np.uint64(1)) * _U64_GAMMA
    z = np.add(keys.astype(np.uint64, copy=False)[..., None], pre, out=out)
    return _finalize(z, scratch)


def to_uniform(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map 64-bit words to doubles strictly inside (0, 1).

    Uses the top 52 bits k = w >> 12 plus a half-step offset, exactly (k +
    0.5) * 2**-52, in [2**-53, 1 - 2**-53]: every step is exact, so no word
    rounds to 0 or 1, and ``to_normal`` is always finite.  Bit 0 of w is
    left for ``flip_signs``.  The shift is cast straight into ``out``, a
    float array of w's shape, or a new one.
    """
    u = np.right_shift(w, np.uint64(12), out=np.empty(w.shape) if out is None else out,
                       casting="unsafe")
    u += 0.5
    u *= 2.0**-52
    return u


def flip_signs(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Negate ``x`` in place where bit 0 of its word is set: one XOR of
    ``w << 63`` into x's bits.  ``w``, the words x came from (of x's shape),
    is overwritten.  With a magnitude from ``to_uniform(w)`` this makes a
    symmetric value from one word, since to_uniform never reads bit 0."""
    bits = np.left_shift(w, np.uint64(63), out=w)
    np.bitwise_xor(x.view(np.uint64), bits, out=x.view(np.uint64))
    return x


def to_normal(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map 64-bit words to standard normals via the inverse Gaussian CDF,
    written into ``out`` (as ``to_uniform``) or a new array."""
    u = to_uniform(w, out)
    return ndtri(u, out=u)


def blocked(fn, rows: np.ndarray, width: int, budget: int | None = None,
            out: np.ndarray | None = None) -> np.ndarray:
    """``fn(rows)``, evaluated on consecutive slices of at most
    ``budget // width`` rows (at least one) and written into one output:
    ``out`` if given (its first axis one entry per row), else a new array.

    ``width`` is the element count one row costs and ``budget`` defaults to
    ``BLOCK``.  ``fn`` must treat every row independently, so the slicing
    never changes a number; a matrix product does not qualify, since its
    per-row rounding may depend on how many rows it gets (``sums`` runs
    every product on a fixed tile instead).
    """
    per = max(1, (BLOCK if budget is None else budget) // width)
    start = 0
    if out is None:
        if per >= len(rows):
            return fn(rows)
        first = fn(rows[:per])
        out = np.empty((len(rows),) + first.shape[1:], dtype=first.dtype)
        out[:per] = first
        del first  # the output holds it; keep one slice alive, not two
        start = per
    for i in range(start, len(rows), per):
        out[i:i + per] = fn(rows[i:i + per])
    return out
