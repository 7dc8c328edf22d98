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
``word_grid``, ``to_uniform``, ``to_normal`` and ``ar1`` (the recursion of
``sums.AR1Factor``) run the C loops of ``_kernels.c`` where they can, with the
bits of their numpy code; ``_KERNELS`` declares each loop once.
"""
from __future__ import annotations

import ctypes
import hashlib
import math
import os
import subprocess
import tempfile
import threading
import time

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
    """Avalanche mix of a seed and a counter into a 64-bit word, in pure
    integer arithmetic; the vectorized helpers below agree bit for bit."""
    z = (seed + GAMMA * (counter + 1)) & MASK64
    z ^= z >> 30
    z = (z * _MIX1) & MASK64
    z ^= z >> 27
    z = (z * _MIX2) & MASK64
    z ^= z >> 31
    return z


def _finalize(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 output function of ``z``, in place."""
    t = np.empty_like(z)
    np.right_shift(z, np.uint64(30), out=t)
    np.bitwise_xor(z, t, out=z)
    np.multiply(z, _U64_MIX1, out=z)
    np.right_shift(z, np.uint64(27), out=t)
    np.bitwise_xor(z, t, out=z)
    np.multiply(z, _U64_MIX2, out=z)
    np.right_shift(z, np.uint64(31), out=t)
    np.bitwise_xor(z, t, out=z)
    return z


def _grid(keys: np.ndarray, out: np.ndarray | None, count: int) -> np.ndarray:
    pre = (np.arange(count, dtype=np.uint64) + np.uint64(1)) * _U64_GAMMA
    return _finalize(np.add(keys[..., None], pre, out=out))


def mix64_keys(keys: np.ndarray, counter: int) -> np.ndarray:
    """Elementwise ``mix64(keys[...], counter)`` for an array of seeds."""
    return _finalize(keys.astype(np.uint64) + np.uint64(((counter + 1) * GAMMA) & MASK64))


def words(key: int, count: int, start: int = 0) -> np.ndarray:
    """64-bit words ``mix64(key, t)`` for t = start..start+count-1."""
    return _grid(np.uint64((int(key) + GAMMA * start) & MASK64), None, count)


def _uniform(w: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    u = np.right_shift(w, np.uint64(12), out=np.empty(w.shape) if out is None else out,
                       casting="unsafe")
    u += 0.5
    u *= 2.0**-52
    return u


def _ar1(z: np.ndarray, out: np.ndarray | None, p: int, r: float, scale: float,
         c: float) -> np.ndarray:
    t = np.array(z.reshape(-1, p).T, order="C")  # a step per column reads one row
    t[0] *= scale
    t[1:] *= c
    step = np.empty(t.shape[1])
    for j in range(1, p):
        np.multiply(t[j - 1], r, out=step)
        t[j] += step
    out = np.empty(z.shape) if out is None else out
    np.copyto(out, t.T.reshape(z.shape))
    return out


_SIZE, _DOUBLE = ctypes.c_size_t, ctypes.c_double
# The C loops of _kernels.c, each void name(const src *, size_t n, out *,
# args...) with n the element count of src, and each entry: the C types of
# args, the dtypes of src and out, the numpy code ``code(src, out, *args)``,
# bit oracle and fallback, which writes into out (src's own buffer too; a
# new array for None), and the args that ``_load`` checks the loop with.
_KERNELS = {
    "word_grid": ((_SIZE,), np.uint64, np.uint64, _grid, (3,)),
    "to_uniform": ((), np.uint64, np.float64, _uniform, ()),
    "to_normal": ((), np.uint64, np.float64,
                  lambda w, out: ndtri(_uniform(w, out), out=out), ()),
    "ar1": ((_SIZE, _DOUBLE, _DOUBLE, _DOUBLE), np.float64, np.float64, _ar1,
            (53, 0.7, 1.3, 1.3 * 0.51**0.5)),
}

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
# the compiler and its flags, hashed into the library's name with the source.
# -O3 vectorizes to_normal's center pass; -ffp-contract=off keeps a*b + c
# from becoming an FMA where the target has one, which would move ndtri's
# bits; -ffast-math and -march would move them too.
_CC = ("cc", "-O3", "-ffp-contract=off", "-shared", "-fPIC")
_PRUNE_AGE = 30 * 86400  # seconds after which another build's library is removed
_lib = None  # the loaded _kernels.c; False once it cannot be, None before first use
_lib_lock = threading.Lock()


def _library_name(source: bytes) -> str:
    """The file name of the library that ``_CC`` builds from ``source``."""
    digest = hashlib.sha256(source)
    digest.update("\0".join(_CC).encode())
    return f"_kernels-{digest.hexdigest()[:16]}.so"


def _prune(cache: str, keep: str) -> None:
    """Remove the libraries of other builds in ``cache`` unused for ``_PRUNE_AGE``
    (by mtime).  A younger one stays: processes of another checkout may
    still load it.  A library that a process has loaded keeps working."""
    cutoff = time.time() - _PRUNE_AGE
    for entry in os.scandir(cache):
        name = entry.name
        if name != keep and name.startswith("_kernels-") and name.endswith(".so"):
            try:
                if entry.stat().st_mtime < cutoff:
                    os.remove(entry.path)
            except OSError:
                pass


def _probe_words() -> np.ndarray:
    """Words that reach every branch of ndtri: the edges of ``to_uniform``,
    both sides of both exp(-2) splits between its center and tails, the
    k = w >> 12 below 64 and above 2**52 - 65 (both sides of the x = 8 split,
    at u = exp(-32), k = 57), and 1024 stream words: small, since the
    probe's arrays would add to a run's peak RSS."""
    expm2 = 0.13533528323661269189
    splits = [int(np.floor(y * 2.0**52 - 0.5)) for y in (expm2, 1.0 - expm2)]
    ks = [k + d for k in splits for d in (-1, 0, 1, 2)]
    ks += [k for j in range(64) for k in (j, 2**52 - 1 - j)]
    edges = [0, 2**12 - 1, 2**12, 2**63, 2**64 - 2**12, 2**64 - 1]
    return np.concatenate([np.array(edges + [k << 12 for k in ks], dtype=np.uint64),
                           words(0, 1024)])


def _load():
    """``_kernels.c`` as a ctypes library (its calls release the GIL), or False.
    It is built into the first of ~/.cache/hdclt and <tempdir>/hdclt-<uid>
    that is (or can be made) this user's and not group- or world-writable,
    named by ``_library_name`` and moved into place whole; a fresh build
    prunes the cache.  Each loop is then run with its table args on
    ``_probe_words``, or on 22 rows of 53 of the normals that the entry
    before it made (``ar1``): a library that differs from the numpy code by
    one bit is not used.  to_normal calls libm's log, as ndtri does; a
    process whose ndtri took another log fails here."""
    try:
        with open(_SOURCE, "rb") as fh:
            name = _library_name(fh.read())
        for cache in (os.path.join(os.path.expanduser("~"), ".cache", "hdclt"),
                      os.path.join(tempfile.gettempdir(), f"hdclt-{os.getuid()}")):
            try:
                os.makedirs(cache, mode=0o700, exist_ok=True)
                st = os.stat(cache)
            except OSError:
                continue
            if st.st_uid == os.getuid() and not st.st_mode & 0o022:
                break
        else:
            return False
        path = os.path.join(cache, name)
        if not os.path.exists(path):
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                subprocess.run([*_CC, "-o", os.path.join(tmp, name), _SOURCE, "-lm"],
                               check=True, capture_output=True, timeout=300)
                os.replace(os.path.join(tmp, name), path)
            _prune(cache, name)
        lib, w = ctypes.CDLL(path), _probe_words()
        for kernel, (types, src_dtype, _, code, args) in _KERNELS.items():
            fn = getattr(lib, kernel)
            fn.argtypes, fn.restype = (ctypes.c_void_p, _SIZE, ctypes.c_void_p) + types, None
            src = w if src_dtype == w.dtype else want.reshape(22, 53)
            want = code(src, None, *args)
            got = np.empty_like(want)
            fn(src.ctypes.data, src.size, got.ctypes.data, *args)
            if got.tobytes() != want.tobytes():
                return False
        return lib
    except (OSError, AttributeError, subprocess.SubprocessError):
        return False


def _kernel(name: str, src: np.ndarray, out: np.ndarray | None, shape: tuple,
            *args) -> np.ndarray:
    """``out`` of ``shape`` (a new array for None) from ``src`` and ``args``
    by the C loop ``name`` where the library loads (on first use) and both
    arrays are C-contiguous, of its dtypes, apart or one buffer, and out is
    writeable, else by its numpy code."""
    global _lib
    if _lib is None:
        with _lib_lock:
            if _lib is None:
                _lib = _load()
    _, src_dtype, dtype, code, _ = _KERNELS[name]
    if out is None:
        out = np.empty(shape, dtype)
    elif out.shape != shape:
        raise ValueError(f"{name} writes an array of shape {shape}, not {out.shape}")
    if (_lib and src.dtype == src_dtype and out.dtype == dtype and src.flags.c_contiguous
            and out.flags.c_contiguous and out.flags.writeable):
        at = src.ctypes.data  # about 2 us per read
        to = at if out is src else out.ctypes.data
        if ((at == to and src.nbytes == out.nbytes)
                or at + src.nbytes <= to or to + out.nbytes <= at):
            getattr(_lib, name)(at, src.size, to, *args)
            return out
    return code(src, out, *args)


def word_grid(keys: np.ndarray, count: int, out: np.ndarray | None = None) -> np.ndarray:
    """Words for many keys at once; returns shape ``keys.shape + (count,)``.

    ``word_grid(keys, c)[..., t] == mix64(keys[...], t)`` element-wise,
    written into ``out``, a uint64 array of that shape, or a new one.
    """
    keys = keys.astype(np.uint64, copy=False)
    return _kernel("word_grid", keys, out, keys.shape + (count,), count)


def to_uniform(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map 64-bit words to doubles strictly inside (0, 1).

    Uses the top 52 bits k = w >> 12 plus a half-step offset, exactly (k +
    0.5) * 2**-52, in [2**-53, 1 - 2**-53]: every step is exact, so no word
    rounds to 0 or 1, and ``to_normal`` is always finite.  Bit 0 of w is
    left for ``flip_signs``.  The shift is cast straight into ``out``, a
    float array of w's shape (w's own buffer too), or a new one.
    """
    return _kernel("to_uniform", w, out, w.shape)


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
    scipy's ``ndtri`` of ``to_uniform``, written into ``out`` (as
    ``to_uniform``) or a new array.  The C loop repeats ndtri's arithmetic
    and its libm calls, so both paths give the same bits."""
    return _kernel("to_normal", w, out, w.shape)


def ar1(z: np.ndarray, r: float, scale: float, out: np.ndarray | None = None) -> np.ndarray:
    """The rows (last axis) of ``z`` through the AR(1) recursion x_0 = scale
    z_0, x_j = c z_j + r x_{j-1}, c = scale sqrt(1 - r^2), written into
    ``out``, a float array of z's shape (z's own buffer too), or a new one."""
    return _kernel("ar1", z, out, z.shape, z.shape[-1], r, scale, scale * math.sqrt(1.0 - r**2))


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
