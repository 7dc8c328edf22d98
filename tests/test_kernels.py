"""The C kernels behind ``rng.word_grid``, ``rng.to_uniform``, ``rng.to_normal``
and ``rng.ar1`` (the AR(1) recursion of ``sums.AR1Factor``).

The numpy code of each kernel in ``rng._KERNELS`` is the bit oracle: every
kernel result is compared with it, with the kernels switched off by
patching ``rng._lib`` (the loaded library handle).  The loader must fall
back to numpy, quietly and with the same bytes, wherever the library cannot
be built or loaded, and it must never write inside the package or the
checkout.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np
import pytest

from conftest import run_child
from hdclt import rng, sums
from test_draw_hashes import HASHES
from test_golden import GOLDEN

TESTS = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.dirname(os.path.abspath(rng.__file__))
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")

# to_uniform's edges: k = w >> 12 is 0, 2**51 or 2**52 - 1, bit 0 is 0 or 1
EDGE_WORDS = np.array([0, 2**12 - 1, 2**12, 2**63, 2**64 - 2**12, 2**64 - 1],
                      dtype=np.uint64)


def loaded():
    """The kernel library after a first use, or False where it does not load."""
    rng.word_grid(EDGE_WORDS, 1)
    return rng._lib


class Spy:
    """The kernel library, recording the name of each kernel called."""

    def __init__(self, lib):
        self.lib, self.calls = lib, []

    def __getattr__(self, name):
        fn = getattr(self.lib, name)

        def call(*args):
            self.calls.append(name)
            return fn(*args)
        return call


@pytest.fixture
def kernels(monkeypatch):
    """A Spy on the loaded kernels; the test is skipped where they do not load."""
    lib = loaded()
    if not lib:
        pytest.skip("the kernels do not load here")
    spy = Spy(lib)
    monkeypatch.setattr(rng, "_lib", spy)
    return spy


@pytest.fixture
def no_kernels(monkeypatch):
    """Switch the kernels off: every call takes the numpy code."""
    monkeypatch.setattr(rng, "_lib", False)


def numpy_path(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the kernels off."""
    saved, rng._lib = rng._lib, False
    try:
        return fn(*args, **kwargs)
    finally:
        rng._lib = saved


def oracle(keys, count):
    """Words and uniforms of ``keys`` from the scalar ``mix64`` and Python floats."""
    words = [[rng.mix64(int(k), t) for t in range(count)] for k in keys]
    uniforms = [[((w >> 12) + 0.5) * 2.0**-52 for w in row] for row in words]
    return np.array(words, dtype=np.uint64), np.array(uniforms)


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# the arguments after the input of each kernel's public function
ARGS = {"word_grid": (7,), "to_uniform": (), "to_normal": (), "ar1": (0.7, 1.3)}


def check_kernel(kernels, name, src, *args):
    """The kernel ``name`` gives the bits of its numpy code on ``src``: apart,
    and in place on one buffer where its output has src's size, through its
    C loop; an input that is strided, or one element ahead of its output in
    one buffer, takes the numpy code."""
    fn, dtype = getattr(rng, name), rng._KERNELS[name][2]
    want = numpy_path(fn, src, *args)
    start, calls = len(kernels.calls), [name]
    assert_same_bits(fn(src, *args), want)
    if want.size == src.size:
        same = src.copy()
        assert_same_bits(fn(same, *args, out=same.view(dtype).reshape(want.shape)), want)
        calls.append(name)
    if src.size > 1:
        strided = np.stack([src, src], axis=-1)[..., 0]
        assert_same_bits(fn(strided, *args), want)
        buf = np.empty(want.size + 1, dtype=np.uint64)
        ahead = buf[1:1 + src.size].view(src.dtype).reshape(src.shape)
        ahead[...] = src
        assert_same_bits(fn(ahead, *args, out=buf[:want.size].view(dtype).reshape(want.shape)),
                         want)
    assert kernels.calls[start:] == calls


def kernel_input(name, shape, seed):
    """An input of ``shape`` for the kernel ``name``: stream words, or their
    normals where it takes floats."""
    w = rng.words(seed, int(np.prod(shape))).reshape(shape)
    return w if rng._KERNELS[name][1] == np.uint64 else numpy_path(rng.to_normal, w)


@pytest.mark.parametrize("shape", [(0, 5), (1, 1), (7,), (3, 37)])
@pytest.mark.parametrize("name", sorted(rng._KERNELS))
def test_every_kernel_bit_for_bit(kernels, name, shape):
    check_kernel(kernels, name, kernel_input(name, shape, 16), *ARGS[name])


@pytest.mark.parametrize("mode", ["kernels", "no_kernels"])
def test_an_out_the_kernel_cannot_fill_is_refused(request, mode):
    # a C-contiguous out of the wrong element count, or a read-only one: the
    # C loop would write past its end or into memory that may not be
    # written, so it must not be reached, and numpy must refuse it too
    lib = request.getfixturevalue(mode)
    z = kernel_input("ar1", (2, 5), 17)
    w = z.view(np.uint64)
    frozen = np.empty((2, 5))
    frozen.flags.writeable = False
    for fn, args, out in ((rng.word_grid, (w[0], 4), np.empty((5, 3), np.uint64)),
                          (rng.to_uniform, (w[0],), np.empty(4)),
                          (rng.to_normal, (w,), np.empty(9)),
                          (rng.ar1, (z, 0.7, 1.3), np.empty((2, 4))),
                          (rng.to_normal, (w,), frozen),
                          (rng.ar1, (z, 0.7, 1.3), frozen)):
        with pytest.raises(ValueError):
            fn(*args, out=out)
    assert lib is None or lib.calls == []


@needs_cc
def test_kernels_load_where_a_compiler_exists(monkeypatch):
    monkeypatch.setattr(rng, "_lib", None)  # as in a process that has not drawn yet
    lib = loaded()
    assert lib
    assert not os.path.abspath(lib._name).startswith(PACKAGE + os.sep)


EDGE_UNIFORMS = [2.0**-53, 2.0**-53, 1.5 * 2.0**-52, 0.5 + 2.0**-53, 1 - 2.0**-53,
                 1 - 2.0**-53]


def test_numpy_oracle_at_the_edge_words(no_kernels):
    for count in (1, 7):
        assert_same_bits(rng.word_grid(EDGE_WORDS, count), oracle(EDGE_WORDS, count)[0])
    assert rng.to_uniform(EDGE_WORDS).tolist() == EDGE_UNIFORMS
    assert rng._lib is False


def test_edge_words_bit_for_bit(kernels):
    for count in (1, 7):
        words = rng.word_grid(EDGE_WORDS, count)
        assert_same_bits(words, numpy_path(rng.word_grid, EDGE_WORDS, count))
        assert_same_bits(words, oracle(EDGE_WORDS, count)[0])
    u = rng.to_uniform(EDGE_WORDS)
    assert_same_bits(u, numpy_path(rng.to_uniform, EDGE_WORDS))
    assert u.tolist() == EDGE_UNIFORMS
    assert kernels.calls == ["word_grid", "word_grid", "to_uniform"]


@pytest.mark.parametrize("shape", [(0,), (1,), (8, 5), (2048,)])
@pytest.mark.parametrize("count", [1, 7, 100, 1000])
def test_random_keys_bit_for_bit(kernels, shape, count):
    keys = rng.words(count, int(np.prod(shape))).reshape(shape)
    check_kernel(kernels, "word_grid", keys, count)
    check_kernel(kernels, "to_uniform", numpy_path(rng.word_grid, keys, count))


def test_non_contiguous_and_foreign_arrays_take_numpy(kernels):
    w = rng.words(3, 3 * 50)
    # sample_rectangles passes every third word
    for part in (w[1::3], w[2::3]):
        assert_same_bits(rng.to_uniform(part), numpy_path(rng.to_uniform, part.copy()))
        assert_same_bits(rng.word_grid(part, 4), numpy_path(rng.word_grid, part.copy(), 4))
    out = np.empty((50, 8), dtype=np.uint64)
    assert_same_bits(rng.word_grid(w[:50], 4, out=out[:, ::2]),
                     numpy_path(rng.word_grid, w[:50], 4))
    assert kernels.calls == []
    # int64 keys become a uint64 copy, which the kernel takes
    signed = w[:50].view(np.int64)
    assert_same_bits(rng.word_grid(signed, 4), numpy_path(rng.word_grid, w[:50], 4))
    assert kernels.calls == ["word_grid"]


def abs_row_max(z):
    """A row reducer that overwrites its block."""
    return np.abs(z, out=z).max(axis=1)


@pytest.mark.parametrize("then", [None, abs_row_max])
def test_normals_workspace_aliasing(kernels, monkeypatch, then):
    # each block's words, then its normals share one buffer: its rows of out
    # in _normals, and in gaussian_draw_batch an array that the factor and
    # then may overwrite
    monkeypatch.setattr(rng, "BLOCK", 11 * 8)  # blocks of 8 keys
    keys = rng.words(5, 37)
    factor = sums.AR1Factor(11, 0.7, 1.3)
    got = sums.gaussian_draw_batch(factor, keys, then=then)
    want = numpy_path(sums.gaussian_draw_batch, factor, keys, then=then)
    assert_same_bits(got, want)
    assert kernels.calls == ["word_grid", "to_normal", "ar1"] * 5
    if then is None:
        out = np.empty((37, 11))
        assert sums._normals(keys, 11, out=out) is out
        assert_same_bits(factor.apply(out, out=out), want)


def test_normals_at_the_probe_words(kernels):
    # the probe of the loader: the edges, both sides of ndtri's exp(-2) splits
    # and of its x = 8 split, and 1024 stream words
    w = rng._probe_words()
    z = rng.to_normal(w)
    assert_same_bits(z, numpy_path(rng.to_normal, w))
    assert np.isfinite(z).all() and np.abs(z).max() > 8
    assert kernels.calls == ["to_normal"]


def test_normals_in_the_deep_tails(kernels):
    # k = w >> 12 up to 2**17 from either end: u from 2**-53 to about
    # 3e-11, |z| from 8.21 down to 6.55, across ndtri's x = 8 split
    k = np.arange(2**17, dtype=np.uint64)
    w = np.concatenate([k << np.uint64(12), ((np.uint64(2**52 - 1) - k) << np.uint64(12)) | 1])
    z = rng.to_normal(w)
    assert_same_bits(z, numpy_path(rng.to_normal, w))
    assert kernels.calls == ["to_normal"]


@pytest.mark.parametrize("shape", [(0,), (1,), (255,), (256,), (257,), (1000,), (8, 5, 7)])
def test_normals_bit_for_bit(kernels, shape):
    # sizes on both sides of the kernel's 256-value chunks
    check_kernel(kernels, "to_normal", rng.words(11, int(np.prod(shape))).reshape(shape))


@pytest.mark.parametrize("r", [0.3, 0.7, 0.999])
@pytest.mark.parametrize("p", [3, 20, 181, 182, 1000, 2000])
def test_ar1_bit_for_bit(kernels, p, r):
    # the C recursion against the numpy one, on blocks of 1 row and of odd
    # row counts, at scale 1 and not, into a new array and in place
    z = numpy_path(rng.to_normal, rng.words(15, 9 * p)).reshape(9, p)
    for rows, scale in ((1, 1.0), (3, 1.3), (9, 2.0**0.5)):
        factor = sums.AR1Factor(p, r, scale)
        want = numpy_path(factor.apply, z[:rows])
        assert_same_bits(factor.apply(z[:rows]), want)
        x = z[:rows].copy()
        assert factor.apply(x, out=x) is x
        assert_same_bits(x, want)
    assert kernels.calls == ["ar1"] * 6


def test_threads_draw_the_serial_bits(kernels):
    # the kernels keep their buffers on the stack: calls that run at once
    # (each releases the GIL) share nothing
    words = [numpy_path(rng.word_grid, rng.words(seed, 64), 1000) for seed in range(4)]
    factor = sums.AR1Factor(1000, 0.7, 1.3)
    want = [numpy_path(rng.to_normal, w) for w in words]
    want_ar1 = [numpy_path(factor.apply, z) for z in want]
    barrier = threading.Barrier(len(words), timeout=60)
    got = [[] for _ in words]

    def draw(i):
        barrier.wait()
        for _ in range(20):
            got[i].append(rng.to_normal(words[i]))
            got[i].append(factor.apply(want[i]))

    threads = [threading.Thread(target=draw, args=(i,)) for i in range(len(words))]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    for drawn, z, x in zip(got, want, want_ar1):
        assert len(drawn) == 40
        for d, w in zip(drawn, [z, x] * 20):
            assert_same_bits(d, w)
    assert sorted(kernels.calls) == ["ar1"] * 80 + ["to_normal"] * 80


@pytest.mark.parametrize("script, args, threads, want", [
    ("test_golden.py", ["1"], "2", GOLDEN),
    ("test_draw_hashes.py", [], "1", HASHES),
], ids=["golden", "draw-hashes"])
def test_hashes_with_the_kernels_off(tmp_path, script, args, threads, want):
    # the same child interpreter as the hash suite, with the library handle
    # patched to False before anything draws; both suites draw normals
    code = ("import runpy, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from hdclt import rng\n"
            "rng._lib = False\n"
            "normals, to_normal = [], rng.to_normal\n"
            "rng.to_normal = lambda *a, **k: normals.append(1) or to_normal(*a, **k)\n"
            "sys.argv = sys.argv[2:]\n"
            "runpy.run_path(sys.argv[0], run_name='__main__')\n"
            "assert rng._lib is False and normals\n")
    proc = run_child(["-c", code, TESTS, os.path.join(TESTS, script), *args], threads,
                     cwd=tmp_path, timeout=600)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1] if want is GOLDEN else proc.stdout)
    assert got == want


# ---------------------------------------------------------------------------
# the loader
# ---------------------------------------------------------------------------

def library_name() -> str:
    with open(rng._SOURCE, "rb") as fh:
        return rng._library_name(fh.read())


def test_library_name_keys_the_source_and_the_compiler_flags(monkeypatch):
    with open(rng._SOURCE, "rb") as fh:
        source = fh.read()
    name = rng._library_name(source)
    assert rng._library_name(source + b"\n") != name
    assert "-ffp-contract=off" in rng._CC
    assert not any(arg == "-ffast-math" or arg.startswith("-march") for arg in rng._CC)
    monkeypatch.setattr(rng, "_CC", rng._CC + ("-g",))
    assert rng._library_name(source) != name


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """A process that has not loaded the kernels, whose cache directories
    (~/.cache/hdclt and hdclt-<uid> in the temp directory) are under
    tmp_path; returns the first of them."""
    (tmp_path / "home").mkdir()
    (tmp_path / "tmp").mkdir()
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    monkeypatch.setattr(rng, "_lib", None)
    return tmp_path / "home" / ".cache" / "hdclt"


def assert_numpy_fallback(capfd):
    """The loader gave up, quietly, and the numpy code gives the oracle's bytes."""
    keys = EDGE_WORDS[:4]
    words, uniforms = oracle(keys, 5)
    got = rng.word_grid(keys, 5)
    assert rng._lib is False
    assert_same_bits(got, words)
    assert_same_bits(rng.to_uniform(got), uniforms)
    out, err = capfd.readouterr()
    assert out == "" and err == ""


def test_no_compiler_on_path(fresh, monkeypatch, tmp_path, capfd):
    (tmp_path / "bin").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    assert_numpy_fallback(capfd)
    assert os.listdir(fresh) == []


def test_failing_compile(fresh, monkeypatch, tmp_path, capfd):
    (tmp_path / "bin").mkdir()
    cc = tmp_path / "bin" / "cc"
    cc.write_text("#!/bin/sh\necho 'cc: internal error' >&2\nexit 1\n")
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    assert_numpy_fallback(capfd)
    assert os.listdir(fresh) == []  # the temporary output is removed


def test_truncated_library_in_the_cache(fresh, capfd):
    fresh.mkdir(parents=True, mode=0o700)
    (fresh / library_name()).write_bytes(b"\x7fELF\x02\x01\x01")
    assert_numpy_fallback(capfd)


@needs_cc
def test_probe_mismatch_turns_the_kernels_off(fresh, monkeypatch, capfd):
    # the loader runs every loop of the table against its numpy code, in
    # process: numpy code one bit off (on its last value) stands for a
    # compiler that contracts a loop, and scipy's ndtri one bit off (on the
    # last normal) for a libm whose log differs
    real = rng.ndtri

    def one_bit_off(code):
        def wrong(*args):
            x = code(*args)
            x.reshape(-1).view(np.uint64)[-1] ^= np.uint64(1)
            return x
        return wrong

    def ndtri_off(u, *args, **kwargs):
        z = real(u, *args, **kwargs)
        z[-1] = np.nextafter(z[-1], np.inf)
        return z

    for name, entry in list(rng._KERNELS.items()) + [("ndtri", None)]:
        monkeypatch.setattr(rng, "_lib", None)
        with monkeypatch.context() as patch:
            if entry is None:
                patch.setattr(rng, "ndtri", ndtri_off)
            else:
                patch.setitem(rng._KERNELS, name, entry[:3] + (one_bit_off(entry[3]),) + entry[4:])
            assert not loaded(), name
        assert_numpy_fallback(capfd)
    w = rng.words(13, 1000)
    assert_same_bits(rng.to_normal(w), real(numpy_path(rng.to_uniform, w)))
    assert os.listdir(fresh) == [library_name()]  # built, then refused


@needs_cc
def test_the_c_source_builds_clean_and_matches_the_table(tmp_path):
    # rng's own compile with every warning an error; and a loop declared in
    # only one of _kernels.c and rng._KERNELS fails here, where the loader
    # would quietly fall back to numpy
    proc = subprocess.run([*rng._CC, "-Wall", "-Wextra", "-Werror", "-o",
                           str(tmp_path / "kernels.so"), rng._SOURCE, "-lm"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(rng._SOURCE) as fh:
        assert set(re.findall(r"^void (\w+)\(", fh.read(), re.M)) == set(rng._KERNELS)


@needs_cc
def test_a_fresh_build_prunes_old_libraries(fresh, monkeypatch):
    first = loaded()
    assert first
    old = fresh / library_name()
    young = fresh / "_kernels-0123456789abcdef.so"
    shutil.copy(old, young)
    (fresh / "notes").write_text("not a library")
    month_ago = time.time() - 31 * 86400
    for path in (old, fresh / "notes"):
        os.utime(path, (month_ago, month_ago))
    # a changed flag list names a new library, whose build prunes the cache
    monkeypatch.setattr(rng, "_CC", rng._CC + ("-DPRUNE",))
    monkeypatch.setattr(rng, "_lib", None)
    assert loaded()
    assert sorted(os.listdir(fresh)) == sorted([library_name(), young.name, "notes"])
    # the pruned library, unlinked while loaded, still draws
    w = rng.words(14, 300)
    z = np.empty(w.shape)
    first.to_normal(w.ctypes.data, w.size, z.ctypes.data)
    assert_same_bits(z, numpy_path(rng.to_normal, w))


@pytest.mark.parametrize("change", [
    {"st_mode": 0o40770}, {"st_mode": 0o40707}, {"st_uid": os.getuid() + 1}])
def test_cache_directory_not_private(fresh, monkeypatch, tmp_path, capfd, change):
    real_stat = os.stat

    def fake_stat(path, *args, **kwargs):
        st = real_stat(path, *args, **kwargs)
        if not str(path).startswith(str(tmp_path)):
            return st
        fields = list(st)
        for name, value in change.items():
            fields[("st_mode", "st_ino", "st_dev", "st_nlink", "st_uid").index(name)] = value
        return os.stat_result(fields)

    monkeypatch.setattr(os, "stat", fake_stat)
    assert_numpy_fallback(capfd)
    assert os.listdir(fresh) == []


@needs_cc
def test_two_processes_build_one_cache_at_once(tmp_path):
    # each child waits until both have started, so both find the cache
    # empty and compile; each must load a whole library
    code = ("import json, os, sys, time\n"
            "import numpy as np\n"
            "from hdclt import rng\n"
            "open(sys.argv[1], 'w').close()\n"
            "while not all(os.path.exists(p) for p in sys.argv[1:]):\n"
            "    time.sleep(0.001)\n"
            "w = rng.word_grid(np.array([0, 2**64 - 1], dtype=np.uint64), 5)\n"
            "lib = rng._lib\n"
            "print(json.dumps({'lib': lib and lib._name, 'words': w.tolist(),\n"
            "                  'u': rng.to_uniform(w).tolist()}))\n")
    env = dict(os.environ, HOME=str(tmp_path / "home"),
               PYTHONPATH=os.pathsep.join(filter(None, [os.path.dirname(PACKAGE),
                                                        os.environ.get("PYTHONPATH")])))
    flags = [str(tmp_path / f"started-{i}") for i in range(2)]
    procs = [subprocess.Popen([sys.executable, "-c", code, *(flags[i:] + flags[:i])],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for i in range(2)]
    results = [proc.communicate(timeout=300) for proc in procs]
    words, uniforms = oracle(np.array([0, 2**64 - 1], dtype=np.uint64), 5)
    cache = tmp_path / "home" / ".cache" / "hdclt"
    for proc, (out, err) in zip(procs, results):
        assert proc.returncode == 0 and err == "", err
        got = json.loads(out)
        assert got["lib"] == str(cache / library_name())
        assert got["words"] == words.tolist() and got["u"] == uniforms.tolist()
    assert os.listdir(cache) == [library_name()]


def listing(root):
    return sorted((os.path.relpath(d, root), sorted(files)) for d, _, files in os.walk(root))


def git_status(root):
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--ignored"], cwd=root,
                              capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    return proc.stdout if proc.returncode == 0 else None


@needs_cc
def test_cli_run_writes_nothing_into_the_checkout(tmp_path):
    # a first run on an empty cache builds the kernels, outside the package
    root = os.path.dirname(os.path.dirname(PACKAGE))
    config = {"seed": 7, "out": "rho.json", "design": {"kind": "trunc_exp", "p": 6},
              "n": 8, "family": {"kind": "rectangles", "K": 4}, "R": 1000}
    (tmp_path / "c.json").write_text(json.dumps(config))
    code = ("import sys\n"
            "from hdclt import cli, rng\n"
            "code = cli.run(sys.argv[1:])\n"
            "assert rng._lib, 'kernels not loaded'\n"
            "sys.exit(code)\n")
    env = dict(os.environ, HOME=str(tmp_path / "home"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [os.path.dirname(PACKAGE),
                                                        os.environ.get("PYTHONPATH")])))
    before, status = listing(PACKAGE), git_status(root)
    proc = subprocess.run([sys.executable, "-c", code, "estimate-rho", "--config", "c.json"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "rho.json").exists()
    assert listing(PACKAGE) == before
    assert git_status(root) == status
    built = os.listdir(tmp_path / "home" / ".cache" / "hdclt")
    assert built == [library_name()]
