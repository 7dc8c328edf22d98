"""Memory of a run is bounded by fixed budgets, not by n, p, R or the trial count.

At n = 10^5 one unsliced batch of R = 1000 multiplier or empirical draws
materializes several arrays of R * n = 10^8 elements, 763 MiB each.  A
product sampler runs each matrix product on a tile of T rows, T the largest
power of two at most ``montecarlo.BATCH`` and ``montecarlo.TILE`` (2^20)
// size, here 8 rows of 10^5 values, and the words, uniforms, resample
indices and normals are made in blocks of ``rng.BLOCK`` elements inside a
tile, which keeps a whole run near 71 MiB for multiplier and for empirical
draws (97 MiB with the 2^22-value slices of stream 1; 158 and 155 MiB with
slicing alone).  At p = 5000 a batch of 8192 draws is 312 MiB;
``map_chunks`` makes it in chunks of at most ``DRAW_BUDGET`` draw values and the
hit counts reduce each chunk before the next is drawn, so multiplier and
empirical hit counts of an n = 50 dataset peak at 70 and 68 MiB (92 and
91 MiB with 2^22-value slices), where the whole batch took 406 and 421
MiB.  A product sampler writes the operand of every tile (its normals or
resample row counts) into one buffer of T x size values per batch, at most
``TILE`` values (8 MiB).  The ``bootstrap_n2000`` benchmark's commands
(simulate n = 2000, p = 20, then MB and EB at R = 16384, in one
interpreter) peak at 67 MiB on tiles of 512 rows.  Stream 1's 2^22-value
buffer, 32 MiB, took them to 91 MiB; with a fresh operand per slice they
took 121 MiB, since a 33.5 MB operand sits just under glibc's 32 MiB mmap
ceiling, so after the first free such operands came from the heap and two
of them stayed resident.  A row-local sampler draws chunks of
``montecarlo.DRAW_BUDGET`` (2^20) values, but ``nazarov`` takes each draw's
row maximum as the draws are made, block by block, each block's words and
then its normals in one buffer, so no chunk of draws is ever held: a run
at p = 1000 (equicorrelated, R = 16384) peaks at 56 MiB, under its own
limit of 62 MiB, where chunks of 2^20 draws took it to 64 MiB and chunks
of 2^22 draws to 88 MiB, for the same heap reason.  An interpolated ``estimate-rho`` at p = 1000
(``trunc_exp``, n = 16, R = 8192) holds both branches of a chunk, so its
chunks have half as many keys, and combines them in place: it peaks at
69 MiB, under its limit of 75 MiB; chunks of ``DRAW_BUDGET`` values per
branch took it to 72 MiB, and adding the branches out of place to 89 MiB.  ``bounds`` on a design draws its ``moment_R``
data-side rows in ``rng.BLOCK`` blocks and sums their cubes batch by batch,
so it holds the keys and cubes of one batch, not of all R rows: at
p = 200 and moment_R = 2 * 10^5 it peaks at 74 MiB, where the whole
R x p matrix took 1631 MiB.  The ``scan_literal`` benchmark's ``rate-scan``
(``trunc_exp`` p = 100, n 16 and 64, K = 100, R = 16384) peaks at 63 MiB,
under its limit of 66 MiB: its tail moments take each row's max |x| from
the row's max and min, where the ``np.abs`` copy of every chunk took it to
69-75 MiB.  The reductions of a chunk (the tail cubes, the hit counts, the
anchor counts of ``nazarov``) allocate at most a quarter of its size
(``tracemalloc``, in process); the anchor counts of 5000 anchors take
their gaps in slices of ``DRAW_BUDGET // 4`` and stay within 3 MiB, and
one fused 8192-key ``nazarov`` batch at p = 1000 allocates under 1 MiB.
``smoothmax`` at 10^5 trials of p = 1000 peaks at 58 MiB; it needs 763
MiB per trials x p array, and more than the 2 GiB cap without blocks.  A ``rate-scan`` of sign rows whose
``exp_power`` rule gives p = 2981 and 22026 peaks at 119 MiB: the
Gaussian side of a design covariance is drawn through its closed-form
factor, where the dense p x p covariance alone would take 3.6 GiB at
p = 22026.  About 55 MiB of each peak is the interpreter with numpy and
``scipy.special`` (``tests/test_imports.py``).  Each run happens in a
fresh interpreter and reports ``VmHWM``, the peak resident size of its
own address space.  Its ``ru_maxrss`` would not do: Linux carries the
high-water mark of the forking process (here the whole test session)
across exec.  The child's address space is capped at 2 GiB, so a
regression fails with a MemoryError instead of taking gigabytes of a
shared machine.
"""
import functools
import json
import os
import tracemalloc

import numpy as np
import pytest

from conftest import run_child
from hdclt import bounds, cli, experiments, rng, sums
from hdclt.datagen import CovarianceModel, DesignSpec
from hdclt.geometry import hit_counts, sample_rectangles
from hdclt.montecarlo import BATCH, DRAW_BUDGET, GaussianSumSampler

LIMIT_MIB = 256
WIDE_LIMIT_MIB = 105
CASE_LIMIT_MIB = {"nazarov": 62, "interpolated": 75, "scan_literal": 66}
BENCH_SHAPE_LIMIT_MIB = 80
N = 100_000

CAP = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
"""
PEAK = """
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))  # KiB
"""
# runs the CLI commands of a JSON list of argument lists, up to the first failure
CHILD = CAP + """
import json
from hdclt import cli
code = 0
for argv in json.loads(sys.argv[1]):
    code = code or cli.run(argv)
""" + PEAK + """
sys.exit(code)
"""
# bootstrap hit counts of a wide dataset alone: the CLI's Gaussian side would
# add the p x p empirical covariance and its Cholesky factor (sigma source
# "empirical"); a design sigma adds no p x p array
WIDE_CHILD = CAP + """
import numpy as np
from hdclt.datagen import DesignSpec, sample_dataset
from hdclt.geometry import sample_rectangles
from hdclt.montecarlo import EmpiricalSampler, MultiplierSampler, family_hit_counts
p = 5000
data = sample_dataset(DesignSpec(kind="rademacher", p=p), 50, 5)
sampler = (MultiplierSampler if sys.argv[1] == "MB" else EmpiricalSampler)(data)
family_hit_counts(sampler, sample_rectangles(p, 10, np.ones(p), 6), 8192, 7, 1)
""" + PEAK


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("memory")
    cfg = {"seed": 1, "out": str(root / "data.bin"), "n": N,
           "design": {"kind": "gaussian", "p": 4, "covariance": {"model": "ar1", "r": 0.5}}}
    (root / "sim.json").write_text(json.dumps(cfg))
    assert cli.run(["simulate", "--config", str(root / "sim.json")]) == 0
    return root


def _bootstrap(mode):
    return "bootstrap", {"seed": 2, "dataset": "data.bin", "mode": mode, "R": 1000,
                         "sigma": {"source": "empirical"}, "family": {"K": 10}}


CASES = {
    "MB": _bootstrap("MB"),
    "EB": _bootstrap("EB"),
    "bounds": ("bounds", {"seed": 3, "design": {"kind": "trunc_exp", "p": 200},
                          "n": 400, "moment_R": 200_000}),
    "smoothmax": ("smoothmax", {"seed": 4, "beta_grid": [1.0], "p_grid": [1000],
                                "trials": 100_000}),
    # p >> n: exp_power gives p = 2981 at n = 16 and p = 22026 at n = 25
    "rate-scan-wide": ("rate-scan", {"seed": 5, "design": {"kind": "rademacher"},
                                     "n_grid": [16, 25],
                                     "p_rule": {"rule": "exp_power", "c": 0.5, "coef": 2.0},
                                     "family": {"K": 5}, "R": 1000, "moment_R": 1000}),
    # row-local Gaussian draws at p = 1000: chunks of DRAW_BUDGET values
    "nazarov": ("nazarov", {"seed": 6, "y_count": 9, "a_grid": [0.05], "R": 16384,
                            "sigma": {"p": 1000, "covariance": {"model": "equicorrelated",
                                                                "r": 0.5}}}),
    # interpolated draws at p = 1000: each chunk's two branches, combined in place
    "interpolated": ("estimate-rho", {
        "seed": 7, "design": {"kind": "trunc_exp", "p": 1000}, "n": 16, "R": 8192,
        "v_grid": [0.5], "family": {"sets": [{"label": "orthant", "kind": "rect",
                                              "lower": ["-inf"] * 1000, "upper": [0.0] * 1000}]}}),
    # the scan_literal benchmark's shape: the tail moments reduce each chunk
    # of draws without a copy of it
    "scan_literal": ("rate-scan", {"seed": 1, "design": {"kind": "trunc_exp", "scale": 1.0},
                                   "n_grid": [16, 64], "p_rule": {"rule": "fixed", "p": 100},
                                   "family": {"K": 100}, "R": 16384, "moment_R": 10_000}),
}


def _peak_mib(code, args, cwd):
    """Runs ``code`` in a fresh interpreter and returns its VmHWM in MiB."""
    proc = run_child(["-c", code, *args], "1", cwd=cwd, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1]) / 1024


needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                reason="reads the peak RSS from Linux /proc")


@needs_proc
@pytest.mark.parametrize("case", list(CASES))
def test_peak_rss_bounded(dataset_dir, case):
    command, cfg = CASES[case]
    cfg = dict(cfg, out=f"{case}.json")
    path = dataset_dir / f"{case}.cfg.json"
    path.write_text(json.dumps(cfg))
    peak_mib = _peak_mib(CHILD, [json.dumps([[command, "--config", str(path), "--workers", "1"]])],
                         dataset_dir)
    limit = CASE_LIMIT_MIB.get(case, LIMIT_MIB)
    assert peak_mib < limit, f"{case}: peak RSS {peak_mib:.0f} MiB"


@needs_proc
@pytest.mark.parametrize("mode", ["MB", "EB"])
def test_wide_bootstrap_draws_reduced_chunk_by_chunk(tmp_path, mode):
    peak_mib = _peak_mib(WIDE_CHILD, [mode], tmp_path)
    assert peak_mib < WIDE_LIMIT_MIB, f"{mode}: peak RSS {peak_mib:.0f} MiB"


@needs_proc
def test_bootstrap_bench_shape_in_one_interpreter(tmp_path):
    # the bootstrap_n2000 benchmark's commands, in one interpreter as in its
    # children: simulate n = 2000, p = 20 AR(1) rows, then MB and EB at R = 16384
    design = {"kind": "gaussian", "p": 20, "covariance": {"model": "ar1", "r": 0.5}}
    runs = [("simulate", {"seed": 1, "out": "data.bin", "design": design, "n": 2000})]
    runs += [("bootstrap", {"seed": 1, "out": f"boot_{mode}.json", "dataset": "data.bin",
                            "mode": mode, "family": {"kind": "rectangles", "K": 50},
                            "R": 16384, "sigma": {"source": "design", "design": design}})
             for mode in ("MB", "EB")]
    argvs = []
    for i, (command, cfg) in enumerate(runs):
        (tmp_path / f"{i}.json").write_text(json.dumps(cfg))
        argvs.append([command, "--config", f"{i}.json", "--workers", "1"])
    peak_mib = _peak_mib(CHILD, [json.dumps(argvs)], tmp_path)
    assert peak_mib < BENCH_SHAPE_LIMIT_MIB, f"peak RSS {peak_mib:.0f} MiB"


def _allocated(fn, *args) -> int:
    """Peak bytes ``fn(*args)`` allocates beyond what is live when it starts."""
    fn(*args)  # caches and first-call set-up stay out of the count
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("reduction", ["tail_cubes", "hit_counts", "anchor_counts"])
def test_chunk_reductions_make_no_copy_of_the_chunk(reduction):
    # an (8192, 100) chunk of draws, the scan_literal shape: 6.5 MB
    p = 100
    draws = rng.to_normal(rng.word_grid(rng.words(3, 8192), p))
    fn, args = {
        "tail_cubes": (bounds._tail_cubes, (draws, 1.0)),
        "hit_counts": (hit_counts, (sample_rectangles(p, 100, np.ones(p), 4), draws)),
        "anchor_counts": (functools.partial(experiments._anchor_counts,
                                            anchors=np.linspace(-1.0, 3.0, 9),
                                            offsets=[0.0, 0.05]), (draws.max(axis=1),)),
    }[reduction]
    assert _allocated(fn, *args) <= draws.nbytes // 4


def test_row_max_batch_holds_no_chunk_of_draws():
    # nazarov's shape: one 8192-key equicorrelated p = 1000 batch, reduced to
    # its row maxima as each block is drawn in its one buffer; the
    # unfused batch makes DRAW_BUDGET-value chunks of draws, 8 MiB each
    sampler = GaussianSumSampler(CovarianceModel("equicorrelated", 0.5).factor(1000))
    peak = _allocated(sampler.map_chunks, 3, 0, 8192, lambda maxima: maxima,
                      experiments._row_max)
    assert peak < 1 << 20


def test_normals_workspace_does_not_grow_with_blocks():
    # 2 and 64 blocks of rng.BLOCK normals are drawn in a caller's array,
    # each block's words and then its normals in its own rows; the larger
    # call may only add a few Python ints, far less than one row of normals
    p = 1000
    keys = rng.words(4, 64 * (rng.BLOCK // p))
    out = np.empty((len(keys), p))
    peaks = [_allocated(lambda k: sums._normals(k, p, out=out[:len(k)]), keys[:n])
             for n in (2 * (rng.BLOCK // p), len(keys))]
    assert peaks[1] < peaks[0] + 8 * p


def test_population_tail_x_memory_does_not_grow_with_R():
    # M_x sums its cubes batch by batch: 32 batches allocate at most 1.5
    # times what 2 do (0.7 MB each); holding all R keys and R cubes, 32
    # batches took 6.3 MB against 0.9 MB
    design = DesignSpec(kind="trunc_exp", p=10)
    peaks = [_allocated(bounds._population_tail_x, design, 2.0, batches * BATCH, 5)
             for batches in (2, 32)]
    assert peaks[1] <= 1.5 * peaks[0]


def test_anchor_counts_bounded_in_y_count():
    # 8192 row maxima against 5000 anchors: the unsliced (maxima x anchors)
    # gaps take 328 MB; slices of DRAW_BUDGET // 4 gaps (2 MiB), their
    # comparisons and the counts stay within 3 MiB
    maxima = np.max(rng.to_normal(rng.word_grid(rng.words(8, 8192), 50)), axis=1)
    anchors = np.linspace(-3.0, 3.0, 5000)
    peak = _allocated(experiments._anchor_counts, maxima, anchors, [0.0, 0.05])
    assert peak <= 3 * DRAW_BUDGET
