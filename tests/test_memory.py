"""Memory of a run is bounded by fixed budgets, not by n, p, R or the trial count.

At n = 10^5 one unsliced batch of R = 1000 multiplier or empirical draws
materializes several arrays of R * n = 10^8 elements, 763 MiB each.
``_Sampler.map_chunks`` hands these product kernels slices of at most
``montecarlo.TILE`` elements per array, and the words, uniforms,
resample indices and normals are made in blocks of ``rng.BLOCK``
elements inside a slice, which keeps a whole run near 95 MiB (96 and 94
MiB for multiplier and empirical draws; 158 and 155 MiB with slicing
alone).  At p = 5000 a batch of 8192 draws is 312 MiB; ``map_chunks``
makes it in chunks of at most ``TILE`` draw values and the hit counts
reduce each chunk before the next is drawn, so multiplier and empirical
hit counts of an n = 50 dataset peak at 93 and 123 MiB, where the whole
batch took 406 and 421 MiB.  A row-local sampler draws chunks of
``montecarlo.DRAW_BUDGET`` (2^20) values: a ``nazarov`` run at p = 1000
(equicorrelated, R = 16384) peaks at 64 MiB, and has its own limit of 75
MiB.  With 2^22-value chunks it took 88 MiB: each 33.5 MB chunk sits
just under glibc's 32 MiB mmap ceiling, so after the first free the
chunks came from the heap, and two of them stayed resident.  ``bounds``
on a design draws its ``moment_R`` data-side rows in ``rng.BLOCK``
blocks and keeps one cube per row: at p = 200 and moment_R = 2 * 10^5 it
peaks at 98 MiB, where the whole R x p matrix took 1631 MiB.
``smoothmax`` at 10^5 trials of p = 1000 peaks at 58 MiB; it needs 763
MiB per trials x p array, and more than the 2 GiB cap without blocks.  A
``rate-scan`` of sign rows whose ``exp_power`` rule gives p = 2981 and
22026 peaks at 167 MiB: the Gaussian side of a design covariance is
drawn through its closed-form factor, where the dense p x p covariance
alone would take 3.6 GiB at p = 22026.  About 55 MiB of each peak is the
interpreter with numpy and ``scipy.special``
(``tests/test_imports.py``).  Each run happens in a fresh interpreter
and reports ``VmHWM``, the peak resident size of its own address space.
Its ``ru_maxrss`` would not do: Linux carries the high-water mark of the
forking process (here the whole test session) across exec.  The child's
address space is capped at 2 GiB, so a regression fails with a
MemoryError instead of taking gigabytes of a shared machine.
"""
import json
import os
import subprocess
import sys

import pytest

import hdclt
from hdclt import cli

LIMIT_MIB = 256
WIDE_LIMIT_MIB = 200
CASE_LIMIT_MIB = {"nazarov": 75}
N = 100_000

CAP = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
"""
PEAK = """
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))  # KiB
"""
CHILD = CAP + """
from hdclt import cli
code = cli.run(sys.argv[1:])
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
}


def _peak_mib(code, args, cwd):
    """Runs ``code`` in a fresh interpreter and returns its VmHWM in MiB."""
    src = os.path.dirname(os.path.dirname(hdclt.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
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
    peak_mib = _peak_mib(CHILD, [command, "--config", str(path), "--workers", "1"],
                         dataset_dir)
    limit = CASE_LIMIT_MIB.get(case, LIMIT_MIB)
    assert peak_mib < limit, f"{case}: peak RSS {peak_mib:.0f} MiB"


@needs_proc
@pytest.mark.parametrize("mode", ["MB", "EB"])
def test_wide_bootstrap_draws_reduced_chunk_by_chunk(tmp_path, mode):
    peak_mib = _peak_mib(WIDE_CHILD, [mode], tmp_path)
    assert peak_mib < WIDE_LIMIT_MIB, f"{mode}: peak RSS {peak_mib:.0f} MiB"
