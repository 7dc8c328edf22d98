"""hdclt benchmark: replications per second on CLI study workloads.

Usage, from the repository root::

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are listed in ``bench/workloads.py`` and ``BENCHMARK.json``.  The
load is driven from this one process, which starts fresh child processes
(``bench/child.py``) one at a time; each child imports ``hdclt.cli`` from
``src/``, writes its configs, runs the set-up commands and then the
study commands through ``hdclt.cli.run``.  BLAS is pinned to one thread in
every child, so worker threads x BLAS threads <= nproc.

``--trace 0`` alternates children at ``workers=1`` and ``workers=nproc``
(``MIN_ROUNDS`` of each, more if ``--seconds`` have not passed); each child
repeats the study commands for its share of ``--seconds``.  It reports
medians of

* ``reps_per_s`` / ``reps_per_s_w1``: replications (both compared sides,
  every scan cell, both bootstrap modes) over the wall time of the study
  commands, at ``workers=nproc`` / ``workers=1``;
* ``setup_s``: child start to the first study command, over all children;
* ``peak_rss_mb``: ``ru_maxrss`` of the ``workers=1`` children.

``--trace 1`` alternates untraced and traced ``workers=1`` children, then
runs one traced ``workers=nproc`` child, and reports the per-layer metrics
of ``bench/tracing.py``, ``montecarlo.busy_frac`` (from the parallel pass)
and ``trace.overhead_frac`` (traced over untraced study time, minus 1).

One CLI invocation is one operation.  It fails if it exits nonzero, if its
report bytes differ from the first report of the same command in the run
(so across worker counts, and between traced and untraced passes), or if
it fails its workload's statistical check.  A traced pass also fails when
its exact counts differ from the first traced pass.  The last line of
stdout is the JSON result; the lines before it are for people.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "_work")
sys.path.insert(0, BENCH)

from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
MIN_ROUNDS = 3
RUN_LIMIT_S = 170.0  # every run ends well inside 180 s, whatever --seconds says


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("HDCLT_WORKERS", None)
    return env


class Session:
    """Runs children for one workload and judges every invocation."""

    def __init__(self, workload, seed: int, R: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.R = R
        self.deadline = deadline
        self.env = child_env()
        os.makedirs(WORK, exist_ok=True)
        self.root = os.path.join(WORK, f"run-{os.getpid()}-{time.monotonic_ns()}")
        os.makedirs(self.root)
        self.children = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = {}  # label -> first sha256 seen
        self.verdicts = {}  # sha256 -> problems of that report
        self.machine = None

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    def fail(self, message: str) -> None:
        """Count one failed operation and keep its message for the report."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def run_child(self, workers: int, trace: bool = False, seconds: float = 0.0):
        """Run one child; returns (result, spans) or None if it failed."""
        workdir = os.path.join(self.root, f"child-{self.children}")
        self.children += 1
        os.makedirs(workdir)
        setup, study = self.workload.commands(self.seed, self.R)
        spec = {"workload": self.workload.name, "seed": self.seed, "R": self.R,
                "workers": workers, "workdir": workdir, "trace": trace,
                "seconds": seconds, "spawn_ns": time.monotonic_ns()}
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "child.py"), json.dumps(spec)],
                env=self.env, cwd=workdir, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.attempted += len(setup) + len(study)
            for _ in setup + study:
                self.fail(f"workers={workers}: child timed out after {timeout:.0f} s")
            return None
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.attempted += len(setup) + len(study)
            for _ in setup + study:
                self.fail(f"workers={workers}: child exited {proc.returncode}")
            return None
        result = json.loads(lines[-1])
        self.machine = self.machine or result["machine"]
        self._judge(result["invocations"], workdir, workers)
        spans = None
        if trace:
            with open(os.path.join(workdir, "spans.json")) as fh:
                spans = json.load(fh)
        shutil.rmtree(workdir, ignore_errors=True)
        return result, spans

    def _judge(self, invocations, workdir, workers) -> None:
        parsed = {}
        for inv in invocations:
            self.attempted += 1
            label = inv["label"]
            if inv["rc"] != 0:
                self.fail(f"{label} workers={workers}: exit code {inv['rc']}")
                continue
            sha = inv["sha256"]
            ref = self.reference.setdefault(label, sha)
            if sha != ref:
                self.fail(f"{label} workers={workers}: report {sha[:12]} differs "
                          f"from the first report {ref[:12]}")
                continue
            with open(os.path.join(workdir, "reports", sha), "rb") as fh:
                text = fh.read()
            if sha not in self.verdicts:
                self.verdicts[sha] = self.workload.check_report(label, text)
            if self.verdicts[sha]:
                self.fail(f"{label}: " + "; ".join(self.verdicts[sha]))
            elif self.workload.check_pair is not None and label != "simulate":
                parsed[label] = json.loads(text)
        if self.workload.check_pair is not None:
            for problem in self.workload.check_pair(parsed):
                self.fail(problem)


def median(values):
    return statistics.median(values) if values else 0.0


def measure(session: Session, seconds: float) -> dict:
    n = nproc()
    worker_counts = (1, n) if n > 1 else (1,)
    rate = {w: [] for w in worker_counts}
    setup, rss = [], []
    end = time.monotonic() + seconds
    # each child repeats the study for its slice, so the run measures about
    # --seconds of study time in MIN_ROUNDS rounds
    slice_s = seconds / (MIN_ROUNDS * len(worker_counts))
    rounds = 0
    while rounds < MIN_ROUNDS or time.monotonic() < end:
        order = worker_counts if rounds % 2 == 0 else worker_counts[::-1]
        for w in order:
            out = session.run_child(w, seconds=slice_s)
            if out is None:
                continue
            result, _ = out
            rate[w] += [result["replications"] / t for t in result["study_s"]]
            setup.append(result["setup_s"])
            if w == 1:
                rss.append(result["maxrss_mib"])
        rounds += 1
        if time.monotonic() > session.deadline - 5.0:
            break
    print(f"samples: {len(rate[1])} at workers=1, {len(setup)} set-ups, {rounds} rounds")
    for w in worker_counts:
        print(f"  reps/s at workers={w}: " + " ".join(f"{v:.1f}" for v in rate[w]))
    print("  setup_s: " + " ".join(f"{v:.3f}" for v in setup))
    return {
        "reps_per_s": (median(rate[n]), "replications/s"),
        "reps_per_s_w1": (median(rate[1]), "replications/s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (median(rss), "MiB"),
    }


def measure_traced(session: Session, seconds: float) -> dict:
    from tracing import busy_frac, counts, layer_metrics, span_table

    untraced, traced, tables = [], [], []
    end = time.monotonic() + seconds
    while not tables or time.monotonic() < end:
        for trace in (False, True):
            out = session.run_child(1, trace=trace)
            if out is None:
                return {}
            result, spans = out
            (traced if trace else untraced).append(result["study_s"][0])
            if trace:
                tables.append(span_table(spans["spans"]))
                if spans["missing"]:
                    print("trace: targets not found: " + ", ".join(spans["missing"]))
        if time.monotonic() > session.deadline - 5.0:
            break
    n = nproc()
    parallel = tables[0]
    if n > 1:
        out = session.run_child(n, trace=True)
        if out is None:
            return {}
        parallel = span_table(out[1]["spans"])
    for table in tables[1:] + [parallel]:
        if counts(table) != counts(tables[0]):
            session.fail(f"exact counts differ between traced passes: "
                         f"{counts(table)} vs {counts(tables[0])}")
    per_pass = [layer_metrics(t) for t in tables]
    metrics = {name: (median([m[name][0] for m in per_pass]), unit)
               for name, (_, unit) in per_pass[0].items()}
    metrics["montecarlo.busy_frac"] = (busy_frac(parallel), "ratio")
    metrics["trace.overhead_frac"] = (median(traced) / median(untraced) - 1.0, "ratio")
    print(f"traced passes: {len(traced)} at workers=1, 1 at workers={n}; "
          f"study s untraced {median(untraced):.3f}, traced {median(traced):.3f}")
    for name, row in sorted(tables[0].items()):
        print(f"  span {name:45s} calls {row['calls']:7d}  self {row['self_ns'] * 1e-9:8.4f} s"
              f"  work {row['work']}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hdclt", "cli.py")):
        print(f"error: no hdclt sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    start = time.monotonic()
    session = Session(workload, args.seed, workload.R, start + RUN_LIMIT_S)
    try:
        if args.trace:
            metrics = measure_traced(session, args.seconds)
        else:
            metrics = measure(session, args.seconds)
    finally:
        session.close()

    machine = dict(session.machine or {}, nproc=nproc(), cpu_count=os.cpu_count(),
                   cpu_model=cpu_model(), python=sys.version.split()[0])
    print("workload: " + json.dumps({
        "name": workload.name, "R": workload.R, "seed": args.seed,
        "default_seed": DEFAULT_SEED, "moves": workload.moves, "steady": workload.steady}))
    print("machine: " + json.dumps(machine, sort_keys=True))
    print("report sha256 (information, not a gate): "
          + json.dumps(session.reference, sort_keys=True))
    for problem in session.problems:
        print(f"FAILED: {problem}")
    attempted = max(session.attempted, 1)
    print(f"failed_frac {session.failed / attempted:.6g} ratio "
          f"({session.failed} of {session.attempted} invocations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    ok = session.failed == 0 and session.attempted > 0 and bool(metrics)
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": session.failed if session.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
