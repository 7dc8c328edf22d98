"""Self-test of the benchmark's tracing, from the repository root::

    python3 bench/selftest.py

For every workload, at small replication counts R1 and R2:

* trace completeness: each span the workload names as ``dominant``
  records calls, no tracing target is missing from the package, and the
  report bytes of a traced pass equal those of an untraced pass;
* exact counts repeat: ``rng.words``, ``datagen.values``,
  ``geometry.tests`` and ``montecarlo.batches`` are identical in two
  traced passes with the same seed;
* counts scale with R as predicted: they equal the workload's closed-form
  ``expected_counts`` at R1 and at R2 (R2 is not a multiple of the batch).

Exits 1 if any check fails.
"""
from __future__ import annotations

import sys
import time

from run import DEFAULT_SEED, Session
from tracing import counts, span_table
from workloads import BATCH, WORKLOADS

R1 = BATCH // 2
R2 = 3 * BATCH // 2


def _pass(session, trace):
    out = session.run_child(1, trace=trace)
    if out is None:
        raise RuntimeError("; ".join(session.problems) or "child failed")
    result, spans = out
    shas = {inv["label"]: inv["sha256"] for inv in result["invocations"]}
    return shas, spans


def check_workload(workload) -> list:
    problems = []
    session = Session(workload, DEFAULT_SEED, R1, time.monotonic() + 600.0)
    try:
        plain, _ = _pass(session, False)
        traced = [_pass(session, True) for _ in range(2)]
        session.R = R2
        _, spans_r2 = _pass(session, True)
    finally:
        session.close()
    tables = [span_table(spans["spans"]) for _, spans in traced]
    for shas, spans in traced:
        if shas != plain:
            problems.append(f"traced report bytes differ from untraced: {shas} vs {plain}")
        if spans["missing"]:
            problems.append(f"tracing targets missing: {spans['missing']}")
    for name in workload.dominant:
        if tables[0].get(name, {}).get("calls", 0) == 0:
            problems.append(f"span {name} recorded no calls")
    first, second = counts(tables[0]), counts(tables[1])
    if first != second:
        problems.append(f"counts differ between identical passes: {first} vs {second}")
    for R, got in ((R1, first), (R2, counts(span_table(spans_r2["spans"])))):
        want = workload.expected_counts(R)
        if got != want:
            problems.append(f"counts at R={R}: got {got}, predicted {want}")
    return problems


def main() -> int:
    failed = False
    for workload in WORKLOADS.values():
        problems = check_workload(workload)
        for problem in problems:
            print(f"FAIL {workload.name}: {problem}")
        if not problems:
            print(f"PASS {workload.name}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
