"""Repeat benchmark runs over seeds and summarise their spread.

From the repository root::

    python3 bench/baseline.py --seeds 10 [--first-seed 1] [--trace 0|1]
                              [--workload NAME ...] [--out FILE]

Runs ``bench/run.py`` once per seed and workload (workloads interleaved
within each seed, so slow phases of the machine fall on all of them) for
``run_seconds`` of ``BENCHMARK.json``.  Prints, per workload and metric, the
median, the quartiles of ``statistics.quantiles(values, n=4)`` and their
distance as a share of the median; ``--out`` also writes every value, the
machine record and the report hashes of the default seed as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import DEFAULT_SEED, ROOT


def _tagged(lines, tag):
    for line in lines:
        if line.startswith(tag):
            return json.loads(line[len(tag):])
    return None


def summarise(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append",
                        default=None, help="default: every workload of BENCHMARK.json")
    parser.add_argument("--out")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"run_seconds": spec["run_seconds"], "trace": args.trace,
              "workloads": {name: {"runs": 0, "attempted": 0, "failed": 0, "metrics": {}}
                            for name in names}}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for name in names:
            proc = subprocess.run(
                spec["command"] + ["--workload", name, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{name} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(lines[-1])
            entry = record["workloads"][name]
            entry["runs"] += 1
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                entry["metrics"].setdefault(metric, []).append(value["value"])
            record.setdefault("machine", _tagged(lines, "machine: "))
            if seed == DEFAULT_SEED:
                entry["report_sha256_default_seed"] = _tagged(
                    lines, "report sha256 (information, not a gate): ")
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)

    for name, entry in record["workloads"].items():
        entry["metrics"] = {m: summarise(v) for m, v in entry["metrics"].items()}
        for metric, s in entry["metrics"].items():
            bound = bounds.get(metric)
            flag = "" if bound is None else f"  bound {bound}" + (
                "" if s["spread"] <= bound / 3 else "  (spread above a third of bound)")
            print(f"{name:16s} {metric:45s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.3f}{flag}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
