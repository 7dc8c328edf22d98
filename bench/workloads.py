"""The benchmark's workloads: CLI configs, output checks and predicted counts.

Every workload is a fixed problem shape whose inputs come from one seed.
File names in the configs are relative: children run in their own working
directory, so the echoed config, and with it the report, is the same bytes
in every child.
``commands`` returns the CLI invocations of a workload in two groups: the
set-up commands (timed as part of ``setup_s``) and the study commands
(timed for ``reps_per_s``).  ``check`` holds each command's statistical
check; it must keep passing after a declared stream change, so it tests
properties of the estimates, never their exact bytes.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

BATCH = 1 << 13  # hdclt.montecarlo.BATCH, the fixed replication batch


def _batches(R: int) -> int:
    return -(-R // BATCH)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``hdclt <name> --config <config>``."""

    label: str
    name: str
    config: dict
    replications: int  # counted for reps_per_s; 0 for set-up commands

    def argv(self, config_path: str, workers: int) -> list:
        return [self.name, "--config", config_path, "--workers", str(workers)]


# --------------------------------------------------------------------------
# scan_literal: rate-scan of a non-gaussian design (literal sum path)
#
# Non-gaussian designs take the literal fresh-dataset path, so
# datagen.values_from_row_keys and the rng calls inside it do ~90% of the
# work; geometry and the gaussian side take a few percent.  The only
# workload that runs bounds and the rate-scan driver.
# --------------------------------------------------------------------------

SCAN_P = 100
SCAN_N_GRID = (16, 64)
SCAN_K = 100
SCAN_MOMENT_R = 10_000
SCAN_B_N = 1.0  # trunc_exp with scale 1 has B_n = scale


def _scan_commands(seed, R):
    cfg = {
        "seed": seed, "out": "scan.json",
        "design": {"kind": "trunc_exp", "scale": SCAN_B_N},
        "n_grid": list(SCAN_N_GRID),
        "p_rule": {"rule": "fixed", "p": SCAN_P},
        "family": {"K": SCAN_K}, "R": R, "moment_R": SCAN_MOMENT_R,
    }
    return [], [Command("rate-scan", "rate-scan", cfg, 2 * len(SCAN_N_GRID) * R)]


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_scan(label, report):
    problems = []
    for row in report["result"]["rows"]:
        for key in ("rho_hat", "noise_floor", "D1", "main_bound"):
            if not _finite(row[key]):
                problems.append(f"row n={row['n']}: {key}={row[key]!r} is not finite")
        n, p = row["n"], row["p"]
        d1 = (SCAN_B_N**2 * math.log(p * n) ** 7 / n) ** (1.0 / 6.0)
        if _finite(row["D1"]) and abs(row["D1"] - d1) > 1e-12 * d1:
            problems.append(f"row n={n}: D1={row['D1']!r}, closed form gives {d1!r}")
    if len(report["result"]["rows"]) != len(SCAN_N_GRID):
        problems.append("wrong number of scan rows")
    return problems


def _scan_counts(R):
    words = values = tests = batches = 0
    for n in SCAN_N_GRID:
        words += R * n + R * n * SCAN_P  # row keys, then row values (literal path)
        words += R * SCAN_P + SCAN_MOMENT_R * SCAN_P  # gaussian side, tail moment
        values += R * n * SCAN_P
        tests += 2 * R * SCAN_K
        batches += 2 * _batches(R)
    return {"rng.words": words, "datagen.values": values,
            "geometry.tests": tests, "montecarlo.batches": batches}


# --------------------------------------------------------------------------
# rect_null_k1000: identical laws, many rectangles (hit counting)
#
# Exact-law one-shot draws are cheap, so geometry.hit_counts does ~90% of
# the work, in a Python loop that holds the GIL: workers=2 is slower than
# workers=1.  Not listed in BENCHMARK.json: on a 2-vCPU host its rates
# swung by 15-20% (quartile distance over median) between runs, too wide
# for the gate; run it by name for hit-counting and thread-scaling work.
# --------------------------------------------------------------------------

RECT_P = 50
RECT_K = 1000


def _rect_commands(seed, R):
    cfg = {
        "seed": seed, "out": "rect.json",
        "design": {"kind": "gaussian", "p": RECT_P}, "n": 2,
        "family": {"kind": "rectangles", "K": RECT_K}, "R": R,
    }
    return [], [Command("estimate-rho", "estimate-rho", cfg, 2 * R)]


def _check_rect(label, report):
    est = report["estimate"]
    if len(est["per_set"]) != RECT_K:
        return [f"{len(est['per_set'])} sets reported, expected {RECT_K}"]
    if not est["sup_diff"] <= est["noise_floor"]:
        return [f"sup_diff {est['sup_diff']!r} above noise_floor "
                f"{est['noise_floor']!r} for identical laws"]
    return []


def _rect_counts(R):
    return {"rng.words": 2 * R * RECT_P, "datagen.values": R * RECT_P,
            "geometry.tests": 2 * R * RECT_K,
            "montecarlo.batches": 2 * _batches(R)}


# --------------------------------------------------------------------------
# nazarov_p1000: anti-concentration check, dense p = 1000 factor
#
# No datagen and no geometry.  Three parts take roughly equal time: rng
# normals, the dense 1000 x 1000 factor product in GaussianSumSampler, and
# the 9-anchor row-max reduction in experiments.nazarov_check.
# --------------------------------------------------------------------------

NAZ_P = 1000
NAZ_R_CORR = 0.5
NAZ_ANCHORS = 9


def _nazarov_commands(seed, R):
    cfg = {
        "seed": seed, "out": "nazarov.json",
        "sigma": {"p": NAZ_P, "covariance": {"model": "equicorrelated", "r": NAZ_R_CORR}},
        "y_count": NAZ_ANCHORS, "a_grid": [0.05], "R": R,
    }
    return [], [Command("nazarov", "nazarov", cfg, R)]


def _check_nazarov(label, report):
    res = report["result"]
    problems = []
    for row in res["rows"]:
        if not row["diff_hat"] >= -3.0 * row["se"]:
            problems.append(f"{row['y_label']}: diff_hat {row['diff_hat']!r} < -3 se")
    # Nazarov: P(Y <= y + a) - P(Y <= y) <= a (sqrt(2 log p) + 2) at unit variances
    limit = math.sqrt(2.0) + 2.0 / math.sqrt(math.log(NAZ_P))
    if not res["max_ratio"] <= limit:
        problems.append(f"max_ratio {res['max_ratio']!r} above Nazarov's {limit!r}")
    if len(res["rows"]) != NAZ_ANCHORS:
        problems.append("wrong number of anchor rows")
    return problems


def _nazarov_counts(R):
    return {"rng.words": R * NAZ_P, "datagen.values": 0, "geometry.tests": 0,
            "montecarlo.batches": _batches(R)}


# --------------------------------------------------------------------------
# bootstrap_n2000: MB and EB draws of one simulated dataset
#
# The cost per replication scales with n, not p, and rng does most of it.
# Peak RSS grows linearly in n (one batch of n multipliers per worker).
# n=2000 rather than 10^4: at 10^4 one batch needs ~2 GB per worker.
# --------------------------------------------------------------------------

BOOT_N = 2000
BOOT_P = 20
BOOT_K = 50
BOOT_DESIGN = {"kind": "gaussian", "p": BOOT_P, "covariance": {"model": "ar1", "r": 0.5}}
BOOT_SUP_LIMIT = 0.05


def _bootstrap_commands(seed, R):
    data = "data.bin"
    setup = [Command("simulate", "simulate", {
        "seed": seed, "out": data, "design": BOOT_DESIGN, "n": BOOT_N}, 0)]
    study = [
        Command(f"bootstrap-{mode}", "bootstrap", {
            "seed": seed, "out": f"boot_{mode}.json",
            "dataset": data, "mode": mode,
            "family": {"kind": "rectangles", "K": BOOT_K}, "R": R,
            "sigma": {"source": "design", "design": BOOT_DESIGN},
        }, 2 * R)
        for mode in ("MB", "EB")
    ]
    return setup, study


def _check_bootstrap(label, report):
    sup = report["estimate"]["sup_diff"]
    if label == "bootstrap-MB" and not sup <= BOOT_SUP_LIMIT:
        return [f"MB sup_diff {sup!r} above {BOOT_SUP_LIMIT}"]
    return []


def _check_bootstrap_pair(reports):
    """|EB - MB| <= 0.05 across the two modes of one run."""
    mb, eb = reports.get("bootstrap-MB"), reports.get("bootstrap-EB")
    if mb is None or eb is None:
        return []
    gap = abs(eb["estimate"]["sup_diff"] - mb["estimate"]["sup_diff"])
    return [] if gap <= BOOT_SUP_LIMIT else [f"|EB - MB| = {gap!r} above {BOOT_SUP_LIMIT}"]


def _bootstrap_counts(R):
    return {"rng.words": 2 * R * (BOOT_N + BOOT_P), "datagen.values": 0,
            "geometry.tests": 4 * R * BOOT_K, "montecarlo.batches": 4 * _batches(R)}


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    R: int  # replications per side per study command
    commands: object  # (seed, R) -> (setup commands, study commands)
    check: object  # (label, parsed report) -> list of problems
    expected_counts: object  # R -> exact per-layer counts of one study pass
    dominant: tuple  # spans that must record calls in a traced pass
    moves: tuple  # layers whose speed should move this workload's reps_per_s
    steady: tuple  # layers that should leave it unchanged
    check_pair: object = None  # parsed reports by label -> list of problems

    def check_report(self, label: str, text: bytes) -> list:
        if label == "simulate":
            return []  # the dataset is judged through the reports that use it
        try:
            report = json.loads(text)
        except ValueError as exc:
            return [f"report is not JSON: {exc}"]
        return self.check(label, report)


# R gives every side at least two batches, so workers=2 has work for both threads.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "scan_literal", 16384, _scan_commands, _check_scan, _scan_counts,
            dominant=("datagen.values_from_row_keys", "rng.to_uniform",
                      "montecarlo.DesignSumSampler.draw_keys", "geometry.hit_counts",
                      "bounds.tail_third_moment_gaussian", "experiments.rate_scan"),
            moves=("rng", "datagen"), steady=("geometry", "sums", "serialize"),
        ),
        Workload(
            "rect_null_k1000", 32768, _rect_commands, _check_rect, _rect_counts,
            dominant=("geometry.hit_counts", "montecarlo.batch",
                      "montecarlo.GaussianSumSampler.draw_keys"),
            moves=("geometry", "montecarlo"), steady=("rng", "datagen", "sums", "bounds"),
        ),
        Workload(
            "nazarov_p1000", 16384, _nazarov_commands, _check_nazarov, _nazarov_counts,
            dominant=("montecarlo.GaussianSumSampler.draw_keys", "rng.to_normal",
                      "experiments.nazarov_check", "experiments.batch"),
            moves=("rng", "montecarlo", "experiments"),
            steady=("datagen", "geometry", "bounds"),
        ),
        Workload(
            "bootstrap_n2000", 16384, _bootstrap_commands, _check_bootstrap,
            _bootstrap_counts,
            dominant=("sums.multiplier_draw_batch", "sums.empirical_resample_draw_batch",
                      "rng.to_normal", "geometry.hit_counts"),
            moves=("rng", "sums"), steady=("datagen", "experiments", "bounds"),
            check_pair=_check_bootstrap_pair,
        ),
    )
}
