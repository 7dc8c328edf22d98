"""Command-line frontend.

Usage::

    hdclt COMMAND --config FILE [--set key=value ...] [--workers N]

Commands: simulate, bounds, estimate-rho, bootstrap, rate-scan, nazarov,
smoothmax.  The config is a single JSON document (key tree documented in
the README); ``--set`` overrides a leaf by dotted path, parsing the value
as JSON when possible and as a string otherwise.  Every output embeds the
config as given; omitted keys take this version's defaults, which the
report does not record yet (ROADMAP item 4).
A seed is always required: reproducibility is mandatory, not opt-in.

The worker count (``--workers``, one per CPU by default) only affects
wall-clock time, never the numerical output.

Exit codes: 0 success, 2 config or parameter error, 3 numerical failure,
4 I/O failure.
"""
from __future__ import annotations

import json
import os
import sys

import numpy as np

from . import rng, serialize
from .bounds import MOMENT_R, BoundParams, report_from_dataset, report_from_design
from .datagen import (
    DesignSpec,
    population_moments,
    read_dataset,
    sample_dataset,
    write_dataset,
)
from .errors import NotPositiveSemidefiniteError, ParameterError
from .experiments import ScanSpec, nazarov_check, rate_scan, smoothmax_check
from .geometry import family_from_config, family_to_config, sample_rectangles
from .montecarlo import bootstrap_gap, gaussian_approx_gap, interpolation_gap
from .sums import CovMatrix, ModelCovariance

# commands whose report has a table of rows, written with ``format: csv``
TABULAR = ("estimate-rho", "bootstrap", "rate-scan", "nazarov")

FAMILY_K = 100  # rectangles in a sampled family when ``family.K`` is omitted

USAGE = __doc__


class ConfigError(ParameterError):
    pass


def _fail(stream, code: int, message: str) -> int:
    print(f"error: {message}", file=stream)
    return code


def _load_config(path: str) -> dict:
    with open(path, "r") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _apply_override(cfg: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set needs key=value, got {assignment!r}")
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing required config key {key!r}")
    return cfg[key]


def _seed(cfg: dict) -> int:
    seed = _require(cfg, "seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"config key 'seed' must be an integer, got {seed!r}")
    return seed


def _out_path(cfg: dict) -> str:
    return str(_require(cfg, "out"))


def _block(cfg: dict, key: str, required: bool = False) -> dict:
    """A sub-object of the config; an optional one that is absent is empty."""
    block = _require(cfg, key) if required else cfg.get(key, {})
    if not isinstance(block, dict):
        raise ConfigError(f"config key {key!r} must be an object")
    return block


def _params(cfg: dict, *, b: float, B_n: float) -> BoundParams:
    block = _block(cfg, "params")
    # an omitted constant takes its default from BoundParams; null q or alpha is absent
    given = {k: float(block[k]) for k in ("K1", "K2") if k in block}
    given.update((k, float(block[k])) for k in ("q", "alpha") if block.get(k) is not None)
    try:
        return BoundParams(b=float(block.get("b", b)), B_n=float(block.get("B_n", B_n)),
                           **given)
    except ParameterError as exc:
        raise ConfigError(f"params: {exc}") from exc


def _exact_law(cfg: dict) -> bool:
    value = cfg.get("exact_law", True)
    if not isinstance(value, bool):
        raise ConfigError(f"config key 'exact_law' must be true or false, got {value!r}")
    return value


def _design(cfg: dict, key: str = "design") -> DesignSpec:
    try:
        return DesignSpec.from_config(_require(cfg, key))
    except ParameterError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _family(cfg: dict, p: int, sigma_diag: np.ndarray, seed: int):
    block = _block(cfg, "family", required=True)
    if "sets" in block:
        fam = family_from_config(block)
        if fam.p != p:
            raise ConfigError(f"family dimension {fam.p} does not match p={p}")
        return fam
    kind = block.get("kind", "rectangles")
    if kind != "rectangles":
        raise ConfigError(f"unknown family kind {kind!r}")
    count = int(block.get("K", FAMILY_K))
    fam_seed = block.get("seed")
    if fam_seed is None:
        fam_seed = rng.mix64(seed, rng.TAG_FAMILY)
    return sample_rectangles(p, count, sigma_diag, int(fam_seed))


def _sigma_for(cfg: dict, dataset=None) -> ModelCovariance | CovMatrix:
    block = _block(cfg, "sigma")
    source = block.get("source", "design")
    if source == "empirical":
        if dataset is None:
            raise ConfigError("sigma.source 'empirical' needs a dataset")
        return dataset.covariance
    if source == "design":
        design = _design(block if "design" in block else cfg)
        return population_moments(design).sigma
    raise ConfigError(f"unknown sigma source {source!r}")


def _check_output(cfg: dict, command: str) -> None:
    """Reject a missing ``out``, a missing directory of ``out`` or a
    ``format`` the command cannot write before any work is done."""
    path = _out_path(cfg)
    directory = os.path.dirname(path)
    if directory and not os.path.isdir(directory):
        raise OSError(f"cannot write report to {path}: no directory {directory!r}")
    if command == "simulate":
        fmt = cfg.get("format")
        if fmt not in (None, "bin", "csv"):
            raise ConfigError(f"simulate: unknown dataset format {fmt!r}")
        return
    fmt = cfg.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"{command}: unknown report format {fmt!r}")
    what = command
    if command == "estimate-rho" and cfg.get("v_grid") is not None:
        what = "estimate-rho with v_grid"  # the interpolation report has no table
    if fmt == "csv" and what not in TABULAR:
        raise ConfigError(f"{what} has no csv table; use format 'json'")


def _write_report(cfg: dict, command: str, fields: dict, rows) -> None:
    """Write the report byte-stably: the config echo plus ``fields`` as
    json, or the table ``rows`` under ``format: csv``."""
    if cfg.get("format", "json") == "csv":
        text = serialize.csv_table(rows)
    else:
        # everything needed to reproduce the numbers; the worker knob is
        # deliberately excluded because it never changes them
        text = serialize.dumps(dict(fields, command=command, config=cfg))
    path = _out_path(cfg)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

# Each report command returns ``(fields, rows)``: the json report fields
# after the config echo and the rows of its csv table (None without one).

def _cmd_simulate(cfg: dict, workers) -> None:
    dataset = sample_dataset(_design(cfg), int(_require(cfg, "n")), _seed(cfg))
    write_dataset(dataset, _out_path(cfg), cfg.get("format"))


def _cmd_bounds(cfg: dict, workers):
    seed = _seed(cfg)
    moment_R = int(cfg.get("moment_R", MOMENT_R))
    if "dataset" in cfg:
        dataset = read_dataset(str(cfg["dataset"]))
        sigma = _sigma_for(cfg, dataset) if "sigma" in cfg or "design" in cfg else None
        b_default = float(np.min(dataset.covariance.diag()))
        params = _params(cfg, b=b_default if b_default > 0 else 1.0, B_n=1.0)
        report = report_from_dataset(dataset, params, moment_R, seed, sigma)
    else:
        design = _design(cfg)
        n = int(_require(cfg, "n"))
        moments = population_moments(design)
        params = _params(cfg, b=moments.b_lower, B_n=moments.B_n)
        report = report_from_design(design, n, params, moment_R, seed)
    return {"report": report}, None


def _cmd_estimate_rho(cfg: dict, workers):
    design = _design(cfg)
    n = int(_require(cfg, "n"))
    seed = _seed(cfg)
    R = int(_require(cfg, "R"))
    moments = population_moments(design)
    _params(cfg, b=moments.b_lower, B_n=moments.B_n)  # validates q / alpha if given
    sigma = moments.sigma
    exact_law = _exact_law(cfg)
    family = _family(cfg, design.p, np.sqrt(sigma.diag()), seed)
    v_grid = cfg.get("v_grid")
    if v_grid is not None:
        est = interpolation_gap(design, n, sigma, family, v_grid, R, seed, workers, exact_law)
        rows = None
    else:
        est = gaussian_approx_gap(design, n, sigma, family, R, seed, workers, exact_law)
        rows = est.per_set
    return {"family": family_to_config(family), "estimate": est}, rows


def _cmd_bootstrap(cfg: dict, workers):
    dataset = read_dataset(str(_require(cfg, "dataset")))
    mode = str(_require(cfg, "mode"))
    seed = _seed(cfg)
    R = int(_require(cfg, "R"))
    sigma = _sigma_for(cfg, dataset)
    if sigma.p != dataset.p:
        raise ConfigError(
            f"sigma dimension {sigma.p} does not match dataset p={dataset.p}"
        )
    family = _family(cfg, dataset.p, np.sqrt(sigma.diag()), seed)
    est = bootstrap_gap(dataset, sigma, family, R, seed, mode, workers)
    return {"family": family_to_config(family), "estimate": est}, est.per_set


def _cmd_rate_scan(cfg: dict, workers):
    seed = _seed(cfg)
    params = None
    if "params" in cfg:
        block = _block(cfg, "params")
        if "b" not in block or "B_n" not in block:
            raise ConfigError("rate-scan params need explicit b and B_n")
        params = _params(cfg, b=block["b"], B_n=block["B_n"])
    family = _block(cfg, "family")  # the scan derives one family of rectangles per p
    unread = {k: v for k, v in family.items() if k != "K" and (k, v) != ("kind", "rectangles")}
    if unread:
        raise ConfigError(f"rate-scan reads only family.K (and kind 'rectangles'), not {unread}")
    spec = ScanSpec(
        design=_require(cfg, "design"),
        n_grid=tuple(_require(cfg, "n_grid")),
        p_rule=_block(cfg, "p_rule", required=True),
        family_K=int(family.get("K", FAMILY_K)),
        R=int(_require(cfg, "R")),
        seed=seed,
        params=params,
        moment_R=int(cfg.get("moment_R", MOMENT_R)),
        exact_law=_exact_law(cfg),
    )
    if "p" in spec.design:
        raise ConfigError("rate-scan design must omit 'p'; the p_rule supplies it")
    DesignSpec.from_config(dict(spec.design, p=3))  # validate the template early
    result = rate_scan(spec, workers)
    return {"result": result}, result.rows


def _cmd_nazarov(cfg: dict, workers):
    seed = _seed(cfg)
    block = _block(cfg, "sigma", required=True)
    design = DesignSpec.from_config({
        "kind": "gaussian", "p": int(_require(block, "p")),
        "covariance": block.get("covariance", {"model": "identity"}),
    })
    sigma = population_moments(design).sigma
    result = nazarov_check(
        sigma,
        y_count=int(cfg.get("y_count", 9)),
        a_grid=_require(cfg, "a_grid"),
        R=int(_require(cfg, "R")),
        seed=seed,
        workers=workers,
    )
    return {"result": result}, result.rows


def _cmd_smoothmax(cfg: dict, workers):
    seed = _seed(cfg)
    worst = smoothmax_check(
        beta_grid=_require(cfg, "beta_grid"),
        p_grid=_require(cfg, "p_grid"),
        trials=int(_require(cfg, "trials")),
        seed=seed,
    )
    return {"max_violation": worst, "passes": bool(worst <= 1e-12)}, None


_HANDLERS = {
    "simulate": _cmd_simulate,
    "bounds": _cmd_bounds,
    "estimate-rho": _cmd_estimate_rho,
    "bootstrap": _cmd_bootstrap,
    "rate-scan": _cmd_rate_scan,
    "nazarov": _cmd_nazarov,
    "smoothmax": _cmd_smoothmax,
}


def run(argv: list, stdout=None, stderr=None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE, file=stdout)
        return 0 if argv else 2
    command = argv[0]
    if command not in _HANDLERS:
        print(USAGE, file=stderr)
        return _fail(stderr, 2, f"unknown command {command!r}")

    config_path = None
    overrides = []
    workers = None
    args = argv[1:]
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "--config":
            i += 1
            if i >= len(args):
                return _fail(stderr, 2, "--config needs a file path")
            config_path = args[i]
        elif arg == "--set":
            i += 1
            if i >= len(args):
                return _fail(stderr, 2, "--set needs key=value")
            overrides.append(args[i])
        elif arg == "--workers":
            i += 1
            if i >= len(args) or not args[i].isdigit():
                return _fail(stderr, 2, "--workers needs a positive integer")
            workers = max(1, int(args[i]))
        else:
            return _fail(stderr, 2, f"unknown argument {arg!r}")
        i += 1

    if config_path is None:
        return _fail(stderr, 2, "--config is required")

    try:
        cfg = _load_config(config_path)
        for assignment in overrides:
            _apply_override(cfg, assignment)
        _check_output(cfg, command)
        report = _HANDLERS[command](cfg, workers)
        if report is not None:  # simulate writes its dataset itself
            _write_report(cfg, command, *report)
    except (ConfigError, ParameterError, json.JSONDecodeError, KeyError,
            TypeError, ValueError) as exc:
        return _fail(stderr, 2, str(exc))
    except NotPositiveSemidefiniteError as exc:
        return _fail(stderr, 3, str(exc))
    except OSError as exc:
        return _fail(stderr, 4, str(exc))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
