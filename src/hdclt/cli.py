"""Command-line frontend.

Usage::

    hdclt COMMAND --config FILE [--set key=value ...] [--workers N]

Commands: simulate, bounds, estimate-rho, bootstrap, rate-scan, nazarov,
smoothmax.  The config is a single JSON document (key tree documented in
the README); ``--set`` overrides a leaf by dotted path, parsing the value
as JSON when possible and as a string otherwise.  Every output embeds the
config as given; omitted keys take this version's defaults, which the
report does not record yet (ROADMAP item 4).  A JSON report records its
``provenance``: the stream version and ``montecarlo.BATCH`` and ``TILE``.
A seed is always required: reproducibility is mandatory, not opt-in.
Config values are typed: an integer key takes any number with an integral
value (``1e4`` is 10000), a number key any JSON number, a flag only true or
false; null leaves out a key that has no default value (``params.q``).  An
error names a key by its dotted path (``sigma.design.p``), and a key given
but never read exits 2 once the command has run, before any output.

The worker count (``--workers``, one per CPU by default) only affects
wall-clock time, never the numerical output.

Exit codes: 0 success, 1 internal error (a bug; its traceback is printed),
2 config or parameter error, 3 numerical failure, 4 I/O failure.
"""
from __future__ import annotations

import json
import os
import sys

import numpy as np

from . import rng, serialize
from .bounds import MOMENT_R, BoundParams, default_params, report_from_dataset, report_from_design
from .datagen import (CovarianceModel, DesignSpec, population_moments, read_dataset,
                      sample_dataset, write_dataset)
from .errors import (REQUIRED, Config, ConfigError, NotPositiveSemidefiniteError,
                     ParameterError, Size, config_value, unread_keys)
from .experiments import ScanSpec, nazarov_check, rate_scan, smoothmax_check
from .geometry import family_from_config, family_to_config, sample_rectangles
from .montecarlo import BATCH, STREAM, TILE, bootstrap_gap, gaussian_approx_gap, interpolation_gap
from .sums import CovMatrix, ModelCovariance

# commands whose report has a table of rows, written with ``format: csv``
TABULAR = ("estimate-rho", "bootstrap", "rate-scan", "nazarov")

FAMILY_K = 100  # rectangles in a sampled family when ``family.K`` is omitted

_OPTION_VALUES = {"--config": "a file path", "--set": "key=value",
                  "--workers": "a positive integer"}

USAGE = __doc__


def _fail(stream, code: int, message: str) -> int:
    print(f"error: {message}", file=stream)
    return code


def _load_config(path: str, overrides: list) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for assignment in overrides:
        _apply_override(cfg, assignment)
    return Config(cfg)


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


def _params(cfg: dict, defaults: BoundParams | None = None) -> BoundParams:
    """The ``params`` block over ``defaults``; without them b and B_n are required."""
    block = config_value(cfg, "params", dict, {})
    given = {k: config_value(block, k, float, getattr(defaults, k, REQUIRED))
             for k in ("b", "B_n")}
    # an omitted K1 or K2 takes its default from BoundParams; null q or alpha is absent
    given.update((k, config_value(block, k, float)) for k in ("K1", "K2") if k in block)
    given.update((k, config_value(block, k, float, None)) for k in ("q", "alpha"))
    return BoundParams(**given)


def _family_K(block: dict) -> int:
    if config_value(block, "kind", str, "rectangles") != "rectangles":  # the one sampled kind
        raise ConfigError(f"unknown family kind {block['kind']!r}")
    return config_value(block, "K", Size, FAMILY_K)


def _family(cfg: dict, p: int, sigma_diag: np.ndarray, seed: int):
    block = config_value(cfg, "family", dict)
    if "sets" in block:
        fam = family_from_config(block)
        if fam.p != p:
            raise ConfigError(f"family dimension {fam.p} does not match p={p}")
        return fam
    K = _family_K(block)
    fam_seed = config_value(block, "seed", int, None)
    if fam_seed is None:
        fam_seed = rng.mix64(seed, rng.TAG_FAMILY)
    return sample_rectangles(p, K, sigma_diag, fam_seed)


def _sigma_for(cfg: dict, dataset) -> ModelCovariance | CovMatrix:
    block = config_value(cfg, "sigma", dict, {})
    source = config_value(block, "source", str, "design")
    if source == "empirical":
        return dataset.covariance
    if source == "design":
        design = config_value(block if "design" in block else cfg, "design", dict)
        return population_moments(DesignSpec.from_config(design)).sigma
    raise ConfigError(f"unknown sigma source {source!r}")


def _check_output(cfg: dict, command: str) -> None:
    """Reject a missing ``out``, a missing directory of ``out`` or a
    ``format`` the command cannot write before any work is done."""
    path = config_value(cfg, "out", str)
    directory = os.path.dirname(path)
    if directory and not os.path.isdir(directory):
        raise OSError(f"cannot write report to {path}: no directory {directory!r}")
    if command == "simulate":
        fmt = config_value(cfg, "format", str, None)
        if fmt not in (None, "bin", "csv"):
            raise ConfigError(f"simulate: unknown dataset format {fmt!r}")
        return
    fmt = config_value(cfg, "format", str, "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"{command}: unknown report format {fmt!r}")
    what = command
    if command == "estimate-rho" and config_value(cfg, "v_grid", list, None) is not None:
        what = "estimate-rho with v_grid"  # the interpolation report has no table
    if fmt == "csv" and what not in TABULAR:
        raise ConfigError(f"{what} has no csv table; use format 'json'")


def _write_output(cfg: dict, command: str, result) -> None:
    """Write simulate's dataset, or a report byte-stably: the config echo
    plus its fields as json, or its table rows under ``format: csv``."""
    path = config_value(cfg, "out", str)
    if command == "simulate":
        return write_dataset(result, path, config_value(cfg, "format", str, None))
    fields, rows = result
    if config_value(cfg, "format", str, "json") == "csv":
        text = serialize.csv_table(rows)
    else:
        # everything needed to reproduce the numbers; the worker knob is
        # deliberately excluded because it never changes them
        provenance = {"stream": STREAM, "batch": BATCH, "tile": TILE}
        text = serialize.dumps(dict(fields, command=command, config=cfg, provenance=provenance))
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

# Each report command returns ``(fields, rows)``: the json report fields after
# the config echo and its csv table's rows (None without one); simulate, its dataset.

def _cmd_simulate(cfg: dict, workers):
    return sample_dataset(DesignSpec.from_config(config_value(cfg, "design", dict)),
                          config_value(cfg, "n", Size), config_value(cfg, "seed", int))


def _cmd_bounds(cfg: dict, workers):
    seed = config_value(cfg, "seed", int)
    moment_R = config_value(cfg, "moment_R", Size, MOMENT_R)
    if "dataset" in cfg:
        dataset = read_dataset(config_value(cfg, "dataset", str))
        sigma = _sigma_for(cfg, dataset) if "sigma" in cfg or "design" in cfg else None
        b_default = float(np.min(dataset.covariance.diag()))
        params = _params(cfg, BoundParams(b=b_default if b_default > 0 else 1.0, B_n=1.0))
        report = report_from_dataset(dataset, params, moment_R, seed, sigma)
    else:
        design = DesignSpec.from_config(config_value(cfg, "design", dict))
        n = config_value(cfg, "n", Size)
        params = _params(cfg, default_params(population_moments(design)))
        report = report_from_design(design, n, params, moment_R, seed)
    return {"report": report}, None


def _cmd_estimate_rho(cfg: dict, workers):
    design = DesignSpec.from_config(config_value(cfg, "design", dict))
    n = config_value(cfg, "n", Size)
    seed = config_value(cfg, "seed", int)
    R = config_value(cfg, "R", Size)
    moments = population_moments(design)
    _params(cfg, default_params(moments))  # validates q / alpha if given
    sigma = moments.sigma
    exact_law = config_value(cfg, "exact_law", bool, True)
    v_grid = config_value(cfg, "v_grid", list, None, item=float)
    family = _family(cfg, design.p, np.sqrt(sigma.diag()), seed)
    if v_grid is not None:
        est = interpolation_gap(design, n, sigma, family, v_grid, R, seed, workers, exact_law)
        rows = None
    else:
        est = gaussian_approx_gap(design, n, sigma, family, R, seed, workers, exact_law)
        rows = est.per_set
    return {"family": family_to_config(family), "estimate": est}, rows


def _cmd_bootstrap(cfg: dict, workers):
    dataset = read_dataset(config_value(cfg, "dataset", str))
    mode = config_value(cfg, "mode", str)
    seed = config_value(cfg, "seed", int)
    R = config_value(cfg, "R", Size)
    sigma = _sigma_for(cfg, dataset)
    if sigma.p != dataset.p:
        raise ConfigError(
            f"sigma dimension {sigma.p} does not match dataset p={dataset.p}"
        )
    family = _family(cfg, dataset.p, np.sqrt(sigma.diag()), seed)
    est = bootstrap_gap(dataset, sigma, family, R, seed, mode, workers)
    return {"family": family_to_config(family), "estimate": est}, est.per_set


def _cmd_rate_scan(cfg: dict, workers):
    seed = config_value(cfg, "seed", int)
    params = _params(cfg) if "params" in cfg else None
    spec = ScanSpec(
        design=config_value(cfg, "design", dict),
        n_grid=tuple(config_value(cfg, "n_grid", list, item=Size)),
        p_rule=config_value(cfg, "p_rule", dict),
        family_K=_family_K(config_value(cfg, "family", dict, {})),  # one family per p
        R=config_value(cfg, "R", Size),
        seed=seed,
        params=params,
        moment_R=config_value(cfg, "moment_R", Size, MOMENT_R),
        exact_law=config_value(cfg, "exact_law", bool, True),
    )
    result = rate_scan(spec, workers)
    return {"result": result}, result.rows


def _cmd_nazarov(cfg: dict, workers):
    seed = config_value(cfg, "seed", int)
    block = config_value(cfg, "sigma", dict)
    cov = config_value(block, "covariance", dict, {"model": "identity"})
    sigma = ModelCovariance(CovarianceModel.from_config(cov), config_value(block, "p", Size))
    result = nazarov_check(
        sigma, y_count=config_value(cfg, "y_count", Size, 9),
        a_grid=config_value(cfg, "a_grid", list, item=float),
        R=config_value(cfg, "R", Size),
        seed=seed,
        workers=workers,
    )
    return {"result": result}, result.rows


def _cmd_smoothmax(cfg: dict, workers):
    seed = config_value(cfg, "seed", int)
    worst = smoothmax_check(
        beta_grid=config_value(cfg, "beta_grid", list, item=float),
        p_grid=config_value(cfg, "p_grid", list, item=Size),
        trials=config_value(cfg, "trials", Size),
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

    config_path, overrides, workers = None, [], None
    args = iter(argv[1:])
    for arg in args:
        value = next(args, None)
        if arg == "--config" and value is not None:
            config_path = value
        elif arg == "--set" and value is not None:
            overrides.append(value)
        elif arg == "--workers" and value is not None and value.isdecimal() and int(value) > 0:
            workers = int(value)
        elif arg in _OPTION_VALUES:
            return _fail(stderr, 2, f"{arg} needs {_OPTION_VALUES[arg]}")
        else:
            return _fail(stderr, 2, f"unknown argument {arg!r}")

    if config_path is None:
        return _fail(stderr, 2, "--config is required")

    try:
        cfg = _load_config(config_path, overrides)
        _check_output(cfg, command)
        result = _HANDLERS[command](cfg, workers)
        if unread := unread_keys(cfg):  # misspelled, or not used by this command or branch
            raise ConfigError(f"config key(s) {unread} given but not read by {command}")
        _write_output(cfg, command, result)
    except ParameterError as exc:  # ConfigError included
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
