import io
import json
import os
import re
import struct
import time

import numpy as np
import pytest

from conftest import run_child
from hdclt import cli, serialize
from hdclt.datagen import DesignSpec, population_moments, read_dataset
from hdclt.errors import MAX_SIZE, NotPositiveSemidefiniteError
from hdclt.experiments import nazarov_check
from hdclt.montecarlo import DRAW_BUDGET
from hdclt.sums import CovMatrix


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def rho_config(tmp_path, **overrides):
    cfg = {
        "seed": 12345,
        "out": str(tmp_path / "rho.json"),
        "design": {"kind": "rademacher", "p": 10},
        "n": 50,
        "family": {"kind": "rectangles", "K": 10},
        "R": 5000,
    }
    cfg.update(overrides)
    return cfg


def test_estimate_rho_happy_path(tmp_path):
    path = write_config(tmp_path, "c.json", rho_config(tmp_path))
    code, _, err = run_cli(["estimate-rho", "--config", path])
    assert code == 0, err
    payload = json.loads((tmp_path / "rho.json").read_text())
    assert payload["command"] == "estimate-rho"
    assert payload["config"]["seed"] == 12345  # config echo
    assert 0.0 <= payload["estimate"]["sup_diff"] <= 1.0
    assert len(payload["estimate"]["per_set"]) == 10


def test_family_seed_fixes_the_family(tmp_path):
    def family(run_seed, family_seed):
        cfg = rho_config(tmp_path, seed=run_seed, R=1000,
                         family={"kind": "rectangles", "K": 5, "seed": family_seed})
        code, _, err = run_cli(["estimate-rho", "--config",
                                write_config(tmp_path, "c.json", cfg)])
        assert code == 0, err
        return json.loads((tmp_path / "rho.json").read_text())["family"]

    assert family(1, 77) == family(2, 77)
    assert family(1, 77) != family(1, 78)


def test_alpha_outside_domain_exits_2(tmp_path):
    path = write_config(tmp_path, "c.json", rho_config(tmp_path))
    code, _, err = run_cli(["estimate-rho", "--config", path, "--set", "params.alpha=0.5"])
    assert code == 2
    assert "alpha" in err


def test_unknown_command_exits_2(tmp_path):
    code, _, err = run_cli(["frobnicate", "--config", "x.json"])
    assert code == 2
    assert "Usage" in err or "usage" in err.lower() or "Commands" in err


def test_missing_seed_exits_2(tmp_path):
    cfg = rho_config(tmp_path)
    del cfg["seed"]
    path = write_config(tmp_path, "c.json", cfg)
    code, _, err = run_cli(["estimate-rho", "--config", path])
    assert code == 2
    assert "seed" in err


def test_malformed_config_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(["estimate-rho", "--config", str(path)])
    assert code == 2


def test_reruns_and_worker_counts_byte_identical(tmp_path):
    path = write_config(tmp_path, "c.json", rho_config(tmp_path))
    outputs = []
    for args in ([], ["--workers", "1"], ["--workers", "2"], ["--workers", "8"], []):
        code, _, err = run_cli(["estimate-rho", "--config", path] + args)
        assert code == 0, err
        outputs.append((tmp_path / "rho.json").read_bytes())
    assert all(o == outputs[0] for o in outputs)


def test_estimate_rho_csv_format(tmp_path):
    cfg = rho_config(tmp_path, format="csv", out=str(tmp_path / "rho.csv"))
    path = write_config(tmp_path, "c.json", cfg)
    code, _, err = run_cli(["estimate-rho", "--config", path])
    assert code == 0, err
    lines = (tmp_path / "rho.csv").read_text().splitlines()
    assert lines[0] == "label,p_x,p_y,diff,se_diff"
    assert len(lines) == 11


def test_interpolation_grid_via_v_grid(tmp_path):
    cfg = rho_config(tmp_path, v_grid=[0.0, 1.0], R=2000)
    cfg["family"] = {"kind": "rectangles", "K": 4}
    path = write_config(tmp_path, "c.json", cfg)
    code, _, err = run_cli(["estimate-rho", "--config", path])
    # two-sided rectangles are rejected for the interpolation statistic
    assert code == 2 and "one-sided" in err


def test_simulate_and_bootstrap_pipeline(tmp_path):
    sim = {
        "seed": 7, "out": str(tmp_path / "data.bin"), "n": 300,
        "design": {"kind": "gaussian", "p": 4, "covariance": {"model": "ar1", "r": 0.5}},
    }
    path = write_config(tmp_path, "sim.json", sim)
    assert run_cli(["simulate", "--config", path])[0] == 0
    ds = read_dataset(str(tmp_path / "data.bin"))
    assert ds.values.shape == (300, 4)

    sim_csv = dict(sim, out=str(tmp_path / "data.csv"), format="csv")
    path = write_config(tmp_path, "simcsv.json", sim_csv)
    assert run_cli(["simulate", "--config", path])[0] == 0
    assert np.array_equal(read_dataset(str(tmp_path / "data.csv")).values, ds.values)

    boot = {
        "seed": 8, "out": str(tmp_path / "boot.json"), "dataset": str(tmp_path / "data.bin"),
        "mode": "EB", "R": 3000,
        "sigma": {"source": "design",
                  "design": {"kind": "gaussian", "p": 4,
                             "covariance": {"model": "ar1", "r": 0.5}}},
        "family": {"kind": "rectangles", "K": 6},
    }
    path = write_config(tmp_path, "boot.json", boot)
    code, _, err = run_cli(["bootstrap", "--config", path])
    assert code == 0, err
    payload = json.loads((tmp_path / "boot.json").read_text())
    assert payload["estimate"]["sides"] == ["empirical", "gaussian"]

    boot_emp = dict(boot, sigma={"source": "empirical"}, out=str(tmp_path / "boot2.json"))
    path = write_config(tmp_path, "boot2.json", boot_emp)
    assert run_cli(["bootstrap", "--config", path])[0] == 0


def test_bounds_command_design_route(tmp_path):
    cfg = {
        "seed": 9, "out": str(tmp_path / "b.json"), "n": 200, "moment_R": 1000,
        "design": {"kind": "rademacher", "p": 10},
        "params": {"q": 5.0, "alpha": 0.05},
    }
    path = write_config(tmp_path, "b.json", cfg)
    code, _, err = run_cli(["bounds", "--config", path])
    assert code == 0, err
    report = json.loads((tmp_path / "b.json").read_text())["report"]
    assert report["provenance"] == "population"
    assert {"D1", "D2q", "D1_alpha", "D2q_alpha", "L_n", "M_x", "M_y",
            "phi_n", "main_bound"} <= set(report)


def test_bounds_command_dataset_route(tmp_path):
    sim = {"seed": 4, "out": str(tmp_path / "d.bin"), "n": 100,
           "design": {"kind": "gaussian", "p": 5}}
    run_cli(["simulate", "--config", write_config(tmp_path, "s.json", sim)])
    cfg = {
        "seed": 10, "out": str(tmp_path / "be.json"), "dataset": str(tmp_path / "d.bin"),
        "moment_R": 1000, "design": {"kind": "gaussian", "p": 5},
        "sigma": {"source": "design"},
        "params": {"B_n": 2.0},
    }
    path = write_config(tmp_path, "be.json", cfg)
    code, _, err = run_cli(["bounds", "--config", path])
    assert code == 0, err
    report = json.loads((tmp_path / "be.json").read_text())["report"]
    assert report["provenance"] == "empirical"
    assert "delta_nr" in report


def test_rate_scan_command(tmp_path):
    cfg = {
        "seed": 11, "out": str(tmp_path / "scan.json"),
        "design": {"kind": "rademacher"},
        "n_grid": [8, 32], "p_rule": {"rule": "fixed", "p": 10},
        "family": {"K": 10}, "R": 5000, "moment_R": 500,
    }
    path = write_config(tmp_path, "scan.json", cfg)
    code, _, err = run_cli(["rate-scan", "--config", path])
    assert code == 0, err
    result = json.loads((tmp_path / "scan.json").read_text())["result"]
    assert [r["n"] for r in result["rows"]] == [8, 32]


def test_nazarov_command(tmp_path):
    cfg = {
        "seed": 12, "out": str(tmp_path / "nz.csv"), "format": "csv",
        "sigma": {"p": 5, "covariance": {"model": "equicorrelated", "r": 0.5}},
        "y_count": 3, "a_grid": [0.05], "R": 2000,
    }
    path = write_config(tmp_path, "nz.json", cfg)
    code, _, err = run_cli(["nazarov", "--config", path])
    assert code == 0, err
    assert (tmp_path / "nz.csv").read_text().splitlines()[0] == "p,a,y_label,diff_hat,se,ratio"


def test_smoothmax_command(tmp_path):
    cfg = {"seed": 13, "out": str(tmp_path / "sm.json"),
           "beta_grid": [1.0, 10.0], "p_grid": [2, 10], "trials": 500}
    path = write_config(tmp_path, "sm.json", cfg)
    code, _, err = run_cli(["smoothmax", "--config", path])
    assert code == 0, err
    payload = json.loads((tmp_path / "sm.json").read_text())
    assert payload["passes"] is True
    assert payload["max_violation"] <= 1e-12


def test_io_failure_exits_4(tmp_path):
    cfg = rho_config(tmp_path, out=str(tmp_path / "no_dir" / "rho.json"), R=1000)
    path = write_config(tmp_path, "c.json", cfg)
    code, _, err = run_cli(["estimate-rho", "--config", path])
    assert code == 4


def test_numerical_failure_exits_3(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise NotPositiveSemidefiniteError("factorization failed")

    monkeypatch.setattr(cli, "population_moments", boom)
    path = write_config(tmp_path, "c.json", rho_config(tmp_path))
    code, _, err = run_cli(["estimate-rho", "--config", path])
    assert code == 3
    assert "factorization" in err


def test_help_exits_0():
    code, out, _ = run_cli(["--help"])
    assert code == 0
    assert "Commands" in out or "commands" in out


def test_rate_scan_non_object_family_exits_2(tmp_path):
    cfg = {
        "seed": 11, "out": str(tmp_path / "scan.json"),
        "design": {"kind": "rademacher"},
        "n_grid": [8, 32], "p_rule": {"rule": "fixed", "p": 10}, "R": 5000,
    }
    path = write_config(tmp_path, "scan.json", cfg)
    for override in ("family=5", "params=[1, 2]", "p_rule=[1]"):
        code, _, err = run_cli(["rate-scan", "--config", path, "--set", override])
        assert code == 2, err
        assert f"config key {override.split('=')[0]!r} must be an object" in err


def test_truncated_binary_dataset_exits_4(tmp_path):
    sim = {"seed": 7, "out": str(tmp_path / "data.bin"), "n": 400,
           "design": {"kind": "gaussian", "p": 8}}
    assert run_cli(["simulate", "--config", write_config(tmp_path, "s.json", sim)])[0] == 0
    blob = (tmp_path / "data.bin").read_bytes()
    boot = {"seed": 8, "out": str(tmp_path / "boot.json"), "mode": "MB", "R": 1000,
            "sigma": {"source": "empirical"}, "family": {"K": 4}}
    for size, found in ((1000, 976), (1003, 979), (10, None)):
        cut = tmp_path / f"cut{size}.bin"
        cut.write_bytes(blob[:size])
        path = write_config(tmp_path, "b.json", dict(boot, dataset=str(cut)))
        code, _, err = run_cli(["bootstrap", "--config", path])
        assert code == 4, err
        assert str(cut) in err
        if found is None:
            assert "header needs 24 bytes, found 10" in err
        else:
            assert f"needs {8 * 400 * 8} payload bytes, found {found}" in err


@pytest.mark.parametrize("text, code, message", [
    (b"", 2, "is neither a binary nor a csv dataset"),
    (b"x1,x2\n", 2, "csv dataset has no rows"),
    (b"x1,x2\n1,2\n\n3\n", 4, "csv line 4 must hold 2 numbers"),
    (b"x1,x2\n1,2\n3,abc\n", 4, "csv line 3 must hold 2 numbers"),
    (b"x1,x2\n1,\xff\n", 4, "csv dataset is not UTF-8 text"),
], ids=["empty", "header_only", "ragged", "non_numeric", "non_utf8"])
def test_malformed_csv_dataset_fails_cleanly(tmp_path, text, code, message):
    data = tmp_path / "data.csv"
    data.write_bytes(text)
    boot = {"seed": 8, "out": str(tmp_path / "boot.json"), "mode": "MB", "R": 1000,
            "sigma": {"source": "empirical"}, "family": {"K": 4}, "dataset": str(data)}
    got, _, err = run_cli(["bootstrap", "--config", write_config(tmp_path, "b.json", boot)])
    assert got == code, err
    assert str(data) in err and message in err


def nazarov_config(tmp_path, **overrides):
    cfg = {"seed": 7, "out": str(tmp_path / "out.json"), "sigma": {"p": 3},
           "y_count": 3, "a_grid": [0.1], "R": 2000}
    cfg.update(overrides)
    return cfg


def test_report_round_trip(tmp_path):
    path = write_config(tmp_path, "nz.json", nazarov_config(tmp_path))
    outputs = []
    for _ in range(2):
        code, _, err = run_cli(["nazarov", "--config", path])
        assert code == 0, err
        outputs.append((tmp_path / "out.json").read_bytes())
    assert outputs[1] == outputs[0]  # rerunning writes identical bytes
    assert outputs[0].endswith(b"\n")
    payload = json.loads(outputs[0])
    assert set(payload) == {"command", "config", "provenance", "result"}
    assert payload["provenance"] == {"stream": 4, "batch": 8192, "tile": 1 << 20}
    # the report is the result dataclass, field by field
    sigma = population_moments(DesignSpec(kind="gaussian", p=3)).sigma
    res = nazarov_check(sigma, 3, [0.1], 2000, 7)
    assert payload["result"] == json.loads(serialize.dumps(res))
    assert set(payload["result"]) == {"rows", "max_ratio", "R", "seed"}


def test_report_csv_schema(tmp_path):
    cfg = nazarov_config(tmp_path, out=str(tmp_path / "out.csv"), format="csv")
    code, _, err = run_cli(["nazarov", "--config", write_config(tmp_path, "nz.json", cfg)])
    assert code == 0, err
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "p,a,y_label,diff_hat,se,ratio"
    assert len(lines) == 1 + 3
    path = write_config(tmp_path, "nz.json", dict(cfg, format="yaml"))
    code, _, err = run_cli(["nazarov", "--config", path])
    assert code == 2
    assert "nazarov: unknown report format 'yaml'" in err


def test_report_io_failure(tmp_path):
    cfg = nazarov_config(tmp_path, out=str(tmp_path / "missing" / "out.json"))
    code, _, err = run_cli(["nazarov", "--config", write_config(tmp_path, "nz.json", cfg)])
    assert code == 4
    assert "cannot write report to" in err


def test_bad_output_fails_before_work(tmp_path, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the estimate ran before the output was checked")

    monkeypatch.setattr(cli, "gaussian_approx_gap", no_work)
    cfg = rho_config(tmp_path, format="xml")
    no_out = rho_config(tmp_path)
    del no_out["out"]
    for bad, message in ((cfg, "estimate-rho: unknown report format 'xml'"),
                         (no_out, "missing required config key 'out'")):
        code, _, err = run_cli(["estimate-rho", "--config",
                                write_config(tmp_path, "c.json", bad)])
        assert code == 2
        assert message in err


def test_missing_out_directory_fails_before_work(tmp_path, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the estimate ran before the output was checked")

    monkeypatch.setattr(cli, "gaussian_approx_gap", no_work)
    cfg = rho_config(tmp_path, out=str(tmp_path / "no_dir" / "rho.json"))
    code, _, err = run_cli(["estimate-rho", "--config",
                            write_config(tmp_path, "c.json", cfg)])
    assert code == 4
    assert "cannot write report to" in err and "no_dir" in err


@pytest.mark.parametrize("command,work,cfg", [
    ("bounds", "report_from_design",
     {"design": {"kind": "rademacher", "p": 10}, "n": 200}),
    ("smoothmax", "smoothmax_check",
     {"beta_grid": [1.0], "p_grid": [2], "trials": 10}),
    ("estimate-rho", "interpolation_gap",
     {"design": {"kind": "rademacher", "p": 10}, "n": 50, "family": {"K": 10},
      "R": 5000, "v_grid": [0.0, 1.0]}),
])
def test_csv_without_table_rejected(tmp_path, monkeypatch, command, work, cfg):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran for an unwritable format")

    monkeypatch.setattr(cli, work, no_work)
    cfg = dict(cfg, seed=1, out=str(tmp_path / "r.csv"), format="csv")
    code, _, err = run_cli([command, "--config", write_config(tmp_path, "c.json", cfg)])
    assert code == 2
    assert f"error: {command}" in err and "has no csv table" in err
    assert command != "estimate-rho" or "with v_grid" in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("source", ["empirical", "design"])
def test_bounds_builds_the_empirical_covariance_once(tmp_path, monkeypatch, source):
    # the dataset's covariance serves the default b, sigma.source 'empirical'
    # and the reported gap; no site builds or checks its own copy
    sim = {"seed": 4, "out": str(tmp_path / "d.bin"), "n": 40,
           "design": {"kind": "gaussian", "p": 6}}
    assert run_cli(["simulate", "--config", write_config(tmp_path, "s.json", sim)])[0] == 0
    cfg = {"seed": 10, "out": str(tmp_path / "b.json"), "dataset": str(tmp_path / "d.bin"),
           "moment_R": 200, "sigma": {"source": source}}
    if source == "design":
        cfg["design"] = {"kind": "gaussian", "p": 6}
    built = []
    original = CovMatrix.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(CovMatrix, "__post_init__", counting)
    code, _, err = run_cli(["bounds", "--config", write_config(tmp_path, "b.json", cfg)])
    assert code == 0, err
    assert len(built) == 1
    report = json.loads((tmp_path / "b.json").read_text())["report"]
    assert (report["delta_nr"] == 0.0) == (source == "empirical")
    if source == "empirical":  # a branch that reads no design: a design is an error
        (tmp_path / "b.json").unlink()
        cfg["design"] = {"kind": "gaussian", "p": 6}
        code, _, err = run_cli(["bounds", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 2, err
        assert "config key(s) ['design'] given but not read by bounds" in err
        assert not (tmp_path / "b.json").exists()


def scan_config(tmp_path, **overrides):
    cfg = {
        "seed": 11, "out": str(tmp_path / "scan.json"), "design": {"kind": "rademacher"},
        "n_grid": [8, 16], "p_rule": {"rule": "fixed", "p": 10}, "family": {"K": 5},
        "R": 1000, "moment_R": 100,
    }
    cfg.update(overrides)
    return cfg


ORTHANT = {"p": 4, "sets": [{"label": "o0", "kind": "rect",
                              "lower": ["-inf"] * 4, "upper": [0.0] * 4}]}


@pytest.mark.parametrize("command, make_config", [
    ("estimate-rho", rho_config),
    ("estimate-rho", lambda tmp_path: rho_config(
        tmp_path, design={"kind": "rademacher", "p": 4}, family=ORTHANT, v_grid=[0.5],
        R=1000)),
    ("rate-scan", scan_config),
], ids=["estimate-rho", "estimate-rho-v_grid", "rate-scan"])
@pytest.mark.parametrize("override", ["exact_law=False", 'exact_law="false"', "exact_law=0"])
def test_non_boolean_exact_law_exits_2(tmp_path, command, make_config, override):
    # "False" is not JSON, so --set keeps the string, and bool("False") is true
    path = write_config(tmp_path, "c.json", make_config(tmp_path))
    code, _, err = run_cli([command, "--config", path, "--set", override])
    assert code == 2, err
    assert "config key 'exact_law' must be true or false" in err
    code, _, err = run_cli([command, "--config", path, "--set", "exact_law=false"])
    assert code == 0, err


@pytest.mark.parametrize("family, key", [
    ({"K": 5, "seed": 7}, "seed"),
    ({"K": 5, "sets": []}, "sets"),
    ({"K": 5, "kind": "orthants"}, "kind"),
    ({"K": 5, "kind": "rectangles"}, None),
])
def test_rate_scan_reads_only_the_family_size(tmp_path, family, key):
    # the scan derives one family of rectangles per p, so it reads no other
    # family key: a seed or sets are unread, and another kind is unknown
    path = write_config(tmp_path, "scan.json", scan_config(tmp_path, family=family))
    code, _, err = run_cli(["rate-scan", "--config", path])
    if key is None:
        assert code == 0, err
    elif key == "kind":
        assert code == 2, err
        assert "unknown family kind 'orthants'" in err
    else:
        assert code == 2, err
        assert f"config key(s) ['family.{key}'] given but not read by rate-scan" in err


def test_nazarov_non_object_sigma_exits_2(tmp_path):
    cfg = {"seed": 12, "out": str(tmp_path / "nz.json"), "sigma": {"p": 5},
           "y_count": 3, "a_grid": [0.05], "R": 2000}
    path = write_config(tmp_path, "nz.json", cfg)
    code, _, err = run_cli(["nazarov", "--config", path, "--set", "sigma=5"])
    assert code == 2, err
    assert "config key 'sigma' must be an object" in err


def forbid(monkeypatch, *names):
    """Make each named cli function raise, so a test can check that none ran."""
    def forbidden(*args, **kwargs):
        raise AssertionError(f"one of {names} ran")

    for name in names:
        monkeypatch.setattr(cli, name, forbidden)


def small_rho_config(tmp_path, **overrides):
    small = dict(design={"kind": "rademacher", "p": 6}, n=20,
                 family={"kind": "rectangles", "K": 5}, R=2000)
    return rho_config(tmp_path, **dict(small, **overrides))


@pytest.mark.parametrize("command, make_config, override, key", [
    ("estimate-rho", small_rho_config, "R=2000.9", "R"),
    ("estimate-rho", small_rho_config, "family.K=2.9", "family.K"),
    ("estimate-rho", small_rho_config, "design.p=6.7", "design.p"),
    ("estimate-rho", small_rho_config, 'design.standardize="false"', "design.standardize"),
    ("estimate-rho", small_rho_config, "n=abc", "n"),
    ("estimate-rho", small_rho_config, "params.K1=null", "params.K1"),
    ("estimate-rho", small_rho_config, 'v_grid=["x"]', "v_grid"),
    ("estimate-rho", small_rho_config, "family.sets=5", "family.sets"),
    ("estimate-rho", small_rho_config, 'family={"sets": 5}', "family.sets"),
    ("estimate-rho", small_rho_config, "R=true", "R"),
    ("estimate-rho", small_rho_config, "seed=1.5", "seed"),
    ("rate-scan", scan_config, "n_grid=5", "n_grid"),
    ("rate-scan", scan_config, "design.standardize=3", "design.standardize"),
    ("nazarov", nazarov_config, 'a_grid=["x"]', "a_grid"),
    ("bootstrap", lambda tmp_path: INPUT_CONFIGS["bootstrap"](tmp_path), "sigma.source=5",
     "sigma.source"),
])
def test_bad_config_values_exit_2_naming_the_key(tmp_path, monkeypatch, command, make_config,
                                                 override, key):
    # a key is named by its dotted path from the config's root
    forbid(monkeypatch, "gaussian_approx_gap", "interpolation_gap", "rate_scan", "nazarov_check",
           "bootstrap_gap")
    _input_files(tmp_path)
    path = write_config(tmp_path, "c.json", make_config(tmp_path))
    code, _, err = run_cli([command, "--config", path, "--set", override])
    assert code == 2, err
    assert repr(key) in err


def test_integral_numbers_are_integers(tmp_path):
    # R: 1e4 is the JSON number 10000.0; it runs exactly as R: 10000
    cfg = json.dumps(small_rho_config(tmp_path, R=10_000))
    path = tmp_path / "c.json"
    reports = []
    for text in (cfg, cfg.replace('"R": 10000', '"R": 1e4')):
        path.write_text(text)
        code, _, err = run_cli(["estimate-rho", "--config", str(path)])
        assert code == 0, err
        reports.append(json.loads((tmp_path / "rho.json").read_text()))
    assert reports[1]["config"]["R"] == 10000.0  # the config is echoed as given
    assert reports[1]["estimate"] == reports[0]["estimate"]
    assert reports[1]["estimate"]["R"] == 10000


@pytest.mark.parametrize("fault", [KeyError("boom"), ValueError("boom"), TypeError("boom")],
                         ids=["KeyError", "ValueError", "TypeError"])
def test_internal_errors_propagate(tmp_path, monkeypatch, fault):
    # an exception the program does not raise on purpose is a bug, not a config error
    def broken(*args, **kwargs):
        raise fault

    monkeypatch.setattr(cli, "gaussian_approx_gap", broken)
    path = write_config(tmp_path, "c.json", small_rho_config(tmp_path))
    with pytest.raises(type(fault), match="boom"):
        cli.run(["estimate-rho", "--config", path], stdout=io.StringIO(), stderr=io.StringIO())


def test_internal_error_exits_1_with_a_traceback(tmp_path):
    path = write_config(tmp_path, "c.json", small_rho_config(tmp_path))
    code = (
        "import runpy, sys\n"
        "import hdclt.montecarlo\n"
        "def broken(*args, **kwargs):\n"
        "    raise KeyError('boom')\n"
        "hdclt.montecarlo.gaussian_approx_gap = broken\n"
        f"sys.argv = ['hdclt', 'estimate-rho', '--config', {path!r}]\n"
        "runpy.run_module('hdclt.cli', run_name='__main__', alter_sys=True)\n"
    )
    proc = run_child(["-c", code], None, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" in proc.stderr and "KeyError: 'boom'" in proc.stderr


def test_workers_zero_exits_2(tmp_path, monkeypatch):
    forbid(monkeypatch, "gaussian_approx_gap")
    path = write_config(tmp_path, "c.json", small_rho_config(tmp_path))
    for value in ("0", "-1", "x"):
        code, _, err = run_cli(["estimate-rho", "--config", path, "--workers", value])
        assert code == 2, err
        assert "--workers needs a positive integer" in err


@pytest.mark.parametrize("text", [b'{"seed": 1, "out": "r\xff.json"}', b"{not json"],
                         ids=["non_utf8", "malformed"])
def test_unreadable_config_exits_2_naming_the_file(tmp_path, text):
    path = tmp_path / "c.json"
    path.write_bytes(text)
    code, _, err = run_cli(["estimate-rho", "--config", str(path)])
    assert code == 2, err
    assert str(path) in err


def test_nazarov_builds_its_covariance_without_a_design(tmp_path, monkeypatch):
    forbid(monkeypatch, "population_moments")
    cfg = nazarov_config(tmp_path, sigma={"p": 5, "covariance": {"model": "ar1", "r": 0.5}})
    path = write_config(tmp_path, "nz.json", cfg)
    code, _, err = run_cli(["nazarov", "--config", path])
    assert code == 0, err
    for override, key in (('sigma.p="x"', "sigma.p"), ("sigma.covariance=5", "sigma.covariance"),
                          ("sigma.covariance.model=5", "sigma.covariance.model")):
        code, _, err = run_cli(["nazarov", "--config", path, "--set", override])
        assert code == 2, err
        assert repr(key) in err


@pytest.mark.parametrize("command, make_config, override, path", [
    ("nazarov", nazarov_config, "sigma.covariance.model=foo", "sigma.covariance"),
    ("nazarov", nazarov_config, 'sigma.covariance={"model": "ar1", "r": 1.5}',
     "sigma.covariance"),
    ("estimate-rho", small_rho_config, "design.kind=foo", "design"),
    ("rate-scan", scan_config, "design.scale=2", "design"),
    ("bootstrap", lambda tmp_path: INPUT_CONFIGS["bootstrap"](tmp_path),
     "sigma.design.kind=foo", "sigma.design"),
    ("bootstrap", lambda tmp_path: INPUT_CONFIGS["bootstrap"](tmp_path),
     "sigma.design.covariance.model=foo", "sigma.design.covariance"),
    ("estimate-rho", small_rho_config, "params.alpha=0.5", "params"),
    ("rate-scan", scan_config, 'params={"b": -1, "B_n": 1}', "params"),
])
def test_nested_value_errors_name_their_object(tmp_path, monkeypatch, command, make_config,
                                               override, path):
    # a value the object's own checks reject names the object by its dotted
    # path, or the key in it
    forbid(monkeypatch, "gaussian_approx_gap", "rate_scan", "nazarov_check", "bootstrap_gap")
    _input_files(tmp_path)
    cfg = write_config(tmp_path, "c.json", make_config(tmp_path))
    code, _, err = run_cli([command, "--config", cfg, "--set", override])
    assert code == 2, err
    assert re.match(rf"error: {re.escape(path)}[:.]", err), err


@pytest.mark.parametrize("command, make_config", [
    ("bounds", lambda tmp_path: {"seed": 1, "out": str(tmp_path / "b.json"), "n": 50,
                                 "design": {"kind": "gaussian", "p": 5}}),
    ("rate-scan", scan_config),
], ids=["bounds", "rate-scan"])
def test_moment_R_below_two_exits_2(tmp_path, monkeypatch, command, make_config):
    forbid(monkeypatch, "rate_scan")  # a scan is checked whole before it runs
    path = write_config(tmp_path, "c.json", make_config(tmp_path))
    for value in ("0", "1"):
        code, _, err = run_cli([command, "--config", path, "--set", f"moment_R={value}"])
        assert code == 2, err
        assert f"need moment_R >= 2 replications, got {value}" in err


def test_rate_scan_checks_every_cell_before_any_runs(tmp_path, monkeypatch):
    forbid(monkeypatch, "rate_scan")
    # exp(8) is a dimension, exp(1000) overflows
    cfg = scan_config(tmp_path, n_grid=[8, 1000], p_rule={"rule": "exp_power", "c": 1.0})
    code, _, err = run_cli(["rate-scan", "--config", write_config(tmp_path, "s.json", cfg)])
    assert code == 2, err
    assert "exp_power" in err and "n=1000" in err


def _input_files(tmp_path):
    # a config whose root is a list, and version 1 and version 2 datasets of shape (2, 5)
    (tmp_path / "root.json").write_text("[1]")
    for version in (1, 2):
        header = b"HDCB" + struct.pack("<IQQ", version, 2, 5)
        (tmp_path / f"v{version}.bin").write_bytes(header + np.zeros(10).tobytes())


INPUT_CONFIGS = {
    "estimate-rho": small_rho_config,
    "rate-scan": scan_config,
    "nazarov": nazarov_config,
    "simulate": lambda tmp_path: {"seed": 1, "out": str(tmp_path / "d.bin"), "n": 10,
                                  "design": {"kind": "gaussian", "p": 5}},
    "bootstrap": lambda tmp_path: {"seed": 1, "out": str(tmp_path / "boot.json"),
                                   "dataset": str(tmp_path / "v1.bin"), "mode": "MB", "R": 1000,
                                   "sigma": {"source": "design",
                                             "design": {"kind": "gaussian", "p": 5}},
                                   "family": {"K": 5}},
    "smoothmax": lambda tmp_path: {"seed": 1, "out": str(tmp_path / "sm.json"),
                                   "beta_grid": [1.0], "p_grid": [2], "trials": 10},
    "bounds": lambda tmp_path: {"seed": 1, "out": str(tmp_path / "b.json"), "n": 50,
                                "design": {"kind": "gaussian", "p": 5}},
}


@pytest.mark.parametrize("command, args, message", [
    ("estimate-rho", ["--set", "R"], "--set needs key=value, got 'R'"),
    ("estimate-rho", ["--bogus", "1"], "unknown argument '--bogus'"),
    ("estimate-rho", None, "--config is required"),
    ("estimate-rho", ["--config", "{tmp}/root.json"], "config root must be a JSON object"),
    ("estimate-rho", ["--set", "family=" + json.dumps(ORTHANT)],
     "family dimension 4 does not match p=6"),
    ("estimate-rho", ["--set", "family.kind=orthants"], "unknown family kind 'orthants'"),
    ("estimate-rho", ["--set", "design.p=4", "--set", "family=" + json.dumps(dict(ORTHANT, p=99))],
     "family.p=99 does not match the sets' dimension 4"),
    ("bootstrap", ["--set", "sigma.source=model"], "unknown sigma source 'model'"),
    ("simulate", ["--set", "format=xyz"], "unknown dataset format 'xyz'"),
    ("bootstrap", ["--set", 'sigma={"source": "design", "design": {"kind": "gaussian", "p": 7}}'],
     "sigma dimension 7 does not match dataset p=5"),
    ("estimate-rho", ["--set", 'design={"kind": "trunc_exp", "p": 6, "scale": 0}'],
     "design scale must be positive, got 0"),
    ("estimate-rho", ["--set", 'design={"kind": "trunc_exp", "p": 6, "scale": -1}'],
     "design scale must be positive, got -1"),
    ("estimate-rho", ["--set", "design.shape=1"],
     "config key(s) ['design.shape'] given but not read by estimate-rho"),
    ("bootstrap", ["--set", "dataset={tmp}/v2.bin"], "unsupported dataset version 2"),
    ("rate-scan", ["--set", "n_grid=[]"], "n_grid must be nonempty"),
    ("rate-scan", ["--set", "n_grid=[2, 8]"], "every n must be at least 4, got 2"),
    ("rate-scan", ["--set", "family.K=0"], "family_K must be positive, got 0"),
    ("nazarov", ["--set", "sigma.p=2"], "needs p >= 3, got 2"),
    ("nazarov", ["--set", "y_count=0"], "need y_count >= 1 anchor points, got 0"),
    ("smoothmax", ["--set", "trials=0"], "need trials >= 1, got 0"),
    ("estimate-rho", ["--set", "v_grid=[]"], "v_grid must hold at least one interpolation weight"),
], ids=["set-without-equals", "unknown-argument", "missing-config", "root-not-object",
        "family-sets-dimension", "family-kind", "family-p", "sigma-source", "simulate-format",
        "bootstrap-sigma-p", "design-scale-0", "design-scale-negative", "design-key",
        "dataset-version", "n_grid-empty", "n-below-4", "family-K-0", "nazarov-sigma-p",
        "y_count-0", "smoothmax-trials-0", "v_grid-empty"])
def test_input_errors_exit_2_naming_the_input(tmp_path, command, args, message):
    _input_files(tmp_path)
    path = write_config(tmp_path, "c.json", INPUT_CONFIGS[command](tmp_path))
    # args follow "--config <file>" unless they name their own config; None gives none
    if args is None:
        args = ["--set", "R=1000"]
    elif args[0] != "--config":
        args = ["--config", path, *args]
    code, _, err = run_cli([command, *(a.replace("{tmp}", str(tmp_path)) for a in args)])
    assert code == 2, err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, override, key", [
    ("simulate", "n=1e30", "n"),
    ("estimate-rho", "n=1e30", "n"),
    ("estimate-rho", "design.p=1e30", "p"),
    ("estimate-rho", "R=1e30", "R"),
    ("estimate-rho", f"R={MAX_SIZE + 1}", "R"),
    ("estimate-rho", "family.K=1e30", "K"),
    ("bootstrap", "R=1e30", "R"),
    ("bootstrap", "family.K=1e30", "K"),
    ("bootstrap", "sigma.design.p=1e30", "p"),
    ("bounds", "n=1e30", "n"),
    ("bounds", "moment_R=1e30", "moment_R"),
    ("rate-scan", "n_grid=[8, 1e30]", "n_grid"),
    ("rate-scan", "p_rule.p=1e30", "p"),
    ("rate-scan", "family.K=1e30", "K"),
    ("rate-scan", "R=1e30", "R"),
    ("rate-scan", "moment_R=1e30", "moment_R"),
    ("nazarov", "sigma.p=1e30", "p"),
    ("nazarov", "y_count=1e30", "y_count"),
    ("nazarov", "R=1e30", "R"),
    ("smoothmax", "trials=1e30", "trials"),
    ("smoothmax", "p_grid=[2, 1e30]", "p_grid"),
])
def test_oversized_sizes_exit_2_naming_the_key(tmp_path, command, override, key):
    # every count and dimension has one ceiling, checked where its key is read;
    # a key of a nested object is named by its path ('sigma.p')
    _input_files(tmp_path)
    path = write_config(tmp_path, "c.json", INPUT_CONFIGS[command](tmp_path))
    code, _, err = run_cli([command, "--config", path, "--set", override])
    assert code == 2, err
    block = override.split("=")[0].rpartition(".")[0]
    name = f"{block}.{key}" if block else key
    assert f"error: config key {name!r} must be" in err and f"at most {MAX_SIZE}" in err
    assert "Traceback" not in err


def test_nazarov_y_count_at_the_ceiling_exits_2_before_allocating(tmp_path):
    # y_count passes the size reader, but its levels, counts and rows would
    # not fit: the check runs before any of them is made
    path = write_config(tmp_path, "c.json", nazarov_config(tmp_path))
    start = time.perf_counter()
    code, _, err = run_cli(["nazarov", "--config", path, "--set", f"y_count={MAX_SIZE}"])
    assert time.perf_counter() - start < 1.0
    assert code == 2, err
    assert f"y_count={MAX_SIZE} gives {2 * MAX_SIZE} anchor counts, above {DRAW_BUDGET}" in err
    assert not (tmp_path / "out.json").exists()


RECT6 = {"label": "r", "kind": "rect", "lower": ["-inf"] * 6, "upper": [0.0] * 6}


@pytest.mark.parametrize("command, override, key", [
    ("simulate", "nn=10", "nn"),
    ("simulate", "design.kindd=1", "design.kindd"),
    ("simulate", 'design.covariance={"model": "ar1", "r": 0.5, "rr": 0.5}',
     "design.covariance.rr"),
    ("bounds", "params.bb=1", "params.bb"),
    ("estimate-rho", "family.KK=3", "family.KK"),
    ("estimate-rho", "family=" + json.dumps({"sets": [dict(RECT6, lowr=0)]}),
     "family.sets[0].lowr"),
    ("bootstrap", "sigma.sourse=design", "sigma.sourse"),
    ("bootstrap", "sigma.design.pp=5", "sigma.design.pp"),
    ("rate-scan", "p_rule.pp=3", "p_rule.pp"),
    ("nazarov", "sigma.pp=3", "sigma.pp"),
    ("smoothmax", "trails=10", "trails"),
])
def test_misspelled_keys_exit_2_naming_their_path(tmp_path, command, override, key):
    # a key no reader takes is named by its path once the command returns,
    # before its output is written
    _input_files(tmp_path)
    cfg = INPUT_CONFIGS[command](tmp_path)
    code, _, err = run_cli([command, "--config", write_config(tmp_path, "c.json", cfg),
                            "--set", override])
    assert code == 2, err
    assert f"error: config key(s) [{key!r}] given but not read by {command}" in err
    assert not os.path.exists(cfg["out"])


SPARSE6 = {"label": "s", "kind": "sparse", "p": 6, "s": 1,
           "pieces": [{"type": "ball", "J": [0], "center": [0.0], "radius": 1.0}]}


@pytest.mark.parametrize("sets, message", [
    ([dict(RECT6, upper=["x"] + [0.0] * 5)],
     "family.sets[0]: rectangle bound must be a number, 'inf' or '-inf', got 'x'"),
    ([{"label": "q", "kind": "polytope",
       "facets": [{"v": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], "c": 1.0}, {"v": [1.0], "c": 1.0}]}],
     "family.sets[0]: polytope facet normals must share one length"),
    ([dict(SPARSE6, pieces=[{"type": "cube", "J": [0]}])],
     "family.sets[0].pieces[0]: unknown sparse piece type 'cube'"),
    ([dict(RECT6, lower=["-inf"] * 3, upper=[0.0] * 3),
      dict(RECT6, lower=["-inf"] * 2, upper=[0.0] * 2)],
     "family.sets: family members must share one dimension, got {2, 3}"),
    ([dict(SPARSE6, p=0)], "family.sets[0]: sparse set needs a positive ambient dimension"),
    ([dict(RECT6, kind="box")], "family.sets[0]: unknown set kind 'box'"),
], ids=["rect-bound", "ragged-normals", "piece-type", "member-dimensions", "sparse-p-0",
        "set-kind"])
def test_bad_family_sets_exit_2_naming_their_path(tmp_path, sets, message):
    cfg = small_rho_config(tmp_path, family={"sets": sets})
    code, _, err = run_cli(["estimate-rho", "--config", write_config(tmp_path, "c.json", cfg)])
    assert code == 2, err
    assert f"error: {message}\n" in err
    assert "Traceback" not in err


def test_dimension_rule_above_the_size_ceiling_exits_2(tmp_path):
    # exp(30) = 1.07e13 is a finite dimension, but above the ceiling
    cfg = scan_config(tmp_path, n_grid=[30], p_rule={"rule": "exp_power", "c": 1.0})
    code, _, err = run_cli(["rate-scan", "--config", write_config(tmp_path, "s.json", cfg)])
    assert code == 2, err
    assert f"above {MAX_SIZE}" in err and "n=30" in err


def test_seeds_keep_their_64_bit_range(tmp_path):
    path = write_config(tmp_path, "c.json", INPUT_CONFIGS["simulate"](tmp_path))
    code, _, err = run_cli(["simulate", "--config", path, "--set", f"seed={2**64 - 1}"])
    assert code == 0, err


def test_uniform_cube_beyond_the_exponential_moment_runs(tmp_path):
    # E exp(|X| / B_n) overflows at this scale: E.1 fails, the gap still runs
    cfg = small_rho_config(tmp_path, n=8, R=1000, design={"kind": "log_concave", "p": 5,
                                                          "variant": "uniform", "scale": 1e-3})
    code, _, err = run_cli(["estimate-rho", "--config", write_config(tmp_path, "c.json", cfg)])
    assert code == 0, err


@pytest.mark.parametrize("scale", [1e-60, 1e60])
def test_bounds_on_moments_outside_the_float_range_exits_2(tmp_path, monkeypatch, scale):
    forbid(monkeypatch, "report_from_design")
    cfg = {"seed": 1, "out": str(tmp_path / "b.json"), "n": 8,
           "design": {"kind": "trunc_exp", "p": 5, "scale": scale}}
    code, _, err = run_cli(["bounds", "--config", write_config(tmp_path, "b.json", cfg)])
    assert code == 2, err
    assert f"design 'trunc_exp' with scale {scale!r} has moments outside the float range" in err


@pytest.mark.parametrize("command, make_config", [
    ("bounds", lambda tmp_path: {"seed": 1, "out": str(tmp_path / "b.json"), "n": 8,
                                 "design": {"kind": "rademacher", "p": 5}}),
    ("rate-scan", scan_config),
], ids=["bounds", "rate-scan"])
def test_params_B_n_with_an_overflowing_square_exits_2(tmp_path, monkeypatch, command,
                                                       make_config):
    # the rate terms take B_n**2, which overflows for B_n = 1e200
    forbid(monkeypatch, "report_from_design", "rate_scan")
    cfg = make_config(tmp_path)
    cfg["params"] = {"b": 1.0, "B_n": 1e200}
    code, _, err = run_cli([command, "--config", write_config(tmp_path, "c.json", cfg)])
    assert code == 2, err
    assert "params.B_n must be positive with a finite, positive square, got 1e+200" in err
