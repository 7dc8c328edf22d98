import io
import json

import numpy as np
import pytest

from hdclt import cli, serialize
from hdclt.datagen import DesignSpec, population_moments, read_dataset
from hdclt.errors import NotPositiveSemidefiniteError
from hdclt.experiments import nazarov_check
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
    assert set(payload) == {"command", "config", "result"}
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
           "moment_R": 200, "design": {"kind": "gaussian", "p": 6},
           "sigma": {"source": source}}
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
    # the scan derives one family per p, so any other family key is an error
    path = write_config(tmp_path, "scan.json", scan_config(tmp_path, family=family))
    code, _, err = run_cli(["rate-scan", "--config", path])
    if key is None:
        assert code == 0, err
    else:
        assert code == 2, err
        assert repr(key) in err


def test_nazarov_non_object_sigma_exits_2(tmp_path):
    cfg = {"seed": 12, "out": str(tmp_path / "nz.json"), "sigma": {"p": 5},
           "y_count": 3, "a_grid": [0.05], "R": 2000}
    path = write_config(tmp_path, "nz.json", cfg)
    code, _, err = run_cli(["nazarov", "--config", path, "--set", "sigma=5"])
    assert code == 2, err
    assert "config key 'sigma' must be an object" in err
