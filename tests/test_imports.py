"""Cold start: a run loads only the scipy subpackages it calls.  Also the
import-level rules that ``scipy.special`` is the one scipy subpackage
imported at module level, that only ``sums`` applies a covariance factor
and that every top-level function or class of ``src/hdclt`` is reached by a
command, an acceptance criterion or the benchmark.

``scipy.stats`` (binomial sign sums) and ``scipy.integrate`` (heavy_tail
moments) are slow to import, so each is imported inside the function that
uses it.  Measured with one BLAS thread, ``import hdclt.cli`` peaked at
55 MiB with them and ``scipy.spatial`` (since gone) deferred, and at
101 MiB with the three loaded at module level.  Each check runs in a fresh
interpreter, since this test session has long since imported both.
"""
import ast
import json
import os
import pathlib
import re

import pytest

import hdclt
from conftest import run_child

DEFERRED = ("scipy.stats", "scipy.integrate")
IMPORT_LIMIT_MIB = 80

needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                reason="reads the peak RSS from Linux /proc")

CHILD = """
import json, sys
from hdclt import cli
code = cli.run(sys.argv[1:]) if sys.argv[1:] else 0
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"code": code, "hwm_kib": hwm,
                  "loaded": sorted(m for m in %r if m in sys.modules)}))
""" % (DEFERRED,)


def _child(cwd, *argv):
    proc = run_child(["-c", CHILD, *argv], "1", cwd=cwd, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@needs_proc
def test_cli_import_is_light(tmp_path):
    out = _child(tmp_path)
    assert out["loaded"] == []
    assert out["hwm_kib"] / 1024 < IMPORT_LIMIT_MIB, f"peak RSS {out['hwm_kib'] / 1024:.0f} MiB"


RUNS = {
    "nazarov": ("nazarov", {"seed": 1, "R": 2000, "y_count": 3, "a_grid": [0.1],
                            "sigma": {"p": 20, "covariance": {"model": "equicorrelated",
                                                              "r": 0.5}}}),
    "rate-scan": ("rate-scan", {"seed": 2, "design": {"kind": "trunc_exp"}, "n_grid": [8, 16],
                                "p_rule": {"rule": "fixed", "p": 10}, "family": {"K": 5},
                                "R": 2000, "moment_R": 1000}),
    "MB": ("bootstrap", {"seed": 3, "dataset": "data.bin", "mode": "MB", "R": 2000,
                         "sigma": {"source": "empirical"}, "family": {"K": 5}}),
    "EB": ("bootstrap", {"seed": 3, "dataset": "data.bin", "mode": "EB", "R": 2000,
                         "sigma": {"source": "empirical"}, "family": {"K": 5}}),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    sim = {"seed": 4, "out": "data.bin", "n": 50,
           "design": {"kind": "gaussian", "p": 6, "covariance": {"model": "ar1", "r": 0.5}}}
    (root / "sim.json").write_text(json.dumps(sim))
    assert _child(root, "simulate", "--config", "sim.json")["loaded"] == []
    return root


@needs_proc
@pytest.mark.parametrize("case", list(RUNS))
def test_runs_load_no_deferred_subpackage(workdir, case):
    command, cfg = RUNS[case]
    (workdir / f"{case}.cfg.json").write_text(json.dumps(dict(cfg, out=f"{case}.json")))
    out = _child(workdir, command, "--config", f"{case}.cfg.json", "--workers", "1")
    assert out["code"] == 0
    assert out["loaded"] == []


def test_scipy_subpackages_are_special_or_deferred():
    # scipy.special at module level, a DEFERRED subpackage only inside a
    # function, and no other scipy import anywhere in src/hdclt
    found = []
    for path in sorted(pathlib.Path(hdclt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        deferred = {id(node) for fn in ast.walk(tree)
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
                names = [f"scipy.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            allowed = DEFERRED if id(node) in deferred else ("scipy.special",)
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy" and name not in allowed]
    assert found == []


def test_only_sums_applies_a_covariance_factor():
    # one Gaussian kernel: every other module draws through
    # sums.gaussian_draw_batch, never through a factor's apply
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(pathlib.Path(hdclt.__file__).parent.glob("*.py"))
             if path.name != "sums.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "apply"]
    assert calls == []


def test_design_law_has_one_owner():
    # one law per design: DesignSpec.law alone calls _base_moments, and the
    # row transforms read their parameters from that law, not from the fields
    tree = ast.parse((pathlib.Path(hdclt.__file__).parent / "datagen.py").read_text())
    functions = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    functions += [(f"{cls.name}.{fn.name}", fn) for cls in tree.body
                  if isinstance(cls, ast.ClassDef)
                  for fn in cls.body if isinstance(fn, ast.FunctionDef)]
    callers = [f"{name}:{node.lineno}" for name, fn in functions for node in ast.walk(fn)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "_base_moments"]
    reads = [f"datagen.py:{node.lineno}" for name, fn in functions
             if name == "values_from_row_keys" for node in ast.walk(fn)
             if isinstance(node, ast.Attribute) and node.attr in ("scale", "tail_index")]
    assert [c.split(":")[0] for c in callers] == ["DesignSpec.law"], callers
    assert reads == []


# top-level definitions that nothing reaches yet, each kept for a stated reason
UNREACHED_ALLOWED = {
    "bounds.orlicz_norm": "the B_n estimate of a dataset for `bounds`, which waits "
                          "on the decision of how to report it (ROADMAP item 5)",
}


def _mentions(node, strings=False):
    """Names a piece of code uses: identifiers and attributes, not imports;
    with ``strings``, also the dotted names it spells out (``getattr`` use)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif (strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", sub.value)):
            found.update(sub.value.split("."))
    return found


def unreached_definitions(src: pathlib.Path, roots) -> set:
    """``module.name`` of each top-level function or class under ``src`` that
    no root reaches by name, directly or through other definitions.  The roots
    are the files ``roots``, every module's top-level statements and the CLI's
    ``run`` and ``main``; an import alone reaches nothing."""
    defined = {}  # name -> [(module.name, node)]
    used = {"run", "main"}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append((f"{path.stem}.{node.name}", node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                used |= _mentions(node)
    for path in roots:
        used |= _mentions(ast.parse(path.read_text()), strings=True)
    reached, todo = set(), list(used)
    while todo:
        for key, node in defined.get(todo.pop(), []):
            if key not in reached:
                reached.add(key)
                todo.extend(_mentions(node))
    return {key for entries in defined.values() for key, _ in entries} - reached


def test_every_definition_is_reached():
    repo = pathlib.Path(__file__).resolve().parents[1]
    roots = [repo / "tests" / "test_acceptance.py", *sorted((repo / "bench").glob("*.py"))]
    unreached = unreached_definitions(pathlib.Path(hdclt.__file__).parent, roots)
    assert sorted(unreached) == sorted(UNREACHED_ALLOWED)
