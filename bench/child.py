"""One fresh benchmark process: set up a workload, run its study commands.

Run by ``run.py`` as ``python3 child.py SPEC`` in the directory ``workdir``,
with ``PYTHONPATH`` pointing at the package sources.  SPEC is a JSON object
with the keys ``workload``, ``seed``, ``R``, ``workers``, ``workdir``,
``trace``, ``seconds`` (how long to keep repeating the study commands; they
run at least once) and ``spawn_ns`` (the parent's ``time.monotonic_ns()``
just before it started this process).

Prints one JSON line: set-up time, the wall time of each study pass, the
exit code and report hash of each invocation, ``ru_maxrss`` and the
machine record.  Distinct report bytes are kept in
``workdir/reports/<sha256>`` for the parent's checks.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> None:
    spec = json.loads(sys.argv[1])
    import hdclt.cli as cli  # the import is part of set-up time

    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    workdir = spec["workdir"]  # also the working directory
    reports = os.path.join(workdir, "reports")
    os.makedirs(reports, exist_ok=True)
    setup, study = workload.commands(spec["seed"], spec["R"])
    paths = {}
    for cmd in setup + study:
        paths[cmd.label] = os.path.join(workdir, f"{cmd.label}.config.json")
        with open(paths[cmd.label], "w") as fh:
            json.dump(cmd.config, fh)

    invocations = []

    def invoke(cmd) -> float:
        start = time.perf_counter()
        rc = cli.run(cmd.argv(paths[cmd.label], spec["workers"]))
        wall = time.perf_counter() - start
        digest = None
        if rc == 0:
            with open(cmd.config["out"], "rb") as fh:
                data = fh.read()
            digest = hashlib.sha256(data).hexdigest()
            kept = os.path.join(reports, digest)
            if not os.path.exists(kept):
                with open(kept, "wb") as fh:
                    fh.write(data)
        invocations.append({"label": cmd.label, "rc": rc, "sha256": digest})
        return wall

    for cmd in setup:
        invoke(cmd)
    setup_s = (time.monotonic_ns() - spec["spawn_ns"]) * 1e-9
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    # repeat the study for the time slice the parent gave (at least once);
    # start another pass only if it should end closer to the slice's end
    study_s = []
    end = time.monotonic() + spec["seconds"]
    while not study_s or time.monotonic() + study_s[-1] / 2 < end:
        study_s.append(sum(invoke(cmd) for cmd in study))
    if tracer is not None:
        tracer.dump(os.path.join(workdir, "spans.json"))
    print(json.dumps({
        "setup_s": setup_s,
        "study_s": study_s,
        "replications": sum(cmd.replications for cmd in study),
        "invocations": invocations,
        "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": _machine(),
    }))


if __name__ == "__main__":
    main()
