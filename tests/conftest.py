"""Shared test helpers."""
import os
import subprocess
import sys


def run_child(argv, threads, cwd=None, timeout=600):
    """``python *argv`` in a fresh interpreter that imports this ``hdclt``.

    ``threads`` pins ``OPENBLAS_NUM_THREADS`` (a string), which a BLAS reads
    only when it loads, so a test that needs a thread count runs in a child
    whatever the calling process pinned; None leaves it as inherited.
    """
    import hdclt

    src = os.path.dirname(os.path.dirname(hdclt.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)
