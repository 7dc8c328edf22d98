"""Outside-in tracing of hdclt: spans around calls into each module.

``Tracer.install`` replaces the public functions named in ``TARGETS`` by
timing wrappers.  Several modules import names directly (``montecarlo``
binds ``hit_counts`` and ``values_from_row_keys``, ``bounds`` the ``sums``
batch draws, ``experiments`` ``_map_batches`` and the tail moment), so
every module of the package is searched and each binding that is the
original function object is replaced; methods are replaced on their
class.  Each span records its name, start, end, parent span and thread id,
plus a work count; spans stay in memory until ``dump``.

``layer_metrics`` turns the spans of one pass into per-layer self times
and counts.  A span's self time is its duration minus the part of it that
its child spans cover.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


def _size(args, out):
    return int(out.size)


def _rows(args, out):
    return int(out.shape[0])


def _rows_times_n(args, out):
    return int(out.shape[0]) * int(args[0].n)


def _tests(args, out):
    family, points = args[0], args[1]
    return int(points.shape[0]) * len(family)


def _text_bytes(args, out):
    return len(out.encode("utf-8"))


def _one(args, out):
    return 1


# (module, attribute or Class.method, work count of one call)
TARGETS = (
    ("hdclt.rng", "word_grid", _size),
    ("hdclt.rng", "to_uniform", _size),
    ("hdclt.rng", "to_normal", _size),
    ("hdclt.datagen", "values_from_row_keys", _size),
    ("hdclt.sums", "multiplier_draw_batch", _rows_times_n),
    ("hdclt.sums", "empirical_resample_draw_batch", _rows_times_n),
    ("hdclt.sums", "gaussian_draw_batch", _rows),
    ("hdclt.sums", "robust_cholesky", _one),
    ("hdclt.montecarlo", "GaussianSumSampler.draw_keys", _rows),
    ("hdclt.montecarlo", "DesignSumSampler.draw_keys", _rows),
    ("hdclt.geometry", "hit_counts", _tests),
    ("hdclt.bounds", "tail_third_moment_gaussian", _one),
    ("hdclt.experiments", "rate_scan", _one),
    ("hdclt.experiments", "nazarov_check", _one),
    ("hdclt.serialize", "dumps", _text_bytes),
    ("hdclt.cli", "run", _one),
)
MAP_BATCHES = ("hdclt.montecarlo", "_map_batches")


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Collects spans in memory; thread-safe for worker threads."""

    def __init__(self):
        self.spans = []  # (id, name, start_ns, end_ns, parent_id, thread_id, work)
        self.bindings = {}  # span name -> patched "module.attr" bindings
        self.missing = []  # targets absent from the package
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, parent=None):
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        return sid, parent, time.perf_counter_ns()

    def _exit(self, name, sid, parent, start, work):
        end = time.perf_counter_ns()
        self._stack().pop()
        with self._lock:
            self.spans.append((sid, name, start, end, parent, threading.get_ident(), work))

    def wrap(self, name, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, start = self._enter()
            out = count = None
            try:
                out = fn(*args, **kwargs)
                count = work(args, out)
                return out
            finally:
                self._exit(name, sid, parent, start, count or 0)
        return traced

    def wrap_map_batches(self, fn, default_workers):
        """Batch work runs in pool threads: each call becomes a span named
        after the module that defined the work, parented to the map span."""
        @functools.wraps(fn)
        def traced(work, R, workers=None):
            sid, parent, start = self._enter()
            name = f"{_layer(work.__module__)}.batch"

            def batch(start_, count):
                bsid, bparent, bstart = self._enter(parent=sid)
                try:
                    return work(start_, count)
                finally:
                    self._exit(name, bsid, bparent, bstart, count)

            try:
                return fn(batch, R, workers)
            finally:
                self._exit("montecarlo._map_batches", sid, parent, start,
                           workers if workers else default_workers())
        return traced

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "hdclt" or k.startswith("hdclt.")) and m is not None]
        plan = []
        for module_name, attr, work in TARGETS:
            owner = sys.modules.get(module_name)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, method, None) if owner is not None else None
            name = f"{_layer(module_name)}.{attr}"
            if original is None:
                self.missing.append(name)
                continue
            if cls_name:
                setattr(owner, method, self.wrap(name, original, work))
                self.bindings[name] = [f"{module_name}.{attr}"]
                continue
            plan.append((name, original, self.wrap(name, original, work)))
        mc = sys.modules.get(MAP_BATCHES[0])
        original = getattr(mc, MAP_BATCHES[1], None)
        if original is None:
            self.missing.append("montecarlo._map_batches")
        else:
            plan.append(("montecarlo._map_batches", original,
                         self.wrap_map_batches(original, mc.default_workers)))
        for name, original, wrapper in plan:
            patched = []
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patched.append(f"{module.__name__}.{key}")
            self.bindings[name] = patched

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "bindings": self.bindings,
                       "missing": self.missing}, fh)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _covered(interval, children) -> int:
    """Length of the union of child intervals inside ``interval``."""
    lo, hi = interval
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(children):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_table(spans) -> dict:
    """Per span name: calls, total and self nanoseconds, summed work."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        children[parent].append((start, end))
    table = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "work": 0})
    for sid, name, start, end, _, _, work in spans:
        row = table[name]
        row["calls"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += end - start - _covered((start, end), children.get(sid, ()))
        row["work"] += work
    return dict(table)


def _get(table, name, key):
    return table.get(name, {}).get(key, 0)


def _per(table, name, denominator):
    """Self nanoseconds of ``name`` per unit of work; 0 when it did no work."""
    return _get(table, name, "self_ns") / denominator if denominator else 0.0


def busy_frac(table) -> float:
    """Summed batch time over (map wall time x workers) of a parallel pass."""
    busy = sum(row["total_ns"] for name, row in table.items() if name.endswith(".batch"))
    spans = table.get("montecarlo._map_batches")
    if not spans or not spans["calls"]:
        return 0.0
    # work of a map span is its worker count, so total * mean workers
    capacity = spans["total_ns"] * spans["work"] / spans["calls"]
    return busy / capacity if capacity else 0.0


def counts(table) -> dict:
    """The exact work counts that must repeat for a fixed seed."""
    return {
        "rng.words": _get(table, "rng.word_grid", "work"),
        "datagen.values": _get(table, "datagen.values_from_row_keys", "work"),
        "geometry.tests": _get(table, "geometry.hit_counts", "work"),
        "montecarlo.batches": sum(row["calls"] for name, row in table.items()
                                  if name.endswith(".batch")),
    }


def layer_metrics(table) -> dict:
    """Per-layer metrics of a ``workers=1`` pass, as (value, unit) pairs."""
    c = counts(table)
    s = 1e-9
    mb_elems = _get(table, "sums.multiplier_draw_batch", "work")
    eb_elems = _get(table, "sums.empirical_resample_draw_batch", "work")
    return {
        "rng.words": (c["rng.words"], "count"),
        "rng.word_grid.ns_per_word": (_per(table, "rng.word_grid", c["rng.words"]), "ns"),
        "rng.to_uniform.ns_per_elem": (
            _per(table, "rng.to_uniform", _get(table, "rng.to_uniform", "work")), "ns"),
        "rng.to_normal.ns_per_elem": (
            _per(table, "rng.to_normal", _get(table, "rng.to_normal", "work")), "ns"),
        "datagen.values": (c["datagen.values"], "count"),
        "datagen.values_from_row_keys.ns_per_value": (
            _per(table, "datagen.values_from_row_keys", c["datagen.values"]), "ns"),
        "sums.multiplier_draw_batch.ns_per_elem": (
            _per(table, "sums.multiplier_draw_batch", mb_elems), "ns"),
        "sums.empirical_resample_draw_batch.ns_per_elem": (
            _per(table, "sums.empirical_resample_draw_batch", eb_elems), "ns"),
        "sums.robust_cholesky.s": (_get(table, "sums.robust_cholesky", "self_ns") * s, "s"),
        "montecarlo.batches": (c["montecarlo.batches"], "count"),
        "montecarlo.factor_apply.ns_per_row": (
            _per(table, "montecarlo.GaussianSumSampler.draw_keys",
                 _get(table, "montecarlo.GaussianSumSampler.draw_keys", "work")), "ns"),
        "geometry.tests": (c["geometry.tests"], "count"),
        "geometry.hit_counts.ns_per_test": (
            _per(table, "geometry.hit_counts", c["geometry.tests"]), "ns"),
        "experiments.self_s": (
            sum(_get(table, name, "self_ns") for name in
                ("experiments.rate_scan", "experiments.nazarov_check", "experiments.batch"))
            * s, "s"),
        "bounds.tail_third_moment_gaussian.s": (
            _get(table, "bounds.tail_third_moment_gaussian", "self_ns") * s, "s"),
        "serialize.dumps.s": (_get(table, "serialize.dumps", "self_ns") * s, "s"),
        "serialize.report_bytes": (_get(table, "serialize.dumps", "work"), "bytes"),
    }
