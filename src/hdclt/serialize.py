"""Byte-stable JSON and CSV rendering.

Reports must be reproducible down to the byte: keys are emitted in sorted
order, every float is rendered with 17 significant digits (enough to
round-trip IEEE doubles exactly), lines end with a bare newline, and
non-finite values use the string sentinels "inf" / "-inf" / "nan".

A report dataclass is its own schema: its JSON object is the mapping of
its fields and its CSV table has its row type's field names as header.  A
field whose default is ``None`` is left out while it holds ``None``; any
other ``None`` is ``null``.  Numpy arrays and scalars are written as their
``tolist()``, dict keys as their ``str()``, tuples as arrays.
"""
from __future__ import annotations

import dataclasses
import json
import math
from typing import Any, Sequence

import numpy as np


def format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


def csv_cell(x: Any) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        return format_float(float(x)).strip('"')
    return str(x)


def dumps(obj: Any) -> str:
    """Render a report tree deterministically; see the module docstring."""
    out: list[str] = []
    _write(obj, out)
    out.append("\n")
    return "".join(out)


def _write(obj: Any, out: list[str]) -> None:
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        keyed = {str(k): v for k, v in obj.items()}
        out.append("{")
        for i, key in enumerate(sorted(keyed)):
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _write(keyed[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _write(v, out)
        out.append("]")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _write({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
                if not (f.default is None and getattr(obj, f.name) is None)}, out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def csv_table(rows: Sequence[Any]) -> str:
    """Render a nonempty sequence of row dataclasses of one type: a header
    of their field names, then one line per row."""
    names = [f.name for f in dataclasses.fields(rows[0])]
    lines = [",".join(names)]
    for row in rows:
        lines.append(",".join(csv_cell(getattr(row, name)) for name in names))
    return "\n".join(lines) + "\n"
