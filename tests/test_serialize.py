import json
import math
from dataclasses import dataclass

import numpy as np

from hdclt import serialize


def test_floats_round_trip_exactly():
    values = [0.1, 1.0, -2.5e-17, 3.141592653589793, 1e300, 5e-324]
    text = serialize.dumps({"v": values})
    back = json.loads(text)["v"]
    assert back == values


def test_keys_sorted_and_newline_terminated():
    text = serialize.dumps({"b": 1, "a": 2, "c": {"z": 0, "y": 1}})
    assert text == '{"a":2,"b":1,"c":{"y":1,"z":0}}\n'
    # keys are sorted as strings, after str()
    assert serialize.dumps({10: 0, 9: 1}) == '{"10":0,"9":1}\n'


def test_non_finite_sentinels():
    text = serialize.dumps({"x": [math.inf, -math.inf, math.nan]})
    assert json.loads(text)["x"] == ["inf", "-inf", "nan"]


def test_numpy_coercion():
    text = serialize.dumps({
        "a": np.float64(0.5), "b": np.int64(3),
        "c": np.array([1.0, 2.0]), "d": np.bool_(True),
    })
    assert json.loads(text) == {"a": 0.5, "b": 3, "c": [1.0, 2.0], "d": True}
    # at any depth: inside a dataclass field and inside a tuple
    nested = (Row(np.int64(2), np.array([np.float32(0.25)]), np.bool_(True)),
              (np.uint8(7), np.array([[1, 2]])))
    assert serialize.dumps(nested) == '[{"a":2,"b":[0.25],"flag":true},[7,[[1,2]]]]\n'


def test_string_escapes():
    text = serialize.dumps({"s": 'a"b\\c\ndé'})
    assert json.loads(text)["s"] == 'a"b\\c\ndé'
    # pinned bytes: short escapes, lowercase \u for control, DEL and
    # non-ASCII code points, surrogate pairs above the BMP
    assert serialize.dumps('\t\x01\x7f~\u00e9\U0001f600') == (
        '"\\t\\u0001\\u007f~\\u00e9\\ud83d\\ude00"\n')


def test_reemission_is_byte_stable():
    payload = {"x": [0.1 * k for k in range(10)], "label": "run"}
    assert serialize.dumps(payload) == serialize.dumps(json.loads(serialize.dumps(payload)))


@dataclass(frozen=True)
class Row:
    a: object
    b: float
    flag: bool = False


@dataclass(frozen=True)
class Report:
    rows: tuple
    slope: float | None  # required: written as null when None
    note: str | None = None  # optional: left out while None


def test_csv_table():
    text = serialize.csv_table([Row(1, 0.5), Row("x", math.inf, True)])
    assert text == "a,b,flag\n1,0.5,0\nx,inf,1\n"


def test_dataclass_fields_and_none_default_rule():
    report = Report(rows=(Row(1, 0.5),), slope=None)
    assert serialize.dumps(report) == (
        '{"rows":[{"a":1,"b":0.5,"flag":false}],"slope":null}\n'
    )
    assert json.loads(serialize.dumps(Report(rows=(), slope=-0.5, note="n"))) == {
        "rows": [], "slope": -0.5, "note": "n",
    }
