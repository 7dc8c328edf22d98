import ast
import math
import pathlib
import re

import pytest

from hdclt.errors import (MAX_SIZE, REQUIRED, Config, ConfigError, ParameterError, Size,
                          config_object, config_value, unread_keys)

CFG = {"i": 3, "big": 1e4, "frac": 2.5, "t": True, "s": "x", "d": {}, "xs": [1, 2.0],
       "null": None, "nan": math.nan}


@pytest.mark.parametrize("key, kind, want", [
    ("i", int, 3), ("big", int, 10_000), ("i", float, 3.0), ("frac", float, 2.5),
    ("nan", float, None), ("t", bool, True), ("s", str, "x"), ("d", dict, {}),
    ("xs", list, [1, 2.0]),
])
def test_each_kind_reads_its_json_type(key, kind, want):
    got = config_value(CFG, key, kind)
    assert type(got) is kind
    assert got == want or (want is None and math.isnan(got))


@pytest.mark.parametrize("key, kind, message", [
    ("frac", int, "must be an integer, got 2.5"),
    ("nan", int, "must be an integer, got nan"),
    ("t", int, "must be an integer, got True"),
    ("t", float, "must be a number, got True"),
    ("s", float, "must be a number, got 'x'"),
    ("i", bool, "must be true or false, got 3"),
    ("s", bool, "must be true or false, got 'x'"),
    ("i", str, "must be a string, got 3"),
    ("xs", dict, "must be an object, got [1, 2.0]"),
    ("d", list, "must be an array, got {}"),
    ("null", int, "must be an integer, got None"),
])
def test_a_value_of_another_type_names_its_key(key, kind, message):
    with pytest.raises(ConfigError, match=re.escape(f"config key '{key}' {message}")):
        config_value(CFG, key, kind, 0 if kind in (int, float) else REQUIRED)


def test_absent_and_null_keys():
    with pytest.raises(ConfigError, match="missing required config key 'k'"):
        config_value(CFG, "k", int)
    assert config_value(CFG, "k", int, 7) == 7
    assert config_value(CFG, "null", int, None) is None  # null is absent where None is the default
    assert issubclass(ConfigError, ParameterError)


def test_list_items_take_their_kind():
    assert config_value(CFG, "xs", list, item=int) == [1, 2]
    assert config_value(CFG, "xs", list, item=float) == [1.0, 2.0]
    with pytest.raises(ConfigError, match="config key 'xs' must be an array of strings"):
        config_value(CFG, "xs", list, item=str)
    with pytest.raises(ConfigError, match="config key 'xs' must be an array of integers"):
        config_value({"xs": [1, True]}, "xs", list, item=int)


def test_sizes_have_one_ceiling_and_seeds_none():
    assert config_value({"n": MAX_SIZE}, "n", Size) == MAX_SIZE
    assert type(config_value(CFG, "big", Size)) is int
    for value in (MAX_SIZE + 1, 1e30, 2.5, True):
        with pytest.raises(ConfigError, match=re.escape(
                f"config key 'n' must be an integer of at most {MAX_SIZE}, got {value!r}")):
            config_value({"n": value}, "n", Size)
    with pytest.raises(ConfigError, match=f"'ns' must be an array of integers of at most {MAX_SIZE}"):
        config_value({"ns": [4, 1e30]}, "ns", list, item=Size)
    assert config_value({"seed": 2**64 - 1}, "seed", int) == 2**64 - 1


def test_a_config_names_each_key_by_its_path_and_records_its_reads():
    tree = {"sigma": {"design": {"p": 1e30}, "x": 1}, "family": {"sets": [{"kind": 5}]},
            "seed": 1, "famly": {"K": 3}}
    cfg = Config(tree)
    assert cfg == tree  # the config as given
    design = config_value(config_value(cfg, "sigma", dict), "design", dict)
    with pytest.raises(ConfigError, match=re.escape("config key 'sigma.design.p' must be")):
        config_value(design, "p", Size)
    with pytest.raises(ConfigError, match="missing required config key 'sigma.design.kind'"):
        config_value(design, "kind", str)
    entry = config_value(config_value(cfg, "family", dict), "sets", list, item=dict)[0]
    with pytest.raises(ConfigError, match=re.escape("config key 'family.sets[0].kind' must be")):
        config_value(entry, "kind", str)
    assert config_value(cfg, "seed", int) == 1
    # an unread object is named whole, not by its keys
    assert unread_keys(cfg) == ["sigma.x", "famly"]


def test_a_plain_dict_names_the_bare_key():
    block = config_value({"sigma": {"p": 1e30}}, "sigma", dict)
    assert type(block) is dict
    with pytest.raises(ConfigError, match=re.escape("config key 'p' must be")):
        config_value(block, "p", Size)


def test_config_object_names_a_nested_object_by_its_path():
    def make(v):
        raise ParameterError(f"bad v {v}")

    cfg = Config({"sigma": {"covariance": {"model": "x"}}})
    with pytest.raises(ParameterError, match=r"^sigma\.covariance: bad v 1$"):
        config_object(cfg["sigma"]["covariance"], make, v=1)
    for plain in ({"v": 1}, cfg):  # a plain dict, and the root, add no name
        with pytest.raises(ParameterError, match=r"^bad v 1$"):
            config_object(plain, make, v=1)
    assert config_object(cfg, dict, v=1) == {"v": 1}


def _config_keys(tree):
    # the key each config_value call reads: its string argument, or each
    # string of the tuple a comprehension binds its key name to
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "config_value"]
    bound = {}
    for comp in ast.walk(tree):
        if isinstance(comp, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)):
            gen = comp.generators[0]
            for call in ast.walk(comp):
                if call in calls and getattr(call.args[1], "id", None) == gen.target.id:
                    bound[call] = [elt.value for elt in gen.iter.elts]
    for call in calls:
        key = call.args[1]
        yield from [key.value] if isinstance(key, ast.Constant) else bound[call]


def test_readme_names_every_config_key():
    root = pathlib.Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    keys = {key for path in sorted((root / "src" / "hdclt").glob("*.py"))
            for key in _config_keys(ast.parse(path.read_text()))}
    assert {"seed", "K1", "alpha", "label"} <= keys
    assert sorted(k for k in keys if f"`{k}`" not in readme and f'"{k}"' not in readme) == []
