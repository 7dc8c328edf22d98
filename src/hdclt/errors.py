"""Exception types shared across the package, and the one reader of config values."""


class ParameterError(ValueError):
    """An argument or configuration value violates a documented precondition."""


class ConfigError(ParameterError):
    """A config value is missing or has the wrong JSON type."""


class NotPositiveSemidefiniteError(ArithmeticError):
    """A matrix could not be factored even after the jitter escalation."""


REQUIRED = object()  # the default of a config key that must be given

# the one ceiling of every count and dimension a config gives (n, p, R, K,
# trials, ...): no run makes arrays, batch lists or loops of more entries;
# a seed is an int and keeps its full 64-bit range
MAX_SIZE = 2**31 - 1


class Size(int):
    """The kind of a count or dimension: an integer of at most ``MAX_SIZE``."""


# each kind: how one value is named, and how a list of them is
_KIND_NAMES = {int: ("an integer", "integers"), float: ("a number", "numbers"),
               bool: ("true or false", "booleans"), str: ("a string", "strings"),
               dict: ("an object", "objects"), list: ("an array", "arrays"),
               Size: (f"an integer of at most {MAX_SIZE}", f"integers of at most {MAX_SIZE}")}


def _typed(value, kind):
    """``value`` as a ``kind``, or None when it is not one.  A JSON boolean is
    not a number, and an integer takes any number with an integral value."""
    if kind is Size:
        size = _typed(value, int)
        return size if size is not None and size <= MAX_SIZE else None
    if isinstance(value, bool) != (kind is bool):
        return None
    if kind is int and isinstance(value, float) and value.is_integer():
        return int(value)
    if kind is float and isinstance(value, int):
        return float(value)
    return value if isinstance(value, kind) else None


class Config(dict):
    """A config object of a run as given, which knows the ``prefix`` that
    names its keys by their dotted path in the run's config and the keys
    ``config_value`` has ``read``.  Its objects, in arrays too, are Configs."""

    def __init__(self, tree: dict, prefix: str = ""):
        super().__init__((key, _node(value, prefix + key)) for key, value in tree.items())
        self.prefix, self.read = prefix, set()


def _node(value, name: str):
    if isinstance(value, list):
        return [_node(v, f"{name}[{i}]") for i, v in enumerate(value)]
    return Config(value, name + ".") if isinstance(value, dict) else value


def config_error(cfg: dict, message, key: str | None = None, kind=ParameterError):
    """A ``kind`` error of ``message`` that names the config object ``cfg``,
    or its ``key``, by its path when cfg is a Config (by the key alone if not)."""
    path = (cfg.prefix + key if key else cfg.prefix[:-1]) if isinstance(cfg, Config) else key
    return kind(f"{path}: {message}" if path else str(message))


def config_object(cfg: dict, make, key: str | None = None, /, **fields):
    """``make(**fields)``, the object that the config object ``cfg`` gives: a
    ParameterError of its checks names cfg, or its ``key``, as config_error does."""
    try:
        return make(**fields)
    except ParameterError as exc:
        raise config_error(cfg, exc, key, type(exc)) from exc


def unread_keys(value) -> list:
    """The paths of the keys given in ``value`` but never read; an unread object is named whole."""
    if isinstance(value, Config):
        return [path for key, v in value.items()
                for path in (unread_keys(v) if key in value.read else [value.prefix + key])]
    return [path for v in value for path in unread_keys(v)] if isinstance(value, list) else []


def config_value(cfg: dict, key: str, kind: type, default=REQUIRED, item: type | None = None):
    """The value of ``key`` in the config object ``cfg`` as a ``kind``: one of
    int, Size, float, bool, str, dict or list, a list holding ``item``s if given.

    An absent key gives ``default`` (a ConfigError if it is REQUIRED), and so
    does null where ``default`` is None; any other value of the wrong type is
    a ConfigError naming the key, by its path when ``cfg`` is a Config.
    """
    name = cfg.prefix + key if isinstance(cfg, Config) else key
    if isinstance(cfg, Config):
        cfg.read.add(key)
    if key not in cfg or (cfg[key] is None and default is None):
        if default is REQUIRED:
            raise ConfigError(f"missing required config key {name!r}")
        return default
    typed = _typed(cfg[key], kind)
    if item is not None and typed is not None:
        typed = [_typed(v, item) for v in typed]
    if typed is None or (item is not None and None in typed):
        what = _KIND_NAMES[kind][0] + (f" of {_KIND_NAMES[item][1]}" if item else "")
        raise ConfigError(f"config key {name!r} must be {what}, got {cfg[key]!r}")
    return typed
