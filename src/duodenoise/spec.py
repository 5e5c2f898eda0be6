"""Strict reading of JSON specs.

An experiment config, every object nested in it and the JSON given to the
CLI are read by :func:`read`: a spec is a JSON object (or its text) whose
keys are all known, whose required keys are all present and whose values
all have their declared JSON type.  Anything else raises a
:class:`ConfigError` that names where in the spec it was found, before any
work starts.

A declared type is ``int`` (a JSON integer; ``true`` and ``16.9`` are not),
``float`` (any JSON number but a boolean; an integer is widened), ``str``,
``dict``, or a one-element list ``[t]`` for a list of ``t``.
"""

from __future__ import annotations

import json

_NAMES = {int: "integer", float: "number", str: "string", dict: "object"}


class ConfigError(ValueError):
    """A malformed or inconsistent spec or setting."""


def _check(value, kind, path: str):
    if isinstance(kind, list):
        if isinstance(value, list):
            return [_check(v, kind[0], f"{path}[{i}]") for i, v in enumerate(value)]
    elif not isinstance(value, bool):
        if kind is float and isinstance(value, int):
            return float(value)
        if isinstance(value, kind):
            return value
    raise ConfigError(f"{path}: expected {_name(kind)}, got {value!r}")


def _name(kind) -> str:
    return f"list of {_name(kind[0])}" if isinstance(kind, list) else _NAMES[kind]


def load(spec, path: str) -> dict:
    """``spec`` as a dict: JSON text is decoded; anything but an object is
    rejected."""
    if isinstance(spec, (str, bytes)):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object, got {spec!r}")
    return spec


def read(spec, path: str, required: dict, optional: dict | None = None) -> dict:
    """The values of a spec, type-checked, with defaults for absent keys.

    ``spec`` is a dict or its JSON text; ``path`` names it in error
    messages.  ``required`` maps each required key to its type and
    ``optional`` each optional key to ``(type, default)``.
    """
    spec, optional = load(spec, path), optional or {}
    unknown = sorted(set(spec) - set(required) - set(optional), key=str)
    if unknown:
        raise ConfigError(f"unknown keys in {path}: {unknown}")
    for key in required:
        if key not in spec:
            raise ConfigError(f"{path}: missing required key {key!r}")
    values = {key: _check(spec[key], kind, f"{path}.{key}")
              for key, kind in required.items()}
    for key, (kind, default) in optional.items():
        values[key] = _check(spec[key], kind, f"{path}.{key}") if key in spec else default
    return values


def read_typed(spec, path: str, what: str, types: dict) -> dict:
    """:func:`read` for a spec whose ``type`` key selects its other keys.

    ``types`` maps each type name to ``(required, optional)``.
    """
    spec = load(spec, path)
    if "type" not in spec:
        raise ConfigError(f"{path}: missing required key 'type'")
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in types:
        raise ConfigError(f"{path}: unknown {what}: {kind!r}")
    required, optional = types[kind]
    return read(spec, path, {"type": str, **required}, optional)


def build(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ValueError re-raised as a ConfigError
    naming ``path``: a spec whose values pass :func:`read` can still be
    rejected by the constructor of what it describes."""
    try:
        return make(*args, **kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
