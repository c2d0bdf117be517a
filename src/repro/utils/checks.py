"""The parameter contract — a field's legal values declared once
(:func:`param`), enforced with its annotation by :func:`check_fields` — and
the one check of an object id."""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import operator
import typing
from collections.abc import Mapping
from typing import Any, Optional

#: bound keyword -> (holds, how a message spells it)
_ORDER = {
    "ge": (operator.ge, ">="), "gt": (operator.gt, ">"),
    "le": (operator.le, "<="), "lt": (operator.lt, "<"),
}


def param(
    default: Any = dataclasses.MISSING, *, choices: Any = None, help: Optional[str] = None,
    alias: Optional[str] = None, metavar: Optional[str] = None, **bounds: float,
) -> Any:
    """A dataclass field with its legal values: ``choices`` (a tuple, or a
    callable returning the registered names) and ``ge`` / ``gt`` / ``le`` /
    ``lt`` bounds.  ``help`` / ``alias`` / ``metavar`` describe a CLI flag
    derived from the field; a callable ``default`` is a factory."""
    if not bounds.keys() <= _ORDER.keys():
        raise TypeError(f"unknown bounds {sorted(bounds.keys() - _ORDER.keys())}")
    metadata = {
        "help": help, "alias": alias, "metavar": metavar,
        "choices": choices, "bounds": bounds,
    }
    if callable(default):
        return dataclasses.field(default_factory=default, metadata=metadata)
    return dataclasses.field(default=default, metadata=metadata)


def check_fields(obj: Any, error: type = ValueError) -> None:
    """Check every field of the dataclass ``obj``; raises ``error`` naming
    the first illegal one.

    The type comes first — a ``bool`` is not a number, an ``int`` field
    holds an integer and a ``float`` field a finite real, a ``bool`` field a
    ``bool``, a ``Dict`` field a mapping, a class-typed field (a nested
    params dataclass, a ``str``) an instance, and ``Optional`` admits
    ``None`` — then the declared choices, then the bounds.
    """
    for rule in _rules(type(obj)):
        _enforce(getattr(obj, rule[0]), *rule, error)


def check_integer(
    name: str, value: object, low: "int | None" = None, error: type = ValueError
) -> None:
    """``value`` is an integer (a ``bool`` is not one), ``>= low`` when
    given; raises ``error`` otherwise.  For a value that is no field."""
    _enforce(value, name, int, False, None, {} if low is None else {"ge": low}, error)


def check_real(
    name: str, value: object, low: "float | None" = None, below: "float | None" = None,
    error: type = ValueError,
) -> None:
    """``value`` is a finite real (a ``bool`` is not one), ``low <= value``
    when ``low`` is given and ``value < below`` when ``below`` is; raises
    ``error`` otherwise.  For a value that is no field."""
    bounds = {key: b for key, b in (("ge", low), ("lt", below)) if b is not None}
    _enforce(value, name, float, False, None, bounds, error)


@functools.lru_cache(maxsize=None)
def _rules(cls: type) -> tuple:
    """``(name, kind, optional, choices, bounds)`` per field of ``cls``, read
    once; the kind of a ``Dict`` is ``Mapping``, of another generic or of
    ``Any`` ``None`` (not type-checked)."""
    hints, rules = typing.get_type_hints(cls), []
    for spec in dataclasses.fields(cls):
        kind = hints[spec.name]
        args = typing.get_args(kind)
        optional = typing.get_origin(kind) is typing.Union and type(None) in args
        if optional:
            (kind,) = [arg for arg in args if arg is not type(None)]
        origin = typing.get_origin(kind)
        if origin is not None or kind is Any or not isinstance(kind, type):
            mapping = isinstance(origin, type) and issubclass(origin, Mapping)
            kind = Mapping if mapping else None
        rules.append((
            spec.name, kind, optional,
            spec.metadata.get("choices"), spec.metadata.get("bounds", {}),
        ))
    return tuple(rules)


def _range(bounds: "dict[str, float]") -> str:
    """``in [0, 1)`` for a lower and an upper bound, ``>= 1`` for one."""
    if len(bounds) == 2:
        (low, a), (high, b) = sorted(bounds.items(), key=lambda item: item[0][0] == "l")
        return f"in {'[('[low == 'gt']}{a:.12g}, {b:.12g}{'])'[high == 'lt']}"
    return " and ".join(f"{_ORDER[key][1]} {bound:.12g}" for key, bound in bounds.items())


def _enforce(
    value: Any, name: str, kind: Any, optional: bool, choices: Any,
    bounds: "dict[str, float]", error: type,
) -> None:
    """Raise ``error`` unless ``value`` is legal for the field ``name``."""
    if value is None and optional:
        return
    number = not isinstance(value, bool) and isinstance(value, numbers.Real)
    if kind is float:
        # A real's message states its range whichever part fails.
        legal = _range(bounds) if len(bounds) == 2 else f"a finite number {_range(bounds)}".rstrip()
        ok = number and math.isfinite(value)
    elif kind is int:
        legal, ok = "an integer", number and isinstance(value, numbers.Integral)
    elif kind is not None:
        legal = "a mapping" if kind is Mapping else f"a {kind.__name__}"
        ok = isinstance(value, kind)
    else:
        legal, ok = "", True
    if ok and callable(choices):
        if value not in choices():
            raise error(
                f"unknown {name.replace('_', ' ')} {value!r}; "
                f"available: {', '.join(choices())}"
            )
    elif ok and choices is not None:
        legal, ok = " or ".join(map(str, choices)), value in choices
    elif ok and bounds:
        ok = all(_ORDER[key][0](value, bound) for key, bound in bounds.items())
        legal = legal if kind is float else _range(bounds)
    if not ok:
        raise error(f"{name} must be {legal}{' or None' if optional else ''}, got {value!r}")


def object_id_of(value: object, error: type = ValueError) -> int:
    """``value`` as an object id: a Python ``int`` >= 0 from any integer
    ``operator.index`` accepts (a NumPy integer included), never from a
    ``bool``; raises ``error`` otherwise."""
    if not isinstance(value, bool):
        try:
            index = operator.index(value)
        except TypeError:
            pass
        else:
            if index >= 0:
                return index
    raise error(f"invalid object id: {value!r}")
