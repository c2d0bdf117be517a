"""The parameter contract — a field's legal values declared once
(:func:`param`), enforced with its annotation by :func:`check_fields`, read
from a JSON object by :func:`read_fields` — and the one check of an object
id."""

from __future__ import annotations

import dataclasses
import enum
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

#: How a message names a kind that is not spelled ``a <class name>``.
_KIND_NAMES = {str: "a string", Mapping: "a mapping"}


def param(
    default: Any = dataclasses.MISSING, *, choices: Any = None, help: Optional[str] = None,
    alias: Optional[str] = None, metavar: Optional[str] = None, **bounds: float,
) -> Any:
    """A dataclass field with its legal values: ``choices`` (a tuple, or a
    callable returning the registered names) and ``ge`` / ``gt`` / ``le`` /
    ``lt`` bounds (``ge=1`` on a list: non-empty).  ``help`` / ``alias`` /
    ``metavar`` describe a CLI flag derived from the field; a callable
    ``default`` is a factory."""
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
    holds an integer, a ``float`` field a finite real and a ``numbers.Real``
    one any real, a ``bool`` field a ``bool``, a ``Dict`` / ``List`` field a
    mapping / list whose values / items have the element type (and whose
    keys, when an ``Enum`` types them, name its members), a class-typed
    field (a nested params dataclass, a ``str``) an instance, and
    ``Optional`` admits ``None`` — then the declared choices, then the
    bounds.
    """
    for name, choices, bounds, _, kind, optional, items, keys in _rules(type(obj)):
        _enforce(getattr(obj, name), name, kind, optional, choices, bounds, error, items, keys)


def read_fields(cls: type, document: object, error: type = ValueError) -> Any:
    """The dataclass ``cls`` read from the JSON object ``document``.

    Each field is checked in order as :func:`check_fields` checks it, named
    as the document spells it (``'rank' must be an integer, got 'x'``,
    ``missing field 'rank'``), and raises ``error``; so does a ``document``
    that is not an object.  Undeclared keys are ignored.  JSON's transport
    rule holds for every ``int`` and ``float`` field: an ``int`` field takes
    an integral float or a digit string as that integer, a ``float`` field a
    numeric string that parses to a finite number.  The items of a ``List``
    of dataclasses are read the same way."""
    if not isinstance(document, Mapping):
        raise error(f"expected an object, got {document!r}")
    values = {}
    for name, choices, bounds, required, kind, optional, items, keys in _rules(cls):
        if name in document:
            value = values[name] = _carried(document[name], kind, items, error)
            _enforce(value, repr(name), kind, optional, choices, bounds, error, items, keys)
        elif required:
            raise error(f"missing field {name!r}")
    return cls(**values)


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


def _kind(annotation: Any) -> tuple:
    """``(kind, optional, items, keys)`` of an annotation: the kind of a
    ``Dict`` is ``Mapping`` and of a ``List`` ``list``, with the kind of
    their values / items and the ``Enum`` (or None) of a ``Dict``'s keys; of
    another generic or of ``Any`` ``None`` (not type-checked)."""
    args = typing.get_args(annotation)
    optional = typing.get_origin(annotation) is typing.Union and type(None) in args
    if optional:
        (annotation,) = [arg for arg in args if arg is not type(None)]
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is list:
        return list, optional, _kind(args[0])[0], None
    if isinstance(origin, type) and issubclass(origin, Mapping):
        keys = args[0] if args and isinstance(args[0], enum.EnumMeta) else None
        return Mapping, optional, _kind(args[1])[0] if args else None, keys
    if origin is not None or annotation is Any or not isinstance(annotation, type):
        return None, optional, None, None
    return annotation, optional, None, None


@functools.lru_cache(maxsize=None)
def _rules(cls: type) -> tuple:
    """``(name, choices, bounds, required, kind, optional, items, keys)`` per
    field of ``cls``, read once."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            spec.name, spec.metadata.get("choices"), spec.metadata.get("bounds", {}),
            spec.default is spec.default_factory is dataclasses.MISSING,
            *_kind(hints[spec.name]),
        )
        for spec in dataclasses.fields(cls)
    )


def _carried(value: Any, kind: Any, items: Any, error: type) -> Any:
    """``value`` as JSON carries it to a field of ``kind`` (the transport
    rule of :func:`read_fields`); what the rule does not cover is left for
    the field's check to refuse."""
    if kind is int and isinstance(value, float) and value.is_integer():
        return int(value)
    if kind in (int, float) and isinstance(value, str):
        try:
            number = kind(value)
        except ValueError:
            return value
        return number if kind is int or math.isfinite(number) else value
    if kind is list and dataclasses.is_dataclass(items) and isinstance(value, list):
        return [read_fields(items, item, error) if isinstance(item, Mapping) else item
                for item in value]
    return value


def _range(bounds: "dict[str, float]") -> str:
    """``in [0, 1)`` for a lower and an upper bound, ``>= 1`` for one."""
    if len(bounds) == 2:
        (low, a), (high, b) = sorted(bounds.items(), key=lambda item: item[0][0] == "l")
        return f"in {'[('[low == 'gt']}{a:.12g}, {b:.12g}{'])'[high == 'lt']}"
    return " and ".join(f"{_ORDER[key][1]} {bound:.12g}" for key, bound in bounds.items())


def _enforce(
    value: Any, name: str, kind: Any, optional: bool, choices: Any,
    bounds: "dict[str, float]", error: type, items: Any = None, keys: Any = None,
) -> None:
    """Raise ``error`` unless ``value`` is legal for the field ``name``."""
    if value is None and optional:
        return
    number = not isinstance(value, bool) and isinstance(value, numbers.Real)
    measured = value
    if kind is float:
        # A real's message states its range whichever part fails.
        legal = _range(bounds) if len(bounds) == 2 else f"a finite number {_range(bounds)}".rstrip()
        ok = number and math.isfinite(value)
    elif kind is int:
        legal, ok = "an integer", number and isinstance(value, numbers.Integral)
    elif kind is numbers.Real:  # any real, NaN and the infinities too
        legal, ok = "a number", number
    elif kind is list:
        legal, ok = "a list", isinstance(value, (list, tuple))
        measured = len(value) if ok else value  # bounds hold a list's length
    elif kind is not None:
        legal = _KIND_NAMES.get(kind, f"a {kind.__name__}")
        ok = isinstance(value, kind)
    else:
        legal, ok = "", True
    if ok and callable(choices):
        if value not in choices():
            available = ", ".join(choices())
            raise error(f"unknown {name.replace('_', ' ')} {value!r}; available: {available}")
    elif ok and choices is not None:
        legal, ok = " or ".join(map(str, choices)), value in choices
    elif ok and bounds:
        ok = all(_ORDER[key][0](measured, bound) for key, bound in bounds.items())
        if kind is not float:
            legal = "a non-empty list" if kind is list else _range(bounds)
    if not ok:
        raise error(f"{name} must be {legal}{' or None' if optional else ''}, got {value!r}")
    if items is not None:
        for key, item in value.items() if kind is Mapping else enumerate(value):
            if keys is not None:
                try:
                    keys(key)
                except ValueError as exc:
                    raise error(f"{name}: {exc}") from None
            label = f"value for {key!r}" if kind is Mapping else f"item {key}"
            _enforce(item, f"{name} {label}", items, False, None, {}, error)


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
