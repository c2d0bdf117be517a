"""Checks the parameter dataclasses run on their fields at construction,
and the one check of an object id."""

from __future__ import annotations

import math
import numbers
import operator


def check_integer(
    name: str, value: object, low: "int | None" = None, error: type = ValueError
) -> None:
    """``value`` is an integer (a ``bool`` is not one), ``>= low`` when
    given; raises ``error`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise error(f"{name} must be >= {low}, got {value!r}")


def check_real(
    name: str, value: object, low: float, below: "float | None" = None,
    error: type = ValueError,
) -> None:
    """``value`` is a finite real (a ``bool`` is not one), ``low <= value``
    and ``value < below`` when given; raises ``error`` otherwise."""
    ok = (
        not isinstance(value, bool)
        and isinstance(value, numbers.Real)
        and math.isfinite(value)
        and low <= value
        and (below is None or value < below)
    )
    if not ok:
        bounds = f"in [{low:g}, {below:g})" if below is not None else f"a finite number >= {low:g}"
        raise error(f"{name} must be {bounds}, got {value!r}")


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
