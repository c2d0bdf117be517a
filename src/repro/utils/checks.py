"""Checks the parameter dataclasses run on their fields at construction."""

from __future__ import annotations

import math
import numbers


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
