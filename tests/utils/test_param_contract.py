"""One parameter contract: every declared field refuses a hostile value with
its class's own error type.

The hostile values are derived from each field's annotation and declaration
(the :func:`repro.utils.param` metadata), not listed by hand: a ``bool`` and
a string where a number goes, a fraction where an integer goes, NaN and
±inf where a finite real goes, one step past each bound, a value outside a
choice set, the wrong type for a flag, a mapping, a string or a nested
params dataclass, and ``None`` where the annotation is not ``Optional``.
The hand-written tables (``BOUNDARY_TABLE``, ``REFUSED``,
``HOSTILE_BODIES``) stay as independent oracles of the messages.
"""

import math
import typing
from collections.abc import Mapping
from dataclasses import dataclass, fields
from typing import Dict, Optional

import pytest

from repro.core import MQAConfig
from repro.core.resilience import FaultSpec, RetryPolicy
from repro.data import DatasetSpec
from repro.errors import ConfigurationError, DataError
from repro.index.hnsw import HnswParams
from repro.index.ivf import IvfParams
from repro.index.must_graph import MustGraphParams
from repro.index.nsg import NsgParams
from repro.index.starling import StarlingParams
from repro.index.tiered import TieredParams
from repro.index.vamana import VamanaParams
from repro.observability.monitoring import SLOTargets
from repro.utils import check_fields, param
from repro.weights import WeightLearningConfig

NAN, INF = math.nan, math.inf

#: Every declaring class and the error type it refuses with.
DECLARING = [
    (MQAConfig, ConfigurationError),
    (HnswParams, ValueError),
    (VamanaParams, ValueError),
    (MustGraphParams, ValueError),
    (NsgParams, ValueError),
    (StarlingParams, ValueError),
    (TieredParams, ConfigurationError),
    (IvfParams, ValueError),
    (DatasetSpec, DataError),
    (WeightLearningConfig, ValueError),
    (FaultSpec, ConfigurationError),
    (SLOTargets, ValueError),
    (RetryPolicy, ConfigurationError),
]

#: Fields whose annotation carries no type the checker reads (a tuple that
#: ``__post_init__`` coerces).
UNTYPED = {("DatasetSpec", "modalities")}


def _kind(annotation):
    """``(kind, optional)`` of an annotation: ``Dict[...]`` is a mapping,
    any other generic (or ``Any``) is untyped (``None``)."""
    args = typing.get_args(annotation)
    optional = typing.get_origin(annotation) is typing.Union and type(None) in args
    if optional:
        (annotation,) = [arg for arg in args if arg is not type(None)]
    origin = typing.get_origin(annotation)
    if origin is not None:
        return (Mapping if issubclass(origin, Mapping) else None), optional
    return (annotation if isinstance(annotation, type) else None), optional


def hostile_values(kind, optional, metadata):
    """What no field of this kind and declaration may hold."""
    if kind is int:
        values = [True, 2.5, "7"]
    elif kind is float:
        values = [True, NAN, INF, -INF, "0.5"]
    elif kind is bool:
        values = ["yes", 1]
    elif kind is Mapping:
        values = ["x", 5]
    else:
        values = [5] if kind is str else [5, "x"]
    if not optional:
        values.append(None)
    choices = metadata.get("choices")
    if callable(choices):
        values.append("no-such")
    elif choices:
        values.append(max(choices) + 1)
    step = 1 if kind is int else 1e-3
    for key, bound in metadata.get("bounds", {}).items():
        values.append(
            {"ge": bound - step, "gt": bound, "le": bound + step, "lt": bound}[key]
        )
    return values


def _cases():
    cases, untyped = [], set()
    for cls, error in DECLARING:
        hints = typing.get_type_hints(cls)
        for spec in fields(cls):
            kind, optional = _kind(hints[spec.name])
            if kind is None:
                untyped.add((cls.__name__, spec.name))
                continue
            for value in hostile_values(kind, optional, spec.metadata):
                cases.append(pytest.param(
                    cls, error, spec.name, value,
                    id=f"{cls.__name__}-{spec.name}-{value!r}",
                ))
    return cases, untyped


CASES, SKIPPED = _cases()


@pytest.mark.parametrize("cls, error, name, value", CASES)
def test_a_hostile_value_is_refused_with_the_class_error(cls, error, name, value):
    with pytest.raises(error) as caught:
        cls(**{name: value})
    message = str(caught.value)
    assert name in message or name.replace("_", " ") in message


def test_the_sweep_covers_every_typed_field():
    assert SKIPPED == UNTYPED
    covered = {(case.values[0].__name__, case.values[2]) for case in CASES}
    declared = {
        (cls.__name__, spec.name) for cls, _ in DECLARING for spec in fields(cls)
    }
    assert covered == declared - UNTYPED
    assert len(CASES) > 400, "the sweep lost its values"


def test_every_declaration_is_legal_at_its_default():
    for cls, _ in DECLARING:
        cls()


@dataclass
class Probe:
    """One field of each shape the checker reads."""

    count: int = param(1, ge=1)
    rate: float = param(0.5, ge=0, lt=1)
    scale: float = param(1.0, gt=0)
    plain: float = 0.0
    limit: Optional[int] = param(None, gt=0)
    width: int = param(4, choices=(4, 8))
    flag: bool = False
    inner: Optional[HnswParams] = None
    table: Dict[str, int] = param(dict)

    def __post_init__(self):
        check_fields(self)


#: (field, value, the message) — type first, then choices, then bounds.
MESSAGES = [
    ("count", "x", "count must be an integer, got 'x'"),
    ("count", 1.5, "count must be an integer, got 1.5"),
    ("count", True, "count must be an integer, got True"),
    ("count", 0, "count must be >= 1, got 0"),
    ("rate", NAN, "rate must be in [0, 1), got nan"),
    ("rate", 1, "rate must be in [0, 1), got 1"),
    ("scale", INF, "scale must be a finite number > 0, got inf"),
    ("scale", 0, "scale must be a finite number > 0, got 0"),
    ("plain", -INF, "plain must be a finite number, got -inf"),
    ("limit", 0, "limit must be > 0 or None, got 0"),
    ("limit", 2.0, "limit must be an integer or None, got 2.0"),
    ("width", 5, "width must be 4 or 8, got 5"),
    ("width", 4.0, "width must be an integer, got 4.0"),
    ("flag", 1, "flag must be a bool, got 1"),
    ("inner", {"m": 6}, "inner must be a HnswParams or None, got {'m': 6}"),
    ("table", [("a", 1)], "table must be a mapping, got [('a', 1)]"),
]


@pytest.mark.parametrize("name, value, message", MESSAGES)
def test_the_checker_messages(name, value, message):
    with pytest.raises(ValueError) as caught:
        Probe(**{name: value})
    assert str(caught.value) == message


def test_the_checker_accepts_what_the_rules_admit():
    import numpy as np

    probe = Probe(
        count=np.int64(3), rate=0, scale=np.float64(2.5), limit=None, width=8,
        flag=True, inner=HnswParams(), table={"a": 1},
    )
    assert (probe.count, probe.width, probe.limit) == (3, 8, None)
