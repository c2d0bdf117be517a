"""The modality taxonomy shared by the whole system."""

from __future__ import annotations

import enum


class Modality(str, enum.Enum):
    """A kind of content an object or query can carry.

    Inherits from :class:`str` so values serialise cleanly to JSON and can be
    used directly as dictionary keys in configuration files.
    """

    TEXT = "text"
    IMAGE = "image"
    AUDIO = "audio"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @classmethod
    def parse(cls, value: "str | Modality") -> "Modality":
        """A :class:`Modality` from a name such as ``"text"`` (any case); a
        :class:`ValueError` lists the valid names otherwise."""
        return value if isinstance(value, cls) else cls(value)

    @classmethod
    def _missing_(cls, value: object) -> "Modality":
        """What ``Modality(value)`` does when no member has that value."""
        if isinstance(value, str) and value.lower() in cls._value2member_map_:
            return cls._value2member_map_[value.lower()]
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown modality {value!r}; expected one of: {valid}")


DEFAULT_MODALITIES = (Modality.TEXT, Modality.IMAGE)
"""The modality pair used throughout the paper's demonstration scenarios."""
