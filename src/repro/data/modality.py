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
        """Coerce a string such as ``"text"`` into a :class:`Modality`.

        Raises :class:`ValueError` with the list of valid names on failure.
        """
        if isinstance(value, cls):
            return value
        try:
            return cls(value.lower())
        except (ValueError, AttributeError):  # a non-string has no lower()
            valid = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown modality {value!r}; expected one of: {valid}") from None


DEFAULT_MODALITIES = (Modality.TEXT, Modality.IMAGE)
"""The modality pair used throughout the paper's demonstration scenarios."""
