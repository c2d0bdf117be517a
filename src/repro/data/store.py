"""The object collection underlying a knowledge base.

The paper's data-preprocessing component stores multi-modal data "as an
object collection with unique IDs for indexing"; :class:`ObjectStore` is that
collection.  Ids are dense integers assigned at insertion, which lets vector
indexes address objects by row number.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.data.modality import Modality
from repro.data.objects import MultiModalObject
from repro.errors import DataError, UnknownObjectError
from repro.utils import object_id_of


class ObjectStore:
    """An append-only collection of :class:`MultiModalObject` with dense ids."""

    def __init__(self) -> None:
        self._objects: List[MultiModalObject] = []

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[MultiModalObject]:
        return iter(self._objects)

    def __contains__(self, object_id: int) -> bool:
        return 0 <= object_id < len(self._objects)

    def add(
        self,
        content: Dict[Modality, Any],
        concepts: Tuple[str, ...] = (),
        latent: Optional[Any] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> MultiModalObject:
        """Create an object from ``content`` and assign it the next id."""
        obj = MultiModalObject(
            object_id=len(self._objects),
            content=content,
            concepts=tuple(concepts),
            latent=latent,
            metadata=dict(metadata or {}),
        )
        self._objects.append(obj)
        return obj

    def add_object(self, obj: MultiModalObject) -> None:
        """Append a pre-built object; its id must equal the next dense id."""
        expected = len(self._objects)
        if obj.object_id != expected:
            raise DataError(
                f"object id {obj.object_id} breaks dense id assignment "
                f"(expected {expected})"
            )
        self._objects.append(obj)

    def get(self, object_id: int) -> MultiModalObject:
        """Return the object with ``object_id`` (any integer but a ``bool``)
        or raise UnknownObjectError."""
        try:
            index = object_id_of(object_id)
        except ValueError:
            raise UnknownObjectError(object_id) from None
        if index not in self:
            raise UnknownObjectError(object_id)
        return self._objects[index]

    def discard_last(self, object_id: int) -> None:
        """Roll back the most recent add.

        Only the newest object may be discarded — dense ids must stay
        dense — so ``object_id`` is required and checked to make the
        caller's rollback intent explicit.
        """
        if not self._objects or self._objects[-1].object_id != object_id:
            raise DataError(
                f"cannot discard object {object_id}: it is not the most "
                "recently added object"
            )
        self._objects.pop()

    def ids(self) -> range:
        """All assigned ids, in order."""
        return range(len(self._objects))

    def modalities(self) -> Tuple[Modality, ...]:
        """The modalities carried by every object in the store.

        Returns the intersection across objects, preserving the first
        object's ordering; empty store yields an empty tuple.
        """
        if not self._objects:
            return ()
        common = set(self._objects[0].modalities)
        for obj in self._objects[1:]:
            common &= set(obj.modalities)
        return tuple(m for m in self._objects[0].modalities if m in common)
