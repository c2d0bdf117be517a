"""Encoder abstractions shared by all modalities."""

from __future__ import annotations

import abc
from typing import Any, Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.data.modality import Modality
from repro.data.objects import MultiModalObject, RawQuery
from repro.errors import EncodingError


class Encoder(abc.ABC):
    """Encodes raw content of one or more modalities into vectors.

    Concrete encoders are pure functions of their content argument: encoding
    the same content twice yields the same vector, which is what makes index
    construction and queries consistent.
    """

    #: Human-readable identifier shown by the status panel.
    name: str = "encoder"

    @property
    @abc.abstractmethod
    def output_dim(self) -> int:
        """Dimensionality of produced vectors."""

    @property
    @abc.abstractmethod
    def modalities(self) -> Tuple[Modality, ...]:
        """Modalities this encoder accepts."""

    @abc.abstractmethod
    def encode(self, modality: Modality, content: Any) -> np.ndarray:
        """Encode ``content`` of ``modality`` into a unit-norm vector."""

    def encode_batch(self, modality: Modality, contents: Sequence[Any]) -> np.ndarray:
        """Encode many contents of one modality into an ``(n, d)`` matrix.

        The default loops over :meth:`encode`; encoders whose pipeline is a
        linear map override it with one matrix multiply over the whole
        batch.  Batched vectors may differ from the looped ones at the
        last-ulp level (gemm accumulation order), which is why only set-up
        uses this path: corpus encoding, and the weight learner's augmented
        views (one entry per modality per training step — its distances are
        averaged into a gradient, so an ulp is noise there).  Query encoding
        stays per-query: a query's vectors must be the same floats whether
        it arrives alone or in a batch, so that batched retrieval matches
        serial retrieval bit-for-bit.
        """
        return np.stack([self.encode(modality, content) for content in contents])

    def supports(self, modality: Modality) -> bool:
        """True if this encoder accepts ``modality``."""
        return Modality.parse(modality) in self.modalities

    def _require_support(self, modality: Modality) -> Modality:
        modality = Modality.parse(modality)
        if modality not in self.modalities:
            supported = ", ".join(m.value for m in self.modalities)
            raise EncodingError(
                f"encoder {self.name!r} cannot encode {modality.value!r} "
                f"(supports: {supported})"
            )
        return modality


class EncoderSet:
    """A complete modality -> encoder assignment for one knowledge base.

    This is what the configuration panel's "embedding" section selects.  A
    set is *joint* when every modality is served by the same shared-space
    encoder (CLIP-style), which is the prerequisite for the Joint Embedding
    retrieval framework.
    """

    def __init__(self, assignment: Mapping[Modality, Encoder], name: str = "custom") -> None:
        if not assignment:
            raise EncodingError("encoder set needs at least one modality")
        self.name = name
        self._assignment: Dict[Modality, Encoder] = {}
        for modality, encoder in assignment.items():
            modality = Modality.parse(modality)
            if not encoder.supports(modality):
                raise EncodingError(
                    f"encoder {encoder.name!r} assigned to {modality.value!r} "
                    "but does not support it"
                )
            self._assignment[modality] = encoder

    @property
    def modalities(self) -> Tuple[Modality, ...]:
        """Modalities this set can encode, in assignment order."""
        return tuple(self._assignment)

    def encoder_for(self, modality: Modality) -> Encoder:
        """Return the encoder assigned to ``modality``."""
        modality = Modality.parse(modality)
        try:
            return self._assignment[modality]
        except KeyError:
            raise EncodingError(f"no encoder assigned for modality {modality.value!r}") from None

    def dims(self) -> Dict[Modality, int]:
        """Output dimensionality per modality."""
        return {m: e.output_dim for m, e in self._assignment.items()}

    @property
    def is_joint(self) -> bool:
        """True when one shared-space encoder serves every modality."""
        encoders = {id(e) for e in self._assignment.values()}
        return len(encoders) == 1 and len(self._assignment) > 1

    # ------------------------------------------------------------------
    # encoding objects and queries
    # ------------------------------------------------------------------
    def encode_object(self, obj: MultiModalObject) -> Dict[Modality, np.ndarray]:
        """Encode every assigned modality of ``obj``.

        Raises :class:`EncodingError` if the object lacks a modality the set
        expects — every indexed object must supply all configured modalities.
        """
        vectors: Dict[Modality, np.ndarray] = {}
        for modality, encoder in self._assignment.items():
            if not obj.has(modality):
                raise EncodingError(
                    f"object {obj.object_id} lacks modality {modality.value!r} "
                    f"required by encoder set {self.name!r}"
                )
            vectors[modality] = encoder.encode(modality, obj.get(modality))
        return vectors

    def encode_query(self, query: RawQuery) -> Dict[Modality, np.ndarray]:
        """Encode the modalities the query actually carries.

        Unlike objects, queries may be partial (text-only); missing
        modalities are simply absent from the result.
        """
        vectors: Dict[Modality, np.ndarray] = {}
        for modality, encoder in self._assignment.items():
            if query.has(modality):
                vectors[modality] = encoder.encode(modality, query.get(modality))
        if not vectors:
            expected = ", ".join(m.value for m in self._assignment)
            raise EncodingError(
                f"query carries none of the configured modalities ({expected})"
            )
        return vectors

    def encode_query_full(self, query: RawQuery) -> Dict[Modality, np.ndarray]:
        """Encode a query with cross-modal fill for missing modalities.

        With a joint encoder set (one shared-space encoder for every
        modality), content of one modality embeds meaningfully into any
        segment — CLIP's text-to-image property — so a text-only query
        fills its image segment with the text embedding instead of zeros.
        Unimodal sets cannot do this; missing modalities stay absent.
        """
        vectors = self.encode_query(query)
        if not self.is_joint:
            return vectors
        missing = [m for m in self._assignment if m not in vectors]
        if not missing or not vectors:
            return vectors
        donor = next(iter(vectors.values()))
        for modality in missing:
            vectors[modality] = donor.copy()
        return vectors

    def encode_query_batch(self, queries: Sequence[RawQuery]) -> list:
        """Encode many queries; element ``i`` is ``encode_query_full(queries[i])``.

        Deliberately per-query underneath: the batched retrieval path
        promises results id-identical to serial retrieval, so query vectors
        must be the exact same floats either way.  Encoding is a handful of
        gemv calls per query — batching it would change bits for a
        negligible saving next to the search itself.
        """
        return [self.encode_query_full(query) for query in queries]

    def encode_corpus(self, objects: Sequence[MultiModalObject]) -> Dict[Modality, np.ndarray]:
        """Encode a corpus into per-modality matrices (row i = object i).

        Each modality's column is produced by one :meth:`Encoder.encode_batch`
        call, so encoders with a vectorised override pay one matrix multiply
        per modality instead of a Python loop over objects.
        """
        if not objects:
            raise EncodingError("cannot encode an empty corpus")
        for obj in objects:
            for modality in self._assignment:
                if not obj.has(modality):
                    raise EncodingError(
                        f"object {obj.object_id} lacks modality {modality.value!r} "
                        f"required by encoder set {self.name!r}"
                    )
        return {
            modality: encoder.encode_batch(
                modality, [obj.get(modality) for obj in objects]
            )
            for modality, encoder in self._assignment.items()
        }

    def describe(self) -> str:
        """Status-panel summary: encoder and dimension per modality."""
        parts = [
            f"{m.value}:{e.name}(d={e.output_dim})" for m, e in self._assignment.items()
        ]
        kind = "joint" if self.is_joint else "unimodal"
        return f"encoder set {self.name!r} [{kind}] " + ", ".join(parts)
