"""Encoder abstractions shared by all modalities."""

from __future__ import annotations

import abc
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.data.modality import Modality
from repro.data.objects import MultiModalObject, RawQuery
from repro.errors import EncodingError, MQAError
from repro.observability.tracing import trace_span
from repro.utils import row_blocks


def numeric_content(modality: Modality, content: Any) -> np.ndarray:
    """Raw ``content`` of ``modality`` as a float64 array.

    The one place raw image or audio content becomes numbers: content that
    is not numeric (a string, a mapping) is an :class:`EncodingError`
    naming the modality, never a builtin ``ValueError`` / ``TypeError``.
    """
    try:
        return np.asarray(content, dtype=np.float64)
    except (TypeError, ValueError):
        raise EncodingError(
            f"{modality.value} content must be numeric, got {type(content).__name__}"
        ) from None


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

    def encode(self, modality: Modality, content: Any) -> np.ndarray:
        """Encode ``content`` of ``modality`` into a unit-norm vector: a block
        of one row."""
        return self._encode_rows(self._require_support(modality), [content])[0]

    def encode_batch(
        self,
        modality: Modality,
        contents: Sequence[Any],
        out: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Encode many contents of one modality into an ``(n, d)`` matrix.

        The rows are encoded a block at a time (:func:`repro.utils.
        row_blocks` over :meth:`row_bytes`) into one preallocated output —
        ``out`` when given (any ``(n, d)`` float64 view, such as a column
        slice of :meth:`EncoderSet.encode_corpus`'s matrix), which is filled
        and returned — so a corpus-sized encode holds one block of stacked
        content beside its result, never the whole corpus's.  A block is
        :meth:`_encode_rows`, the one body each encoder has; :meth:`encode`
        is that body over a block of one row.  Blocks start at multiples of
        64 rows and only a lone one holds fewer than 64, which keeps the
        GEMMs' per-row bits the one-call bits.  A row of a larger block may
        differ from its one-row encode in the last ulp (GEMM accumulation
        order), which set-up takes (corpus encoding, the weight learner's
        views) and queries do not: they are never blocked together
        (:meth:`EncoderSet.encode_query_batch`).
        """
        modality = self._require_support(modality)
        shape = (len(contents), self.output_dim)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape or out.dtype != np.float64:
            raise EncodingError(
                f"encode_batch out is {out.dtype}{out.shape}, expected float64{shape}"
            )
        for rows in row_blocks(len(contents), self.row_bytes(modality)):
            out[rows] = self._encode_rows(modality, contents[rows])
        return out

    def row_bytes(self, modality: Modality) -> int:
        """Bytes per row of the widest array a block of :meth:`encode_batch`
        holds for ``modality`` — by default an output row; encoders that
        stack raw content or latents count those."""
        return 8 * self.output_dim

    @abc.abstractmethod
    def _encode_rows(self, modality: Modality, contents: Sequence[Any]) -> np.ndarray:
        """Encode a block of contents (``modality`` already parsed) into an
        ``(n, d)`` matrix of unit-norm rows."""

    def _numeric_rows(
        self, modality: Modality, contents: Sequence[Any], width: int
    ) -> np.ndarray:
        """Raw numeric ``contents`` as one ``(n, width)`` float64 block,
        refusing content that is not ``width`` numbers."""
        rows = np.empty((len(contents), width))
        for position, content in enumerate(contents):
            values = numeric_content(modality, content)
            if values.size != width:
                raise EncodingError(
                    f"{self.name} expects {width} {modality.value} values, "
                    f"got {values.size}"
                )
            rows[position] = values.reshape(-1)
        return rows

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
        """Encode every assigned modality of ``obj``: :meth:`encode_corpus`
        of one object, so each vector is its encoder's block of one row.

        Raises :class:`EncodingError` if the object lacks a modality the set
        expects — every indexed object must supply all configured modalities.
        """
        corpus = self.encode_corpus([obj])
        return {modality: corpus[modality][0] for modality in corpus}

    def encode_query_batch(
        self, queries: Sequence["RawQuery | EncodedQuery"], guard: "Callable | None" = None
    ) -> List["EncodedQuery"]:
        """Encode many queries: element ``i`` is ``queries[i]`` as an
        :class:`EncodedQuery`, which passes through unchanged — the one place
        a query is encoded, under the one ``encode`` span.

        Content that is not numbers or holds a NaN or an infinity is refused
        before its encoder runs.  Each query is its encoders' block of one
        row, never blocked with the others: a row's bits may depend on the
        rows beside it.  Without ``guard`` a refusal raises
        :class:`EncodingError`; with one, ``guard(modality, encode)`` runs
        each encoder call and a modality that raises :class:`MQAError` is
        left out, named in :attr:`EncodedQuery.dropped`.
        """
        encoded = list(queries)
        raw = [i for i, query in enumerate(encoded) if not isinstance(query, EncodedQuery)]
        if raw:
            with trace_span("encode", queries=len(raw)):
                for i in raw:
                    encoded[i] = self._encode_query(encoded[i], guard)
        return encoded

    def _encode_query(self, query: RawQuery, guard: "Callable | None") -> "EncodedQuery":
        carried: Dict[Modality, np.ndarray] = {}
        dropped: Dict[Modality, MQAError] = {}
        for modality, encoder in self._assignment.items():
            if not query.has(modality):
                continue
            try:
                content = query.get(modality)
                if modality is not Modality.TEXT and not np.isfinite(
                    numeric_content(modality, content)
                ).all():
                    raise EncodingError(f"query {modality.value} holds a NaN or an infinity")
                carried[modality] = (
                    encoder.encode(modality, content) if guard is None
                    else guard(modality, partial(encoder.encode, modality, content))
                )
            except MQAError as exc:
                if guard is None:
                    raise
                dropped[modality] = exc
        if not carried and guard is None:
            expected = ", ".join(m.value for m in self._assignment)
            raise EncodingError(f"query carries none of the configured modalities ({expected})")
        if dropped and carried:
            query = RawQuery(
                {m: c for m, c in query.content.items() if m not in dropped}, dict(query.metadata)
            )
        encoded = EncodedQuery(query, carried, dropped)
        if self.is_joint and carried:
            donor = next(iter(carried.values()))
            for modality in self._assignment:
                encoded.setdefault(modality, donor)
        return encoded

    def encode_corpus(self, objects: Sequence[MultiModalObject]) -> "EncodedCorpus":
        """Encode a corpus into one :class:`EncodedCorpus` (row i = object i).

        One ``(n, Σd)`` matrix is allocated in :meth:`dims` order — the
        order of ``MultiVectorSchema(encoder_set.dims())`` — and each
        modality's :meth:`Encoder.encode_batch` call fills its column slice
        block by block, so an encoder pays a matrix multiply per block of
        rows, and the encode holds the matrix and one block of stacked
        content.
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
        dims = self.dims()
        corpus = EncodedCorpus(np.empty((len(objects), sum(dims.values()))), dims)
        for modality, encoder in self._assignment.items():
            encoder.encode_batch(
                modality, [obj.get(modality) for obj in objects], out=corpus[modality]
            )
        return corpus

    def describe(self) -> str:
        """Status-panel summary: encoder and dimension per modality."""
        parts = [
            f"{m.value}:{e.name}(d={e.output_dim})" for m, e in self._assignment.items()
        ]
        kind = "joint" if self.is_joint else "unimodal"
        return f"encoder set {self.name!r} [{kind}] " + ", ".join(parts)


class EncodedQuery(dict):
    """A query with its vectors: what :meth:`EncoderSet.encode_query_batch`
    returns, and hands back unchanged.

    Is the mapping modality -> unit-norm vector that MUST and MR search
    with: each carried modality and, for a joint encoder set, every missing
    one filled with a carried vector (CLIP's text-to-image property).
    :attr:`carried` holds the carried modalities' vectors alone (JE fuses
    those, the semantic cache signs them), :attr:`dropped` the modalities a
    guarded encode left out, with their errors; :attr:`query` is the raw
    query without them, and :attr:`content` and :attr:`metadata` are its
    own, so a reader of either takes both forms alike.
    """

    def __init__(
        self,
        query: RawQuery,
        carried: Dict[Modality, np.ndarray],
        dropped: Dict[Modality, MQAError],
    ) -> None:
        super().__init__(carried)
        self.query, self.carried, self.dropped = query, carried, dropped

    @property
    def content(self) -> Dict[Modality, Any]:
        return self.query.content

    @property
    def metadata(self) -> Dict[str, Any]:
        return self.query.metadata


class EncodedCorpus(Mapping):
    """An encoded corpus: one ``(n, Σd)`` float64 :attr:`matrix` holding
    each object's modality vectors side by side in ``dims`` order (row i =
    object i), read per modality as a read-only mapping of column views.

    MUST builds its unified index over :attr:`matrix` itself, MR indexes
    the views, and the weight learner reads its anchors from them, so a
    set-up holds its encoded corpus once.  Nobody writes it: an index that
    keeps it as its rows copies them on its first ``add``.
    """

    def __init__(self, matrix: np.ndarray, dims: Mapping[Modality, int]) -> None:
        self.matrix = matrix
        self._dims = dict(dims)
        self._views: Dict[Modality, np.ndarray] = {}
        start = 0
        for modality, dim in self._dims.items():
            self._views[modality] = matrix[:, start:start + dim]
            start += dim

    def __getitem__(self, modality: Modality) -> np.ndarray:
        return self._views[modality]

    def __iter__(self) -> Iterator[Modality]:
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def take(self, rows: Sequence[int]) -> "EncodedCorpus":
        """The corpus of ``rows`` (in that order): one gather of the matrix."""
        return EncodedCorpus(self.matrix[rows], self._dims)
