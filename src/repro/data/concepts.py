"""The latent concept space underlying every synthetic knowledge base.

A :class:`ConceptSpace` assigns each named concept (e.g. ``"floral"``,
``"long-sleeved"``, ``"fog"``) a unit-norm latent vector.  Objects are born
as weighted bags of concepts; their ground-truth latent is the normalised
weighted sum of concept vectors.  Rendered modalities and queries all derive
from these latents, so similarity in latent space is the oracle the
evaluation harness measures retrieval against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import DataError
from repro.utils import derive_rng, l2_normalize
from repro.utils.replay import WordStream


@dataclass(frozen=True)
class Concept:
    """A named point in latent space.

    Attributes:
        name: Unique lower-case identifier, also used as a text token.
        category: Grouping label (e.g. ``"pattern"``, ``"weather"``) used by
            dataset generators to sample coherent objects.
        vector: Unit-norm latent vector of the space's dimensionality.
    """

    name: str
    category: str
    vector: np.ndarray = field(repr=False, compare=False)


class ConceptSpace:
    """A vocabulary of concepts embedded in a shared latent space.

    Args:
        vocabulary: Mapping from category name to the concept names in it.
        latent_dim: Dimensionality of the latent space.
        seed: Master seed; concept vectors are derived deterministically
            from ``(seed, category, name)`` so spaces are reproducible.
    """

    def __init__(
        self,
        vocabulary: Mapping[str, Sequence[str]],
        latent_dim: int = 64,
        seed: int = 0,
    ) -> None:
        if latent_dim <= 0:
            raise ValueError(f"latent_dim must be positive, got {latent_dim}")
        if not vocabulary:
            raise DataError("concept vocabulary must not be empty")
        self.latent_dim = latent_dim
        self.seed = seed
        self._concepts: Dict[str, Concept] = {}
        self._by_category: Dict[str, List[str]] = {}
        for category, names in vocabulary.items():
            if not names:
                raise DataError(f"category {category!r} has no concepts")
            for name in names:
                self._add(name, category)
        # One row per concept, in insertion order: what composing many bags
        # gathers from (the Concept objects keep their own vectors).
        self._matrix = np.stack([concept.vector for concept in self._concepts.values()])
        self._rows = {name: row for row, name in enumerate(self._concepts)}

    def _add(self, name: str, category: str) -> None:
        name = name.lower()
        if name in self._concepts:
            raise DataError(f"duplicate concept name: {name!r}")
        rng = derive_rng(self.seed, "concept", category, name)
        vector = l2_normalize(rng.standard_normal(self.latent_dim))
        self._concepts[name] = Concept(name=name, category=category, vector=vector)
        self._by_category.setdefault(category, []).append(name)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name.lower() in self._concepts

    def __len__(self) -> int:
        return len(self._concepts)

    def get(self, name: str) -> Concept:
        """Return the concept called ``name`` (case-insensitive)."""
        try:
            return self._concepts[name.lower()]
        except KeyError:
            raise DataError(f"unknown concept: {name!r}") from None

    @property
    def names(self) -> Tuple[str, ...]:
        """All concept names, in insertion order."""
        return tuple(self._concepts)

    @property
    def categories(self) -> Tuple[str, ...]:
        """All category names, in insertion order."""
        return tuple(self._by_category)

    def names_in_category(self, category: str) -> Tuple[str, ...]:
        """Concept names belonging to ``category``."""
        try:
            return tuple(self._by_category[category])
        except KeyError:
            raise DataError(f"unknown concept category: {category!r}") from None

    # ------------------------------------------------------------------
    # latent composition
    # ------------------------------------------------------------------
    def compose(
        self,
        concepts: Iterable[str],
        intensities: "Sequence[float] | None" = None,
    ) -> np.ndarray:
        """Build the unit-norm latent for a weighted bag of concepts.

        Args:
            concepts: Concept names (must exist in the space).
            intensities: Optional per-concept weights; defaults to all ones.

        Returns:
            A unit-norm latent vector of shape ``(latent_dim,)``.
        """
        return self.compose_many([concepts], [intensities])[0]

    def compose_many(
        self,
        bags: Sequence[Iterable[str]],
        intensities: "Sequence[Sequence[float] | None] | None" = None,
    ) -> np.ndarray:
        """Unit-norm latents for many weighted bags, one ``(latent_dim,)`` row
        per bag; ``intensities`` holds one entry per bag (``None`` for all
        ones) or is ``None``.

        Bags are grouped by size and each group is one batched vector-matrix
        product over rows of the concept matrix, which is every bag's own
        ``weights @ stacked`` to the bit (``np.einsum('nk,nkd->nd')`` sums in
        another order and is not).
        """
        if intensities is None:
            intensities = [None] * len(bags)
        if len(intensities) != len(bags):
            raise DataError(f"got {len(bags)} concept bags but {len(intensities)} intensities")
        groups: Dict[int, Tuple[List[int], List[List[int]], list]] = {}
        for position, (bag, given) in enumerate(zip(bags, intensities)):
            rows = [self._row(name) for name in bag]
            if not rows:
                raise DataError("cannot compose a latent from zero concepts")
            if given is None:
                weights = [1.0] * len(rows)
            else:
                weights = np.asarray(list(given), dtype=np.float64)
                if weights.shape != (len(rows),):
                    raise DataError(
                        f"got {len(rows)} concepts but {weights.size} intensities"
                    )
                if (weights < 0).any():
                    raise DataError("concept intensities must be non-negative")
            group = groups.setdefault(len(rows), ([], [], []))
            group[0].append(position)
            group[1].append(rows)
            group[2].append(weights)
        summed = [
            (positions, np.matmul(np.array(weights)[:, None], self._matrix[rows])[:, 0])
            for positions, rows, weights in groups.values()
        ]
        if len(summed) == 1:
            latents = summed[0][1]  # every bag is in the one group, in order
        else:
            latents = np.empty((len(bags), self.latent_dim))
            for positions, rows in summed:
                latents[positions] = rows
        return l2_normalize(latents)

    def _row(self, name: str) -> int:
        try:
            return self._rows[name.lower()]
        except KeyError:
            raise DataError(f"unknown concept: {name!r}") from None

    def known_tokens(self, tokens: Iterable[str]) -> List[str]:
        """Filter ``tokens`` down to those that are concept names."""
        return [token for token in (t.lower() for t in tokens) if token in self._concepts]

    def sample_object_concepts(
        self,
        rng: "np.random.Generator | WordStream",
        min_concepts: int = 2,
        max_concepts: int = 4,
    ) -> List[str]:
        """Sample a coherent concept bag: at most one concept per category.

        Drawing each concept from a distinct category mimics real objects
        (a coat has one material, one colour, one pattern) and keeps the
        synthetic retrieval problem well-posed; a drawn count above the
        number of categories is capped to it (:func:`~repro.data.datasets.
        generate_knowledge_base` refuses such bounds).  The draws are
        ``integers`` and ``choice`` calls, which a :class:`~repro.utils.
        replay.WordStream` replays.
        """
        if min_concepts < 1 or max_concepts < min_concepts:
            raise ValueError("need 1 <= min_concepts <= max_concepts")
        count = int(rng.integers(min_concepts, max_concepts + 1))
        count = min(count, len(self._by_category))
        categories = list(self._by_category)
        chosen = rng.choice(len(categories), size=count, replace=False)
        picked: List[str] = []
        for idx in chosen:
            names = self._by_category[categories[int(idx)]]
            picked.append(names[int(rng.integers(len(names)))])
        return picked
