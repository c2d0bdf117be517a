"""Knowledge base: object store + concept world + exact ground truth.

This is the unit the configuration panel lets users pick ("domain-specific
knowledge bases").  Besides holding the objects, it knows the generative
world they came from, which is what lets the evaluation harness compute the
exact top-k answer to any concept-level query.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.data.concepts import ConceptSpace
from repro.data.modality import Modality
from repro.data.objects import MultiModalObject
from repro.data.rendering import RenderModel
from repro.data.store import ObjectStore
from repro.errors import DataError


class KnowledgeBase:
    """A named multi-modal knowledge base.

    Args:
        name: Human-readable identifier (e.g. ``"fashion"``).
        space: The concept space objects were generated from.
        render_model: The renderers that produced (and can decode) content.
        store: The object collection; may start empty and be filled later.
        modalities: Modalities every object carries.
    """

    def __init__(
        self,
        name: str,
        space: ConceptSpace,
        render_model: RenderModel,
        store: Optional[ObjectStore] = None,
        modalities: Sequence[Modality] = (Modality.TEXT, Modality.IMAGE),
    ) -> None:
        if not name:
            raise DataError("knowledge base needs a non-empty name")
        self.name = name
        self.space = space
        self.render_model = render_model
        self.store = store if store is not None else ObjectStore()
        self.modalities = tuple(Modality.parse(m) for m in modalities)
        if not self.modalities:
            raise DataError("knowledge base needs at least one modality")

    def __len__(self) -> int:
        return len(self.store)

    def __iter__(self):
        return iter(self.store)

    def get(self, object_id: int) -> MultiModalObject:
        """Return the object with ``object_id``."""
        return self.store.get(object_id)

    # ------------------------------------------------------------------
    # object creation
    # ------------------------------------------------------------------
    def create_object(
        self,
        concepts: Sequence[str],
        intensities: "Sequence[float] | None" = None,
        metadata: "dict | None" = None,
    ) -> MultiModalObject:
        """Render and store a new object for ``concepts``.

        The object's content is rendered for every modality the knowledge
        base carries, using the next dense id as the per-object noise seed.
        """
        return self.create_objects([concepts], [intensities], [metadata])[0]

    def create_objects(
        self,
        bags: Sequence[Sequence[str]],
        intensities: "Sequence[Sequence[float] | None] | None" = None,
        metadata: "Sequence[dict | None] | None" = None,
    ) -> List[MultiModalObject]:
        """Render and store one new object per concept bag, in order.

        ``intensities`` and ``metadata`` are ``None`` or hold one entry per
        bag.  Every object is byte-identical to what :meth:`create_object`
        would have made at its id: latents are composed, and each modality
        rendered, for the whole batch at once.
        """
        if metadata is None:
            metadata = [None] * len(bags)
        if len(metadata) != len(bags):
            raise DataError(f"got {len(bags)} concept bags but {len(metadata)} metadata")
        latents = self.space.compose_many(bags, intensities)
        first = len(self.store)
        columns = self._render(bags, latents, range(first, first + len(bags)))
        modalities, add = self.modalities, self.store.add
        return [
            add(
                content=dict(zip(modalities, content)),
                concepts=tuple([c.lower() for c in concepts]),
                latent=latent,
                metadata=meta,
            )
            for concepts, latent, meta, *content in zip(bags, latents, metadata, *columns)
        ]

    def discard_object(self, object_id: int) -> None:
        """Roll back the most recent :meth:`create_object`.

        Used by the coordinator when the index insertion of a freshly
        created object fails: the store must not keep an object the index
        will never surface.  Only the newest object can be discarded.
        """
        self.store.discard_last(object_id)

    def render_view(self, object_id: int, view_seed: int) -> dict:
        """Re-render an existing object's content with fresh noise.

        Returns a modality -> content mapping for an *augmented view* of the
        object: same concepts and latent, different dropped tokens, pixel
        noise, and frame noise.  The contrastive weight learner uses pairs
        of views as positives, so it never touches the hidden latent.
        """
        return self.render_views([object_id], [view_seed])[0]

    def render_views(
        self, object_ids: Sequence[int], view_seeds: Sequence[int]
    ) -> List[dict]:
        """:meth:`render_view` for each ``(object_ids[i], view_seeds[i])``,
        every modality rendered for the whole batch at once."""
        if len(view_seeds) != len(object_ids):
            raise DataError(f"got {len(object_ids)} objects but {len(view_seeds)} view seeds")
        objects = [self.store.get(object_id) for object_id in object_ids]
        latents = np.array([obj.latent for obj in objects]).reshape(
            len(objects), self.space.latent_dim
        )
        columns = self._render(
            [list(obj.concepts) for obj in objects],
            latents,
            [("view", object_id, seed) for object_id, seed in zip(object_ids, view_seeds)],
        )
        return [dict(zip(self.modalities, item)) for item in zip(*columns)]

    def _render(
        self, bags: List[List[str]], latents: np.ndarray, noise_keys: Sequence[object]
    ) -> list:
        """One column per modality of :attr:`modalities`, in that order: item
        ``i`` of a column is ``bags[i]`` / ``latents[i]`` rendered under
        ``noise_keys[i]`` by that modality's renderer."""
        model, columns = self.render_model, []
        for modality in self.modalities:
            if modality is Modality.TEXT:
                columns.append(model.text.render_many(bags, noise_keys))
            elif modality is Modality.IMAGE:
                columns.append(model.image.render_many(latents, noise_keys))
            elif modality is Modality.AUDIO:
                columns.append(model.audio.render_many(latents, noise_keys))
            else:  # pragma: no cover - enum is closed
                raise DataError(f"no renderer for modality {modality!r}")
        return columns

    # ------------------------------------------------------------------
    # oracle ground truth (evaluation only)
    # ------------------------------------------------------------------
    def latent_matrix(self) -> np.ndarray:
        """Stack all ground-truth latents into an (n, latent_dim) matrix."""
        if len(self.store) == 0:
            raise DataError(f"knowledge base {self.name!r} is empty")
        return np.stack([obj.latent for obj in self.store])

    def ground_truth_neighbors(
        self,
        target_latent: np.ndarray,
        k: int,
        exclude: Iterable[int] = (),
    ) -> List[int]:
        """Exact top-``k`` object ids by cosine similarity to a latent.

        This is the oracle the paper's accuracy comparisons are scored
        against.  ``exclude`` removes ids (e.g. the reference image's own
        object) from consideration.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        latents = self.latent_matrix()
        target = np.asarray(target_latent, dtype=np.float64)
        scores = latents @ target / max(np.linalg.norm(target), 1e-12)
        for object_id in exclude:
            if 0 <= object_id < scores.size:
                scores[object_id] = -np.inf
        k = min(k, scores.size)
        top = np.argpartition(-scores, k - 1)[:k]
        return [int(i) for i in top[np.argsort(-scores[top])]]

    def ground_truth_for_concepts(
        self,
        concepts: Sequence[str],
        k: int,
        exclude: Iterable[int] = (),
    ) -> List[int]:
        """Exact top-``k`` ids for a concept-level query."""
        return self.ground_truth_neighbors(self.space.compose(concepts), k, exclude)

    def describe(self) -> str:
        """One-line summary used by the status-monitoring panel."""
        mods = "+".join(m.value for m in self.modalities)
        return (
            f"knowledge base {self.name!r}: {len(self.store)} objects, "
            f"modalities [{mods}], {len(self.space)} concepts, "
            f"latent dim {self.space.latent_dim}"
        )
