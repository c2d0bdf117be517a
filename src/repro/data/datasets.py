"""Domain-specific synthetic dataset generators.

Each domain mirrors a scenario from the paper's figures:

* ``fashion`` — Figure 1 ("long-sleeved top for older women", "floral pattern").
* ``scenes`` — Figure 5 ("foggy clouds").
* ``food`` — Figure 4(a) ("moldy cheese ... similar degree of mold").
* ``products`` — Figure 4(b) ("coats made of similar material").
* ``movies`` — the data-preprocessing example (film + poster + synopsis).

Domains differ only in their concept vocabularies; the generative machinery
is shared, so every domain gets exact ground truth for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.data.concepts import ConceptSpace
from repro.data.knowledge_base import KnowledgeBase
from repro.data.modality import DEFAULT_MODALITIES, Modality
from repro.data.rendering import AudioSpec, ImageSpec, RenderModel
from repro.errors import DataError
from repro.utils import check_fields, check_integer, param

DOMAINS: Dict[str, Mapping[str, Tuple[str, ...]]] = {
    "fashion": {
        "garment": ("top", "dress", "coat", "skirt", "trousers", "blouse", "jacket"),
        "sleeve": ("long-sleeved", "short-sleeved", "sleeveless"),
        "pattern": ("floral", "striped", "plain", "checked", "polka-dot"),
        "color": ("red", "blue", "black", "white", "green", "beige"),
        "material": ("cotton", "wool", "silk", "leather", "linen", "denim"),
        "audience": ("women", "men", "older", "younger", "children"),
    },
    "scenes": {
        "weather": ("foggy", "sunny", "stormy", "snowy", "rainy", "misty"),
        "sky": ("clouds", "clear-sky", "sunset", "stars", "rainbow"),
        "landscape": ("mountains", "forest", "ocean", "desert", "valley", "lake"),
        "time": ("dawn", "noon", "dusk", "night"),
        "mood": ("serene", "dramatic", "gloomy", "vivid"),
    },
    "food": {
        "item": ("cheese", "bread", "wine", "ham", "olives", "grapes"),
        "condition": ("moldy", "fresh", "aged", "ripe", "dried", "smoked"),
        "intensity": ("lightly", "moderately", "heavily"),
        "texture": ("soft", "hard", "creamy", "crumbly"),
        "origin": ("french", "italian", "swiss", "spanish", "dutch"),
    },
    "products": {
        "item": ("coat", "bag", "shoes", "scarf", "hat", "gloves", "belt"),
        "material": ("leather", "wool", "suede", "canvas", "fur", "nylon", "tweed"),
        "finish": ("matte", "glossy", "textured", "quilted", "brushed"),
        "color": ("brown", "black", "tan", "navy", "grey", "burgundy"),
        "style": ("classic", "modern", "vintage", "sporty"),
    },
    "movies": {
        "genre": ("thriller", "comedy", "drama", "sci-fi", "romance", "horror", "western"),
        "era": ("silent-era", "golden-age", "modern", "contemporary"),
        "tone": ("dark", "lighthearted", "epic", "intimate", "surreal"),
        "setting": ("urban", "rural", "space", "historical", "underwater"),
        "award": ("acclaimed", "cult", "blockbuster", "independent"),
    },
    "travel": {
        "place": ("beach", "city", "temple", "market", "harbor", "castle", "vineyard"),
        "region": ("mediterranean", "alpine", "tropical", "nordic", "coastal"),
        "season": ("spring", "summer", "autumn", "winter"),
        "activity": ("hiking", "diving", "sightseeing", "dining", "skiing"),
        "vibe": ("crowded", "quiet", "romantic", "adventurous"),
    },
}
"""Concept vocabularies keyed by domain name."""


@dataclass(frozen=True)
class DatasetSpec:
    """Parameters controlling knowledge-base generation.

    Attributes:
        domain: One of the keys of :data:`DOMAINS`.
        size: Number of objects to generate.
        seed: Master seed for the concept space, renderers, and sampling.
        latent_dim: Latent dimensionality of the concept space.
        modalities: Modalities each object carries.
        text_drop_probability: Chance that a concept is omitted from an
            object's description (text incompleteness).
        image_noise_sigma: Pixel noise level of the image modality.
        audio_noise_sigma: Frame noise level of the audio modality.
        min_concepts / max_concepts: Concept-bag size range per object.
    """

    domain: str = "fashion"
    size: int = param(500, ge=1)
    seed: int = 7
    latent_dim: int = param(64, ge=1)
    modalities: Tuple[Modality, ...] = DEFAULT_MODALITIES
    text_drop_probability: float = param(0.15, ge=0, lt=1)
    image_noise_sigma: float = param(0.05, ge=0)
    audio_noise_sigma: float = param(0.1, ge=0)
    min_concepts: int = param(2, ge=1)
    max_concepts: int = 4

    def __post_init__(self) -> None:
        """Check every field (``domain`` only as a string: the generator and
        the configuration check it against :data:`DOMAINS`) and raise
        DataError; ``modalities`` may be names and is stored as a tuple of
        :class:`Modality`."""
        check_fields(self, DataError)
        check_integer("max_concepts", self.max_concepts, self.min_concepts, DataError)
        modalities = self.modalities
        if isinstance(modalities, str) or not isinstance(modalities, (list, tuple)):
            modalities = ()
        if not modalities:
            raise DataError(
                "modalities must be a non-empty list of modality names, "
                f"got {self.modalities!r}"
            )
        try:
            object.__setattr__(self, "modalities", tuple(Modality.parse(m) for m in modalities))
        except ValueError as exc:
            raise DataError(str(exc)) from None


def domain_vocabulary(spec: DatasetSpec) -> Mapping[str, Tuple[str, ...]]:
    """The concept vocabulary of ``spec.domain``; raises DataError when the
    domain is unknown or has fewer categories than ``spec.max_concepts``
    (a bag holds at most one concept per category)."""
    if spec.domain not in DOMAINS:
        valid = ", ".join(sorted(DOMAINS))
        raise DataError(f"unknown domain {spec.domain!r}; expected one of: {valid}")
    vocabulary = DOMAINS[spec.domain]
    if spec.max_concepts > len(vocabulary):
        raise DataError(
            f"max_concepts must be <= {len(vocabulary)}, the number of concept "
            f"categories of domain {spec.domain!r}, got {spec.max_concepts}"
        )
    return vocabulary


def generate_knowledge_base(spec: DatasetSpec = DatasetSpec()) -> KnowledgeBase:
    """Generate a knowledge base according to ``spec``.

    Sampling is deterministic in ``spec.seed``: the same spec always yields
    byte-identical content across processes.  Object ``i``'s bag and its
    intensities are drawn under the key ``i`` of the ``("dataset",
    spec.domain)`` scope (:meth:`~repro.data.concepts.ConceptSpace.
    sample_bags`), so they do not depend on the objects before it.
    """
    space = ConceptSpace(
        domain_vocabulary(spec), latent_dim=spec.latent_dim, seed=spec.seed
    )
    render_model = RenderModel(
        space,
        seed=spec.seed,
        text_drop_probability=spec.text_drop_probability,
        image_spec=ImageSpec(noise_sigma=spec.image_noise_sigma),
        audio_spec=AudioSpec(noise_sigma=spec.audio_noise_sigma),
    )
    kb = KnowledgeBase(
        name=spec.domain,
        space=space,
        render_model=render_model,
        modalities=spec.modalities,
    )
    bags, intensities = space.sample_bags(
        spec.seed, ("dataset", spec.domain), range(spec.size),
        min_concepts=spec.min_concepts, max_concepts=spec.max_concepts,
    )
    kb.create_objects(bags, intensities)
    return kb
