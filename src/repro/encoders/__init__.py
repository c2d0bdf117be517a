"""Vector-representation substrate: simulated multi-modal encoders.

Real MQA plugs in pretrained GPU models (LSTM, ResNet, CLIP).  Here each
encoder is a deterministic numpy function that recovers a noisy estimate of
the latent concept vector from rendered content — the renderer's public
projection parameters play the role of pretrained weights, while per-object
noise and dropped tokens keep the estimate imperfect.

Unimodal encoders project into *separate* output spaces (the situation the
Multi-streamed Retrieval framework must cope with); the simulated CLIP
encoder maps text and images into one *shared* space (what Joint Embedding
relies on).  MUST consumes either kind, one vector per modality.
"""

from repro.data.knowledge_base import KnowledgeBase
from repro.data.modality import Modality
from repro.encoders.base import Encoder, EncoderSet
from repro.encoders.audio import SpectralAudioEncoder
from repro.encoders.clip import SimulatedClipEncoder
from repro.encoders.image import PatchPoolingImageEncoder
from repro.encoders.text import BagOfTokensEncoder, SequenceTextEncoder
from repro.errors import ConfigurationError
from repro.utils import Registry

#: The paper's "seamless encoder integration, such as LSTM, ResNet, and
#: CLIP": a factory takes a knowledge base (its renderer parameters stand in
#: for pretrained weights) and a seed, and returns a fully-assigned
#: :class:`EncoderSet`.
ENCODER_SETS = Registry("encoder set")
register_encoder_set = ENCODER_SETS.register
available_encoder_sets = ENCODER_SETS.names


def build_encoder_set(name: str, kb: KnowledgeBase, seed: int = 0) -> EncoderSet:
    """Instantiate the encoder set called ``name`` for ``kb``."""
    factory, _ = ENCODER_SETS.lookup(name)
    return factory(kb, seed)


def _unimodal(kb: KnowledgeBase, seed: int, text: type, name: str) -> EncoderSet:
    """``text`` + patch image (+ audio), each in its own space."""
    encoders = {
        Modality.TEXT: text(kb.space, seed=seed),
        Modality.IMAGE: PatchPoolingImageEncoder(kb.render_model.image, seed=seed),
        Modality.AUDIO: SpectralAudioEncoder(kb.render_model.audio, seed=seed),
    }
    return EncoderSet({m: encoders[m] for m in kb.modalities}, name=name)


def _clip_joint(kb: KnowledgeBase, seed: int) -> EncoderSet:
    """One shared-space CLIP encoder for both text and image."""
    unsupported = [
        m for m in kb.modalities if m not in (Modality.TEXT, Modality.IMAGE)
    ]
    if unsupported:
        names = ", ".join(m.value for m in unsupported)
        raise ConfigurationError(f"sim-clip does not support modalities: {names}")
    clip = SimulatedClipEncoder(kb.render_model.image, seed=seed)
    assignment = {m: clip for m in kb.modalities}
    return EncoderSet(assignment, name="clip-joint")


register_encoder_set(
    "unimodal-strong", lambda kb, seed: _unimodal(kb, seed, SequenceTextEncoder, "unimodal-strong")
)
register_encoder_set(
    "unimodal-basic", lambda kb, seed: _unimodal(kb, seed, BagOfTokensEncoder, "unimodal-basic")
)
register_encoder_set("clip-joint", _clip_joint)

__all__ = [
    "BagOfTokensEncoder",
    "ENCODER_SETS",
    "Encoder",
    "EncoderSet",
    "PatchPoolingImageEncoder",
    "SequenceTextEncoder",
    "SimulatedClipEncoder",
    "SpectralAudioEncoder",
    "available_encoder_sets",
    "build_encoder_set",
    "register_encoder_set",
]
