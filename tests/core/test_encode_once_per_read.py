"""A read is encoded once: one row through ``_encode_rows`` (a query is its
encoders' block of one row) per query modality per round, whichever layers
are on.

The first layer that needs a query's vectors encodes it — the
``degrade-modalities`` stage under ``resilience``, else query execution
after its exact-cache lookup — and the vectors travel with the query to the
semantic cache, the planner's round, the shard router and every shard.  An
exact-cache hit encodes nothing when no earlier stage needs the vectors.
"""

from collections import Counter

import pytest

from repro.core import MQASystem
from repro.data import Modality, RawQuery
from repro.encoders import Encoder

from tests.core.conftest import fast_config

CONFIGS = {
    "default": {},
    "resilience": {"resilience": True},
    "semantic-cache": {"semantic_cache": True},
    "resilience+semantic-cache": {"resilience": True, "semantic_cache": True},
    "planner": {"planner": True},
    "shards=2": {"shards": 2},
    "shards=2+resilience": {"shards": 2, "resilience": True},
}
BATCH = ("foggy clouds", "sunny shoreline at dusk", "rain on a forest trail", "stars")


def _encoders(cls=Encoder):
    for sub in cls.__subclasses__():
        yield sub
        yield from _encoders(sub)


@pytest.fixture
def encodes(monkeypatch):
    """Rows encoded per modality since the last ``clear()``."""
    counted = Counter()
    for cls in set(_encoders()):
        body = vars(cls).get("_encode_rows")
        if body is None:
            continue

        def counting(self, modality, contents, body=body):
            counted[modality] += len(contents)
            return body(self, modality, contents)

        monkeypatch.setattr(cls, "_encode_rows", counting)
    return counted


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def system(request, scenes_kb):
    return MQASystem.from_knowledge_base(
        scenes_kb, fast_config(index="flat", **CONFIGS[request.param])
    ), CONFIGS[request.param]


def test_a_text_ask_encodes_its_text_once(system, encodes):
    system, _ = system
    encodes.clear()
    assert system.ask("foggy clouds over mountains").items
    assert encodes == {Modality.TEXT: 1}


def test_a_text_and_image_refine_encodes_each_modality_once(system, encodes):
    system, _ = system
    system.ask("a calm lake at dawn")
    system.select(0)
    encodes.clear()
    assert system.refine("more at dusk").items
    assert encodes == {Modality.TEXT: 1, Modality.IMAGE: 1}


def test_a_raw_batch_encodes_each_query_once(system, encodes):
    system, _ = system
    encodes.clear()
    responses = system.coordinator.retrieve_batch(
        [RawQuery.from_text(text) for text in BATCH]
    )
    assert all(response.items for response in responses)
    assert encodes == {Modality.TEXT: len(BATCH)}


def test_an_exact_cache_hit_encodes_nothing_before_retrieval(system, encodes):
    system, config = system
    system.ask("rain over the harbour")
    encodes.clear()
    again = system.coordinator.handle_query(RawQuery.from_text("rain over the harbour"))
    assert again.items
    # Only the degradation stage, which runs before the cache, encodes a hit.
    assert encodes == ({Modality.TEXT: 1} if config.get("resilience") else {})

