"""A set-up encodes the knowledge base once, and every framework — and
every shard replica — indexes rows of those same matrices."""

import numpy as np
import pytest

from repro.core import MQASystem
from repro.data import Modality
from repro.encoders import EncoderSet

from tests.core.conftest import fast_config

FRAMEWORKS = ("must", "mr", "je")
DEPLOYMENTS = ((None, 1), (2, 1), (2, 2))


@pytest.fixture
def encode_calls(monkeypatch):
    """Entries into ``EncoderSet.encode_corpus`` / ``encode_object``."""
    calls = {"encode_corpus": 0, "encode_object": 0}
    for name in calls:
        original = getattr(EncoderSet, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(EncoderSet, name, counted)
    return calls


def _indexed_rows(framework) -> np.ndarray:
    """The rows a bare framework indexed, modalities side by side."""
    if framework.name == "mr":
        return np.hstack([index.vectors for index in framework._indexes.values()])
    return framework._index.vectors


def _build(framework, shards, replicas):
    return MQASystem.from_config(
        fast_config(framework=framework, index="flat", shards=shards, replicas=replicas)
    )


@pytest.mark.parametrize("shards, replicas", DEPLOYMENTS)
@pytest.mark.parametrize("framework", FRAMEWORKS)
def test_one_encode_per_setup(encode_calls, framework, shards, replicas):
    system = _build(framework, shards, replicas)
    assert encode_calls == {"encode_corpus": 1, "encode_object": 0}
    # The matrices served the learner and the build; nothing keeps them.
    assert system.coordinator.representation.corpus is None

    # The system is live: an ingested object is encoded on its own and is
    # the nearest thing to its own content.
    new_id = system.ingest(["foggy", "dusk"])
    assert encode_calls["encode_corpus"] == 1
    obj = system.coordinator.kb.get(new_id)
    answer = system.ask(obj.get(Modality.TEXT), image=obj.get(Modality.IMAGE))
    assert answer.items[0].object_id == new_id


@pytest.mark.parametrize("framework", FRAMEWORKS)
def test_shard_rows_are_the_unsharded_rows(framework):
    whole = _indexed_rows(_build(framework, None, 1).coordinator.execution.framework)
    router = _build(framework, 2, 2).coordinator.execution.framework
    held = 0
    for group in router.groups:
        for replica in group.replicas:
            np.testing.assert_array_equal(
                _indexed_rows(replica.framework), whole[replica.global_ids]
            )
        held += len(group.replicas[0].global_ids)
    assert held == len(whole)
