"""Tests for object deletion (tombstones)."""

import numpy as np
import pytest

from repro.core import MQAConfig, MQASystem
from repro.data import DatasetSpec, RawQuery
from repro.errors import CoordinatorError, RetrievalError, UnknownObjectError

from tests.core.conftest import fast_config

FAST = dict(
    dataset=DatasetSpec(domain="scenes", size=100, seed=7),
    weight_learning={"steps": 10, "batch_size": 8, "n_negatives": 4},
    index_params={"m": 6, "ef_construction": 32},
)


@pytest.fixture(params=["must", "mr", "je"])
def framework_system(request):
    return MQASystem.from_config(MQAConfig(framework=request.param, **FAST))


class TestDeletion:
    def test_removed_object_never_returned(self, framework_system):
        system = framework_system
        answer = system.ask("foggy clouds")
        victim = answer.ids[0]
        system.remove(victim)
        system.reset_dialogue()
        follow_up = system.ask("foggy clouds")
        assert victim not in follow_up.ids

    def test_result_count_preserved(self, framework_system):
        system = framework_system
        answer = system.ask("foggy clouds", k=4)
        system.remove(answer.ids[0])
        system.reset_dialogue()
        follow_up = system.ask("foggy clouds", k=4)
        assert len(follow_up.items) == 4

    def test_metadata_marked(self, framework_system):
        system = framework_system
        answer = system.ask("stars at night")
        victim = answer.ids[0]
        system.remove(victim)
        assert system.kb.get(victim).metadata["deleted"] is True

    def test_reingest_after_delete_keeps_dense_ids(self, framework_system):
        system = framework_system
        answer = system.ask("foggy clouds")
        system.remove(answer.ids[0])
        new_id = system.ingest(["foggy", "clouds"])
        assert new_id == 100  # next dense id, unaffected by tombstones

    def test_remove_unknown_id(self, framework_system):
        with pytest.raises(UnknownObjectError):
            framework_system.remove(9999)

    def test_remove_in_llm_only_mode(self):
        system = MQASystem.from_config(
            MQAConfig(external_knowledge=False, **FAST)
        )
        with pytest.raises(CoordinatorError):
            system.remove(0)

    def test_deleted_ids_exposed(self, framework_system):
        system = framework_system
        answer = system.ask("misty valley")
        system.remove(answer.ids[0])
        framework = system.coordinator.execution.framework
        assert answer.ids[0] in framework.deleted_ids


class TestObjectIdTypes:
    """An object id is any integer ``operator.index`` takes but a ``bool``;
    the tombstone set holds Python ints, sharded or not."""

    @pytest.fixture(params=[None, 2], ids=["unsharded", "shards=2"])
    def system(self, request):
        return MQASystem.from_config(MQAConfig(shards=request.param, **FAST))

    def test_a_bool_is_refused_and_tombstones_nothing(self, system):
        # True == 1: it used to tombstone object 1 and stay in deleted_ids.
        with pytest.raises(UnknownObjectError):
            system.remove(True)
        framework = system.coordinator.execution.framework
        assert framework.deleted_ids == frozenset()
        assert "deleted" not in system.kb.get(1).metadata
        with pytest.raises(RetrievalError, match="invalid object id"):
            framework.remove_object(True)
        assert framework.deleted_ids == frozenset()

    def test_numpy_integers_are_object_ids(self, system):
        assert system.kb.get(np.int64(3)) is system.kb.get(3)
        system.remove(np.int64(3))
        framework = system.coordinator.execution.framework
        assert framework.deleted_ids == frozenset({3})
        assert all(type(i) is int for i in framework.deleted_ids)
        framework.remove_object(np.uint16(4))
        assert framework.deleted_ids == frozenset({3, 4})
        assert all(type(i) is int for i in framework.deleted_ids)
        system.reset_dialogue()
        assert not {3, 4} & set(system.ask("foggy clouds", k=10).ids)


class TestDeletionViaApi:
    def test_remove_endpoint(self):
        from repro.server import ApiServer

        server = ApiServer(MQAConfig(**FAST))
        server.handle("POST", "/apply")
        answer = server.handle("POST", "/query", {"text": "foggy clouds"})["answer"]
        victim = answer["items"][0]["object_id"]
        response = server.handle("POST", "/remove", {"object_id": victim})
        assert response["ok"]
        follow_up = server.handle("POST", "/query", {"text": "foggy clouds"})["answer"]
        assert victim not in [item["object_id"] for item in follow_up["items"]]

    def test_metrics_endpoint(self):
        from repro.server import ApiServer

        server = ApiServer(MQAConfig(**FAST))
        server.handle("POST", "/apply")
        server.handle("POST", "/query", {"text": "foggy clouds"})
        server.handle("POST", "/query", {"text": "foggy clouds"})
        metrics = server.handle("GET", "/metrics")["metrics"]
        assert metrics["queries"] == 2
        assert metrics["mean_query_ms"] > 0
        assert metrics["kb_objects"] == 100
        assert metrics["cache"]["enabled"]
