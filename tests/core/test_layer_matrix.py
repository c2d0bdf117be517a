"""The layers together, enumerated from the registry.

Every pair of registered layers, all of them at once, and LLM-only mode with
all of them switched on: each deployment answers every verb (a round, a
follow-up round with a selection, an agentic round, a raw batch, an ingest
and a removal), reports exactly its layers' ledgers beside the coordinator's
and the framework's, and runs its layers' stages and observers in registry
order.  A layer registered without a switch here fails the first test.
"""

from itertools import combinations

import pytest

from repro.core import MQAConfig
from repro.core.coordinator import Coordinator
from repro.core.layers import REGISTRY
from repro.data import DatasetSpec, RawQuery
from repro.errors import CoordinatorError
from repro.llm.prompts import DialogueTurn

BASE = dict(
    dataset=DatasetSpec(domain="scenes", size=60, seed=7),
    weight_mode="equal",
    index="flat",
    cache_queries=False,  # the cache is a layer: off unless switched on
)

#: The configuration that switches each registered layer on (``monitoring``
#: switches on both of its monitors; the recording lands in the test's
#: working directory).
SWITCHES = {
    "rewrite": {"query_rewriting": True},
    "resilience": {"resilience": True},
    "stats": {"cost_accounting": True},
    "admission": {"admission": True},
    "planner": {"planner": True},
    "cache": {"semantic_cache": True},
    "agentic": {"agentic": True},
    "slo": {"monitoring": True},
    "recorder": {"recorder_path": "flight.jsonl"},
    "quality": {"monitoring": True},
}

CASES = list(combinations(REGISTRY, 2)) + [tuple(REGISTRY)]


def case_id(names):
    return "all" if len(names) == len(REGISTRY) else "+".join(names)


def names_of(entries):
    return [name for name, _ in entries]


@pytest.fixture
def build(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    built = []

    def build(names, **overrides):
        settings = dict(BASE, **overrides)
        for name in names:
            settings.update(SWITCHES[name])
        config = MQAConfig(**settings)
        built.append(Coordinator(config).setup())
        return config, built[-1]

    yield build
    for coordinator in built:
        recorder = coordinator.layer("recorder")
        if recorder is not None:
            recorder.close()


def assert_assembled(coordinator, config):
    """The layers are the registry's, filtered by the configuration, and the
    round, the observers and the ledger table are theirs in that order."""
    enabled = [name for name, (on, _) in REGISTRY.items() if on(config)]
    assert list(coordinator.layers) == enabled
    layers = [coordinator.layers[name] for name in enabled]
    stages = [name for layer in layers for name, _ in layer.stages]
    if config.external_knowledge:
        assert names_of(coordinator.stages) == stages + ["retrieve", "generate"]
    else:
        assert names_of(coordinator.stages) == ["generate"]
    assert names_of(coordinator.observers) == [
        name for layer in layers for name, _ in layer.observers
    ]
    own = {"resilience"} | ({"trace"} if coordinator.tracer.enabled else set())
    framework = (
        set(coordinator.execution.framework.ledgers()) if coordinator.execution else set()
    )
    ledgers = {name for name in enabled if coordinator.layers[name].snapshot}
    assert set(coordinator.ledgers) == ledgers | own | framework
    return enabled


def drive(coordinator):
    """Every verb once; then a read of every ledger."""
    first = coordinator.handle_query(RawQuery.from_text("foggy clouds over mountains"))
    coordinator.handle_query(
        RawQuery.from_text("more like that one"),
        history=[DialogueTurn(user_text="foggy clouds over mountains", system_text=first.text)],
        preferred_ids=first.ids[:1],
        round_index=1,
    )
    coordinator.answer_agentic(RawQuery.from_text("a foggy and rainy mountain scene"))
    batch = [RawQuery.from_text(text) for text in ("sunny shoreline", "stars at dusk")]
    if coordinator.execution is None:
        for verb in (
            lambda: coordinator.retrieve_batch(batch),
            lambda: coordinator.ingest_object(["foggy", "dusk"]),
            lambda: coordinator.remove_object(0),
        ):
            with pytest.raises(CoordinatorError, match="LLM-only"):
                verb()
    else:
        assert len(coordinator.retrieve_batch(batch)) == 2
        coordinator.remove_object(coordinator.ingest_object(["foggy", "dusk"]))
    for name in coordinator.ledgers:
        coordinator.ledger(name)


def test_every_registered_layer_has_a_switch():
    assert list(SWITCHES) == list(REGISTRY)


@pytest.mark.parametrize("names", CASES, ids=case_id)
def test_a_deployment_runs_every_verb_with_exactly_its_layers(build, names):
    config, coordinator = build(names)
    assert set(names) <= set(assert_assembled(coordinator, config))
    drive(coordinator)


def test_llm_only_keeps_the_layers_that_need_no_knowledge_base(build):
    config, coordinator = build(tuple(REGISTRY), external_knowledge=False)
    assert assert_assembled(coordinator, config) == [
        "stats", "admission", "planner", "slo", "recorder",
    ]
    drive(coordinator)
