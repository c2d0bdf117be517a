"""Every registered component refuses a parameter it does not declare.

One :class:`repro.utils.Registry` reads the parameters of every index,
retrieval framework and LLM: a key that is no field of the component's
declared dataclass is a :class:`ConfigurationError` naming the kind and the
component, whichever way the parameters arrive — ``build_*``,
``MQAConfig`` or ``POST /configure``.  ``flat``, ``je``, ``must`` and ``mr``
used to drop such a key without a word."""

import pytest

from repro.core import MQAConfig
from repro.errors import ConfigurationError
from repro.index import available_indexes, build_index
from repro.llm import available_llms, build_llm
from repro.retrieval import FusionStrategy, available_frameworks, build_framework
from repro.server import ApiServer

BUILDERS = {"index": build_index, "retrieval framework": build_framework, "llm": build_llm}
NAMES = {"index": available_indexes, "retrieval framework": available_frameworks,
         "llm": available_llms}
COMPONENTS = [(kind, name) for kind, names in NAMES.items() for name in names()]
#: The kinds ``MQAConfig`` forwards parameters to: (kind, its field, the
#: parameters' field).
CONFIGURED = {"index": ("index", "index_params"), "llm": ("llm", "llm_params")}


def _refused(kind, name):
    return f"{kind} {name!r}: unknown parameters: bogus"


@pytest.mark.parametrize("kind, name", COMPONENTS)
def test_an_undeclared_parameter_is_refused_by_build(kind, name):
    with pytest.raises(ConfigurationError) as caught:
        BUILDERS[kind](name, {"bogus": 1})
    assert str(caught.value).startswith(_refused(kind, name))


@pytest.mark.parametrize("kind, name", [c for c in COMPONENTS if c[0] in CONFIGURED])
def test_an_undeclared_parameter_is_refused_when_configured(kind, name):
    field, params = CONFIGURED[kind]
    with pytest.raises(ConfigurationError) as caught:
        MQAConfig(**{field: name, params: {"bogus": 1}})
    assert str(caught.value).startswith(_refused(kind, name))

    with ApiServer() as server:
        assert server.handle("POST", "/configure", {"option": field, "value": name})["ok"]
        reply = server.handle("POST", "/configure", {"option": params, "value": {"bogus": 1}})
    assert reply["ok"] is False
    assert reply["error"].startswith(_refused(kind, name))


@pytest.mark.parametrize(
    "kind, name, params, message",
    [
        # MUST's retired pruning switch is no parameter any more.
        ("retrieval framework", "must", {"use_pruning": True}, "unknown parameters: use_pruning"),
        # ``int("5")`` used to accept it.
        ("retrieval framework", "mr", {"expansion": "5"}, "expansion must be an integer, got '5'"),
        ("retrieval framework", "mr", {"expansion": 0}, "expansion must be >= 1, got 0"),
        ("retrieval framework", "mr", {"fusion": 5}, "fusion must be a FusionStrategy, got 5"),
        # A mapping for a dataclass-typed field is read the same way.
        ("index", "starling", {"inner": {"bogus": 1}}, "inner: unknown parameters: bogus"),
        ("index", "starling", {"tiered": {"bits": 3}}, "tiered: bits must be 4 or 8, got 3"),
    ],
    ids=["must-use_pruning", "mr-expansion-str", "mr-expansion-0", "mr-fusion-int",
         "starling-inner", "starling-tiered"],
)
def test_a_declaration_refuses_what_it_does_not_hold(kind, name, params, message):
    with pytest.raises(ConfigurationError) as caught:
        BUILDERS[kind](name, params)
    assert str(caught.value) == f"{kind} {name!r}: {message}"


def test_declared_parameters_are_read():
    mr = build_framework("mr", {"fusion": "combsum", "expansion": 5})
    assert (mr.fusion, mr.expansion) == (FusionStrategy.COMBSUM, 5)
    assert build_framework("mr", {"fusion": FusionStrategy.ROUND_ROBIN}).fusion is (
        FusionStrategy.ROUND_ROBIN
    )
    starling = build_index("starling", {"inner": {"max_degree": 8}, "tiered": {"bits": 4}})
    assert (starling.params.inner.max_degree, starling.params.tiered.bits) == (8, 4)
