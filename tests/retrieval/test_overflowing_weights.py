"""Per-query weights that do not normalise to finite numbers are refused.

A MUST kernel scales its weights to sum to the number of modalities.  Two
weights of ``1e308`` sum past the float range, and the scale turned them
into zeros: every score read ``0.0`` and the answer was the first k ids.  A
subnormal total such as ``1e-320`` overflowed the scale instead, and every
score read ``nan``.  Both must be an ``EncodingError`` from the library and
an error reply from ``POST /search``, while a weighting that does normalise
is still served.
"""

import pytest

from repro.core import MQAConfig
from repro.data import RawQuery
from repro.errors import EncodingError
from repro.server import ApiServer

OVERFLOWING = [
    pytest.param({"text": 1e308, "image": 1e308}, id="total-overflows"),
    pytest.param({"text": 1e-320, "image": 0.0}, id="scale-overflows"),
]


@pytest.fixture(scope="module")
def server(scenes_kb):
    config = MQAConfig(
        weight_learning={"steps": 12, "batch_size": 8, "n_negatives": 4},
        framework="must", index="flat",
    )
    with ApiServer(config, knowledge_base=scenes_kb) as applied:
        assert applied.handle("POST", "/apply")["ok"]
        yield applied


@pytest.mark.parametrize("weights", OVERFLOWING)
def test_the_library_refuses_them(server, weights):
    with pytest.raises(EncodingError, match="do not normalise to finite weights"):
        server._coordinator.retrieve_batch(
            [RawQuery.from_text("foggy clouds")], k=5, weights=weights
        )


@pytest.mark.parametrize("weights", OVERFLOWING)
def test_search_replies_with_an_error(server, weights):
    reply = server.handle(
        "POST", "/search", {"text": "foggy clouds", "k": 5, "weights": weights}
    )
    assert reply["ok"] is False
    assert "do not normalise to finite weights" in reply["error"]


def test_a_weighting_that_normalises_is_served(server):
    reply = server.handle(
        "POST", "/search",
        {"text": "foggy clouds", "k": 5, "weights": {"text": 1e307, "image": 1e307}},
    )
    assert reply["ok"], reply
    scores = [item["score"] for item in reply["result"]["items"]]
    assert len(scores) == 5 and len(set(scores)) > 1
