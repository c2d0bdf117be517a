"""Graph parameters are refused at construction when they are not numbers
the build can use.  ``HnswParams(m=2.5)`` used to pass its ``<`` checks and
die as a ``TypeError`` inside the indexing node; ``VamanaParams(alpha=nan)``
passed ``alpha < 1.0`` and built a graph whose occlusion rule never fires.
``MQAConfig(index_params=...)`` hands these dicts to :func:`build_index`,
which now answers with a :class:`ConfigurationError` naming the field — and
``MQAConfig`` does so when it is configured, not at ``/apply`` after the
knowledge base has been generated."""

import math

import numpy as np
import pytest

from repro.core import MQAConfig
from repro.core.panels import ConfigurationPanel
from repro.errors import ConfigurationError
from repro.index import build_index
from repro.index.hnsw import HnswParams
from repro.index.ivf import IvfParams
from repro.index.must_graph import MustGraphParams
from repro.index.nsg import NsgParams
from repro.index.starling import StarlingParams
from repro.index.vamana import VamanaParams

NAN, INF = math.nan, math.inf

#: (params class, registry name, field, refused values)
REFUSED = [
    (HnswParams, "hnsw", "m", [2.5, NAN, INF, True, "12", None]),
    (HnswParams, "hnsw", "ef_construction", [80.5, NAN, INF, True, "80"]),
    (HnswParams, "hnsw", "seed", [0.5, NAN, False]),
    (VamanaParams, "vamana", "max_degree", [16.5, NAN, True, "16"]),
    (VamanaParams, "vamana", "alpha", [NAN, INF, -INF, True, "1.2", None]),
    (VamanaParams, "vamana", "candidate_pool", [48.5, NAN, True]),
    (VamanaParams, "vamana", "build_budget", [64.5, INF, True]),
    (VamanaParams, "vamana", "seed", [0.5, True]),
    (MustGraphParams, "nav-must", "max_degree", [16.5, NAN, True]),
    (MustGraphParams, "nav-must", "alpha", [NAN, INF, True]),
    (MustGraphParams, "nav-must", "candidate_pool", [48.5, True]),
    (NsgParams, "nsg", "max_degree", [16.5, NAN, True]),
    (NsgParams, "nsg", "knn", [50.5, NAN, True]),
    (StarlingParams, "starling", "block_size", [16.5, NAN, True]),
    (StarlingParams, "starling", "cache_blocks", [8.5, NAN, True, -1]),
    # Starling's untyped fields: an ``inner`` of 5 died at apply with an
    # AttributeError, ``tiered="yes"`` was accepted, and ``shuffled="no"``
    # built the shuffled layout.
    (StarlingParams, "starling", "shuffled", ["no", 1, None]),
    (StarlingParams, "starling", "inner", [5, "x", None]),
    (StarlingParams, "starling", "tiered", ["yes", 5, True]),
    (IvfParams, "ivf", "n_lists", [0, 32.5, True]),
    (IvfParams, "ivf", "nprobe", [0, NAN, "4"]),
]

CASES = [
    pytest.param(cls, name, field, value, id=f"{name}-{field}-{value!r}")
    for cls, name, field, values in REFUSED
    for value in values
]


@pytest.mark.parametrize("cls, name, field, value", CASES)
def test_refused_at_construction(cls, name, field, value):
    with pytest.raises(ValueError, match=field):
        cls(**{field: value})


@pytest.mark.parametrize("cls, name, field, value", CASES)
def test_refused_by_the_registry_as_a_configuration_error(cls, name, field, value):
    with pytest.raises(ConfigurationError, match=field):
        build_index(name, {field: value})


def test_numpy_numbers_are_numbers():
    params = VamanaParams(
        max_degree=np.int64(12), alpha=np.float64(1.3), candidate_pool=np.int32(24)
    )
    assert (params.max_degree, params.alpha, params.candidate_pool) == (12, 1.3, 24)
    assert HnswParams(m=np.int64(6), ef_construction=np.int64(32)).m == 6
    assert VamanaParams(alpha=2).alpha == 2


def test_defaults_and_bounds_still_hold():
    for cls in (HnswParams, VamanaParams, MustGraphParams, NsgParams, StarlingParams):
        cls()
    with pytest.raises(ValueError, match="alpha"):
        VamanaParams(alpha=0.99)
    with pytest.raises(ValueError, match="max_degree"):
        MustGraphParams(max_degree=1)


#: ``(index, index_params)`` that ``MQAConfig`` accepted: each failed only at
#: ``/apply``, after the knowledge base had been generated (or, for
#: ``shuffled``, never).
AT_CONFIGURATION = [
    ("hnsw", {"m": 1}, "m must be >= 2"),
    ("hnsw", {"bogus": 3}, "bogus"),
    ("vamana", {"alpha": NAN}, "alpha"),
    ("starling", {"inner": 5}, "inner"),
    ("starling", {"tiered": "yes"}, "tiered"),
    ("starling", {"shuffled": "no"}, "shuffled"),
    ("starling", {"tiered": {"bits": 3}}, "bits must be 4 or 8"),
]


@pytest.mark.parametrize("index, params, message", AT_CONFIGURATION)
def test_refused_when_configured(index, params, message):
    with pytest.raises(ConfigurationError, match=message):
        MQAConfig(index=index, index_params=params)


def test_the_panel_takes_an_index_then_its_parameters():
    """Choosing another index clears the old one's parameters, so the
    index-then-parameters order works from any starting point."""
    panel = ConfigurationPanel(MQAConfig(index_params={"m": 6, "ef_construction": 32}))
    panel.set_option("index", "hnsw")
    assert panel.config.index_params == {"m": 6, "ef_construction": 32}
    panel.set_option("index", "vamana")
    assert panel.config.index_params == {}
    panel.set_option("index_params", {"max_degree": 8, "candidate_pool": 16})
    with pytest.raises(ConfigurationError, match="max_degree must be >= 2"):
        panel.set_option("index_params", {"max_degree": 1})
    assert panel.config.index == "vamana"
    assert panel.config.index_params == {"max_degree": 8, "candidate_pool": 16}
