"""Structural gate: serial is a batch of one, by construction.

``VectorIndex.search`` and ``RetrievalFramework.retrieve`` are concrete
one-liners over ``search_batch`` / ``retrieve_batch``.  No subclass
anywhere under ``repro`` may define its own ``search`` / ``retrieve`` —
a second body is a second behaviour to keep in step by hand.  The same
holds one layer up: ``QueryExecution.execute`` is ``execute_batch`` of one
and the coordinator runs a stage list, not a hand-threaded round — and for
telemetry: a block is timed by its span and by nothing else, and a served
event is counted in the metrics registry and nowhere else.  A sleep models
a remote wait and never stands in for work, and the coordinator runs the
rounds its layers register without naming any of them.  Set-up's data is
rendered the same way: an object, a view and a learner step are batches of
one.  And index code computes a distance only through a kernel, where it is
counted, and the one beam loop scores through ``score_ragged`` alone.  An
encoder's one body is its block; a query is a block of one row.
Every module under ``repro`` is imported from a served root or a cited
experiment.  A parameter is declared once, on its dataclass field, and checked
by the one checker that reads the declarations; a setting no caller configures
is its component's default and no config field.  One module loads a shared
library: the one that sets numpy's BLAS to one thread.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import re
import textwrap
from pathlib import Path

import pytest

import repro
from repro.index.base import VectorIndex
from repro.retrieval.base import RetrievalFramework


def _subclasses(cls):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro."):
            yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize(
    "base, single, batch",
    [(VectorIndex, "search", "search_batch"),
     (RetrievalFramework, "retrieve", "retrieve_batch")],
)
def test_only_the_base_class_defines_the_single_query_form(base, single, batch):
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        importlib.import_module(name)  # so every subclass is registered
    subclasses = sorted(set(_subclasses(base)), key=lambda c: c.__qualname__)
    assert len(subclasses) >= 4, "the package walk lost the concrete classes"
    offenders = [c.__qualname__ for c in subclasses if single in vars(c)]
    assert not offenders, f"{offenders} define {single}(); implement {batch}() only"
    assert batch in base.__abstractmethods__
    assert single not in base.__abstractmethods__
    for cls in subclasses:
        assert getattr(cls, single) is getattr(base, single)
        if not inspect.isabstract(cls):
            assert getattr(cls, batch) is not getattr(base, batch)


def _delegated_calls(method):
    """The attribute calls of ``method``'s body, which must be a single
    ``return`` statement (a docstring aside)."""
    function = ast.parse(textwrap.dedent(inspect.getsource(method))).body[0]
    body = [
        node for node in function.body
        if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))
    ]
    assert len(body) == 1 and isinstance(body[0], ast.Return), method.__qualname__
    return [
        node.func.attr for node in ast.walk(body[0])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    ]


def test_execute_is_a_one_statement_delegation_to_execute_batch():
    from repro.core.execution import QueryExecution

    assert _delegated_calls(QueryExecution.execute) == ["execute_batch"]


def test_coordinator_has_no_hand_threaded_round():
    from repro.core import MQAConfig
    from repro.core.coordinator import Coordinator

    assert not hasattr(Coordinator, "_run_query_round")
    assert {"stages", "observers"} <= set(vars(Coordinator(MQAConfig())))


def _config_names():
    from dataclasses import fields

    from repro.core import MQAConfig

    specs = fields(MQAConfig)
    return {s.name for s in specs}, {s.metadata["alias"] for s in specs} - {None}


def test_a_config_field_is_declared_once():
    """No hand-written flag, loadgen parameter or panel whitelist repeats a
    field: the CLI gets its config flags from ``add_config_arguments``
    (``--inject`` stays hand-written — it parses ``site:key=value`` specs
    into ``faults`` and has a dest of its own), ``run_loadgen`` forwards
    ``**config_overrides``, and the panel accepts the dataclass's fields."""
    from repro import cli
    from repro.core import panels
    from repro.server.loadgen import run_loadgen

    names, aliases = _config_names()
    tree = ast.parse(inspect.getsource(cli))
    dests = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "add_argument":
            keywords = {k.arg: k.value for k in node.keywords}
            spelled = keywords["dest"] if "dest" in keywords else node.args[0]
            dests.append(spelled.value.lstrip("-").replace("-", "_"))
    assert len(dests) >= 20, "the add_argument scan lost the hand-written flags"
    assert not set(dests) & (names | aliases)

    make_server = ast.parse(inspect.getsource(cli.make_server))
    assert not [
        node for node in ast.walk(make_server)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "getattr"
    ]

    parameters = set(inspect.signature(run_loadgen).parameters)
    assert not parameters & names
    assert aliases & parameters == {"k", "batch", "cache"}

    for node in ast.walk(ast.parse(inspect.getsource(panels))):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            listed = {
                e.value for e in node.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
            assert len(listed & names) < 2, f"panels.py lists fields {sorted(listed)}"


#: Serving settings no caller set: each is its component's own default, and
#: no config field, flag or ``ApiServer`` parameter repeats it.
RETIRED_KNOBS = (
    "monitor_sample_rate", "slo_window", "batch_window_ms", "rebalance_threshold",
    "retry_backoff_ms", "breaker_threshold", "breaker_reset_ms", "recall_floor",
    "semantic_threshold", "agentic_max_hops", "agentic_refine_rounds",
)


def test_a_retired_knob_is_declared_once():
    """A retired knob is declared by its component alone: it is no
    ``MQAConfig`` field (so no ``POST /configure`` option), no parser has a
    flag for it, nothing under ``repro`` reads it off an object but the
    component itself (``self.<name>``), and ``ApiServer`` takes no batcher
    or engine-queue override beside the panel's settings."""
    from repro import cli
    from repro.core import MQAConfig
    from repro.server import ApiServer

    names, _ = _config_names()
    assert not names & set(RETIRED_KNOBS)

    builders = [
        build for name, build in vars(cli).items()
        if name.startswith("build_") and name.endswith("parser")
    ]
    assert len(builders) >= 3, "the parser scan lost the builders"
    for build in builders:
        dests = {action.dest for action in build()._actions}
        assert not dests & set(RETIRED_KNOBS), build.__name__

    reads = []
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        reads += [
            f"{name}:{node.lineno} .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in RETIRED_KNOBS
            and getattr(node.value, "id", "") != "self"
        ]
    assert reads == []

    assert not {"max_batch", "batch_window_ms", "engine_queue"} & set(
        inspect.signature(ApiServer).parameters
    )
    server = ApiServer(MQAConfig())
    for name in RETIRED_KNOBS:
        reply = server.handle("POST", "/configure", {"option": name, "value": 1})
        assert not reply["ok"] and "unknown configuration option" in reply["error"]


def test_the_index_layer_keeps_one_of_each():
    """One beam loop, one adjacency per layer, one row store: only
    ``search.py`` runs a heap, HNSW has no private search pair or descent
    loop and no cached copy of layer 0, nothing under ``repro.index``
    stacks a matrix to grow it (``base.py`` owns growth), a restored
    index inserts through the pipeline index's own ``add``, and HNSW's
    ``build`` and ``add`` select a new node's neighbours (Algorithm 4)
    through one driver, ``_select_passes`` — ``_link``'s reverse-edge
    re-selection aside."""
    import repro.index
    from repro.index.hnsw import HnswIndex
    from repro.index.persistence import FrozenGraphIndex
    from repro.index.pipeline_builder import PipelineGraphIndex

    heap_users, stackers = [], []
    for info in pkgutil.iter_modules(repro.index.__path__, prefix="repro.index."):
        tree = ast.parse(inspect.getsource(importlib.import_module(info.name)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module]
            else:
                imported = []
            if "heapq" in imported:
                heap_users.append(info.name)
            if isinstance(node, ast.Attribute) and node.attr == "vstack":
                stackers.append(f"{info.name}:{node.lineno}")
    assert heap_users == ["repro.index.search"]
    assert not stackers

    for name in (
        "_search_layer", "_greedy_descend", "_greedy_descend_batch", "_base_graph",
        "_select_heuristic",
    ):
        assert not hasattr(HnswIndex, name)
    assert "_base_graph" not in vars(HnswIndex())
    assert FrozenGraphIndex.add is PipelineGraphIndex.add
    add = ast.parse(textwrap.dedent(inspect.getsource(PipelineGraphIndex.add)))
    assert not [
        node for node in ast.walk(add)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "getattr"
    ]

    algorithm_4 = {
        "select_heuristic_rows", "select_saturated", "occlusion_scan", "mrng_rule",
        "pack_table", "prune_rows", "robust_prune",
    }
    methods = {
        name: {
            getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(member))))
            if isinstance(node, ast.Call)
        }
        for name, member in vars(HnswIndex).items()
        if inspect.isfunction(member)
    }

    def reaches(name, seen=frozenset()):
        callees = methods[name] & (methods.keys() - seen - {name})
        return bool(methods[name] & algorithm_4) or any(
            reaches(callee, seen | {name}) for callee in callees
        )

    for caller in ("_build_layer", "_insert"):
        assert not methods[caller] & algorithm_4, caller
        via = {callee for callee in methods[caller] & methods.keys() if reaches(callee)}
        assert via == {"_select_passes", "_link"}, (caller, via)


def test_a_block_is_timed_once():
    """Spans are the one timer and the cost plane reads them: one context
    variable in ``repro.observability`` (the tracer's), no ambient cost
    machinery, no clock in ``costs.py``, the round's trace on its context,
    and no retrieval-path body that also reads a clock for itself."""
    from dataclasses import fields

    import repro.observability
    from repro.core.agentic import AgenticAnswerer
    from repro.core.coordinator import RoundContext
    from repro.core.execution import QueryExecution
    from repro.core.sharding import ShardRouter
    from repro.retrieval import (
        JointEmbeddingRetrieval,
        MultiStreamedRetrieval,
        MustRetrieval,
    )

    made, imported = [], {}
    for info in pkgutil.iter_modules(
        repro.observability.__path__, prefix="repro.observability."
    ):
        tree = ast.parse(inspect.getsource(importlib.import_module(info.name)))
        names = imported.setdefault(info.name, set())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                names.add(node.module)
            elif isinstance(node, ast.Call):
                called = getattr(node.func, "attr", getattr(node.func, "id", ""))
                if called == "ContextVar":
                    made.append(info.name)
    assert made == ["repro.observability.tracing"]
    assert not imported["repro.observability.costs"] & {"time", "contextvars"}
    # Spelled in pieces: a whole-word grep for the deleted names finds no file.
    for name in ("cost_" + "stage", "cost_" + "context", "active_" + "cost"):
        assert not hasattr(repro.observability, name)
        assert not hasattr(repro.observability.costs, name)

    context_fields = {spec.name for spec in fields(RoundContext)}
    assert "trace" in context_fields and "ledger" not in context_fields

    bodies = [
        JointEmbeddingRetrieval.retrieve_batch,
        MultiStreamedRetrieval.retrieve_batch,
        MustRetrieval.retrieve_batch,
        ShardRouter._scatter,
        ShardRouter.retrieve_batch,
        QueryExecution.execute_batch,
        AgenticAnswerer._retrieve_hops,
    ]
    for body in bodies:
        source = inspect.getsource(body)
        assert "perf_counter" not in source and "Timer" not in source, body.__qualname__


def test_a_search_option_is_declared_once():
    """``search_batch``'s options are declared on the abstract base and
    nowhere else, so nobody has to ask an index what it takes: every
    ``VectorIndex`` under ``repro`` repeats the base's parameter list, no
    ``inspect.signature`` call is left anywhere under ``repro`` (a
    framework *declares* what it honours), the frameworks reach an index
    only through ``RetrievalFramework._search`` and re-rank nothing
    themselves, and no stage row waits for a ``rerank`` span."""
    import repro.retrieval
    from repro.observability.costs import STAGE_OF_SPAN
    from repro.retrieval import (
        JointEmbeddingRetrieval,
        MultiStreamedRetrieval,
        MustRetrieval,
    )

    def declared(cls):
        return [
            (p.name, p.kind, p.default)
            for p in inspect.signature(cls.search_batch).parameters.values()
        ]

    sniffers = []
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        sniffers += [
            name for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", "") == "signature"
            and getattr(node.func.value, "id", "") == "inspect"
        ]
    assert sniffers == []
    assert not hasattr(repro.retrieval, "search_" + "capabilities")

    indexes = sorted(set(_subclasses(VectorIndex)), key=lambda c: c.__qualname__)
    assert len(indexes) >= 8, "the package walk lost the concrete classes"
    for cls in indexes:
        assert declared(cls) == declared(VectorIndex), cls.__qualname__
    assert [name for name, _, _ in declared(VectorIndex)][-2:] == ["kernel", "admit"]

    for framework in (JointEmbeddingRetrieval, MultiStreamedRetrieval, MustRetrieval):
        source = inspect.getsource(framework.retrieve_batch)
        assert "_search(" in source, framework.__qualname__
        assert "search_batch(" not in source, framework.__qualname__
        assert "argsort" not in source, framework.__qualname__
    assert "rerank" not in STAGE_OF_SPAN


def test_the_beam_loop_scores_through_score_ragged_alone():
    """One scoring path: the beam loop calls ``score_ragged`` twice (the
    seeds, then a round) and ``kernel.single`` nowhere, its traced entry
    scores nothing itself, no module outside ``repro.distance`` calls a
    one-pair ``single``, and no module defines or reads a ``prune`` switch
    on a kernel (incremental scanning is ``single(bound=)``, experiment
    E5's replay)."""
    from repro.index.search import beam_rounds, greedy_search_batch

    def calls(function):
        tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
        return [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]

    loop = calls(beam_rounds)
    assert loop.count("score_ragged") == 2  # the seeds, then a round
    assert "kernel.single" not in loop
    assert "score_ragged" not in calls(greedy_search_batch)
    assert "beam_rounds" in calls(greedy_search_batch)

    single_callers, switches = set(), set()
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "single" and not name.startswith("repro.distance")
            ):
                single_callers.add(name)
            # an attribute, a parameter or keyword, or a name: `prune` anywhere
            if "prune" in (getattr(node, field, None) for field in ("attr", "arg", "id")):
                switches.add(name)
    assert single_callers == set()
    assert switches == set()


def test_the_shard_router_is_a_scatter_and_nothing_else():
    """``retrieve_batch``'s options are declared on the abstract base and
    repeated by every framework (the router adds ``fanout``); how partial
    answers combine is the framework's ``merge``, so ``core/sharding.py``
    holds no fusion, asks no framework for an attribute by name and starts
    no thread pool; MR fuses in one function; and the helpers that existed
    for the pooled scatter are gone."""
    import repro.core.concurrency
    import repro.core.sharding
    import repro.observability
    import repro.retrieval.mr
    from repro.core.sharding import ShardRouter

    def declared(cls):
        return [
            (p.name, p.kind, p.default)
            for p in inspect.signature(cls.retrieve_batch).parameters.values()
        ]

    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        importlib.import_module(name)
    frameworks = sorted(set(_subclasses(RetrievalFramework)), key=lambda c: c.__qualname__)
    assert len(frameworks) >= 4, "the package walk lost the concrete classes"
    base = declared(RetrievalFramework)
    assert [(name, kind.name) for name, kind, _ in base][-2:] == [
        ("weights", "KEYWORD_ONLY"), ("filter_fn", "KEYWORD_ONLY"),
    ]
    for cls in frameworks:
        own = declared(cls)
        if cls is ShardRouter:
            assert own[-1][:2] == ("fanout", inspect.Parameter.KEYWORD_ONLY)
            own = own[:-1]
        assert own == base, cls.__qualname__

    router = ast.parse(inspect.getsource(repro.core.sharding))
    imported, called = set(), set()
    for node in ast.walk(router):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Call):
            called.add(getattr(node.func, "attr", getattr(node.func, "id", "")))
    assert not imported & {"concurrent.futures", "fuse_rankings", "ThreadPoolExecutor"}
    assert not called & {"getattr", "fuse_rankings", "ThreadPoolExecutor"}
    assert "merge" in called and "merge" in vars(RetrievalFramework)

    fusers = [
        function.name
        for function in ast.walk(ast.parse(inspect.getsource(repro.retrieval.mr)))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "fuse_rankings"
    ]
    assert len(fusers) == 1

    # Spelled in pieces: a whole-word grep for the deleted names finds no file.
    for module, name in [
        (repro.observability, "trace_" + "branch"),
        (repro.observability, "Trace" + "Branch"),
        (repro.observability.tracing, "trace_" + "branch"),
        (repro.core.concurrency, "run_" + "scattered"),
        (ShardRouter, "_scatter_" + "pool"),
    ]:
        assert not hasattr(module, name), name


def test_set_up_encodes_the_corpus_once():
    """The representation stage encodes the knowledge base and hands the
    matrices on; the only other ``encode_corpus(`` calls are the two
    fall-backs for a caller that holds none (a framework set up directly —
    one resolver on the base class, which lazy shard builds use too — and a
    sampler constructed directly) and ``encode_object``, an ingest's corpus
    of one object.  JE's ``setup`` fuses corpus rows, not
    objects, and the sampler is array work: no per-view ``encode``, no
    Python-level dot product."""
    import repro.weights.sampler
    from repro.retrieval import JointEmbeddingRetrieval

    def calls(tree, attr):
        return [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == attr
        ]

    sites = []
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        sites += [
            f"{name}:{function.name}"
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for _ in calls(function, "encode_corpus")
        ]
    assert sorted(sites) == [
        "repro.core.representation:run",
        "repro.encoders.base:encode_object",
        "repro.retrieval.base:_corpus",
        "repro.weights.sampler:__init__",
    ]

    setup = ast.parse(textwrap.dedent(inspect.getsource(JointEmbeddingRetrieval.setup)))
    assert not calls(setup, "encode_object")
    assert calls(setup, "_corpus")

    sampler = ast.parse(inspect.getsource(repro.weights.sampler))
    assert not calls(sampler, "encode")
    assert calls(sampler, "encode_batch")
    assert not [
        node for node in ast.walk(sampler)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]


def test_an_encoder_states_its_math_once():
    """Each encoder has one body, the block: ``Encoder._encode_rows`` is the
    only abstract encoding method, ``Encoder.encode`` is that body over one
    row, and no subclass defines ``encode``.  The bag-of-tokens encoder is
    the sequence encoder at decay 1 with no body of its own, and the
    renderers decode only in bulk (``decode_batch``)."""
    import repro.encoders
    from repro.data.rendering import AudioRenderer, ImageRenderer
    from repro.encoders import BagOfTokensEncoder, Encoder, SequenceTextEncoder

    assert _delegated_calls(Encoder.encode) == ["_encode_rows", "_require_support"]
    assert Encoder.__abstractmethods__ == {"output_dim", "modalities", "_encode_rows"}
    for _, name, _ in pkgutil.walk_packages(repro.encoders.__path__, prefix="repro.encoders."):
        importlib.import_module(name)
    subclasses = set(_subclasses(Encoder))
    assert len(subclasses) >= 5, "the package walk lost the concrete encoders"
    assert not [c.__qualname__ for c in subclasses if "encode" in vars(c)]
    assert issubclass(BagOfTokensEncoder, SequenceTextEncoder)
    assert not {"_latent", "_encode_rows"} & set(vars(BagOfTokensEncoder))
    assert not [c.__qualname__ for c in (ImageRenderer, AudioRenderer) if "decode" in vars(c)]


def test_an_event_is_counted_once():
    """The registry is where an event is counted: the layers that increment
    a registry name keep no counter of their own, the cost plane has no
    mirror, percentiles are computed in one file, and every reader of a
    ledger selects it by name from the coordinator's one table — nobody
    discovers ledgers by ``getattr`` / ``hasattr``."""
    import repro.index.tiered
    import repro.server.api
    from repro.core import MQAConfig
    from repro.core.agentic import AgenticAnswerer
    from repro.core.coordinator import Coordinator
    from repro.core.planning import AdmissionController, QueryPlanner
    from repro.core.resilience import ResilienceManager
    from repro.observability import StatsPlane
    from repro.server import ApiServer

    def calls(tree):
        return [
            (getattr(node.func.value, "id", ""), node.func.attr)
            if isinstance(node.func, ast.Attribute)
            else ("", getattr(node.func, "id", ""))
            for node in ast.walk(tree) if isinstance(node, ast.Call)
        ]

    percentile_sites = []
    guards = 0
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        source = inspect.getsource(importlib.import_module(name))
        guards += source.count("metrics is not " + "None")
        if ("np", "percentile") in calls(ast.parse(source)):
            percentile_sites.append(name)
    # ``repro.evaluation`` scores offline experiments, not served traffic.
    assert [
        site for site in percentile_sites if not site.startswith("repro.evaluation")
    ] == ["repro.observability.metrics"]
    assert guards <= 5

    # ``__init__`` assigns nothing under a name the registry counts.
    # Spelled in pieces: a whole-word grep for the deleted names finds no file.
    deleted = {
        ApiServer: ["_query_" + "count", "_refine_" + "count", "_error_" + "count",
                    "_query_" + "seconds", "_metrics_" + "lock"],
        QueryPlanner: ["_pl" + "ans", "_degr" + "aded", "_pressure_" + "plans",
                       "_batch_" + "skips", "_err" + "ors"],
        AdmissionController: ["acc" + "epted", "degr" + "aded", "sh" + "ed",
                              "probe_" + "errors"],
        AgenticAnswerer: ["_quest" + "ions", "_ho" + "ps", "_cla" + "ims",
                          "_suppor" + "ted", "_refi" + "ned", "_lo" + "ck",
                          "_refine_rounds_" + "run", "_groundedness_" + "sum"],
        ResilienceManager: ["_fall" + "backs"],
    }
    for cls, names in deleted.items():
        init = ast.parse(textwrap.dedent(inspect.getsource(cls.__init__)))
        assigned = {
            target.attr
            for node in ast.walk(init) if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Attribute)
        }
        assert not set(names) & assigned, cls.__qualname__
    assert not hasattr(StatsPlane, "_mirror_" + "query")

    assert ("", "getattr") not in calls(ast.parse(inspect.getsource(repro.index.tiered)))
    assert ("", "hasattr") not in calls(ast.parse(inspect.getsource(repro.server.api)))
    assert not hasattr(repro.index.tiered, "iter_tiered_" + "stores")

    assert not hasattr(Coordinator, "snap" + "shots")
    assert {"stages", "observers", "ledgers"} <= set(vars(Coordinator(MQAConfig())))
    # The readers take the table, not layers: the panel's only argument
    # beside the board is the by-name read.
    from repro.core import StatusPanel

    assert list(inspect.signature(StatusPanel.__init__).parameters) == [
        "self", "board", "ledger",
    ]
    for reader in (
        ApiServer._get_health, ApiServer._get_stats, ApiServer._get_status,
        repro.server.loadgen.run_loadgen, repro.core.MQASystem.status_report,
    ):
        source = inspect.getsource(reader)
        assert "ledger" in source and ".snapshot()" not in source, reader.__qualname__


def test_the_coordinator_names_no_optional_layer():
    """Which optional layers a deployment has, and what each adds to a round,
    is decided in ``repro.core.layers`` alone: ``core/coordinator.py`` imports
    no layer's module and none of the layer objects, and no longer threads
    each layer through an ``is not None`` check."""
    import repro.core.coordinator

    source = inspect.getsource(repro.core.coordinator)
    modules, names = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
            names.update(alias.name for alias in node.names)
    assert "repro.core.execution" in modules, "the import scan lost the module"
    assert not modules & {"repro.core.planning", "repro.core.agentic", "repro.core.cache"}
    assert not names & {
        "StatsPlane", "FlightRecorder", "QualityMonitor", "SLOMonitor", "fold_span",
        "QueryRewriter",
    }
    assert source.count("is not " + "None") <= 5


def test_a_sleep_models_a_wait_and_nothing_else():
    """``time.sleep`` is reached under ``repro`` only where a remote wait is
    what is modelled: the remote LLM (``llm/template_llm.py``), the fault
    injector's latency and the retry backoff (``core/resilience.py``, through
    its injectable ``sleep``) and a shed client's backoff
    (``server/loadgen.py``).  The shard router names no sleep at all, and no
    module reads the per-PR benchmark artefacts."""
    import repro.core.sharding

    sleepers = set()
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        source = inspect.getsource(importlib.import_module(name))
        for node in ast.walk(ast.parse(source)):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "sleep"
                and getattr(node.value, "id", "") == "time"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "time"
                and "sleep" in {alias.name for alias in node.names}
            ):
                sleepers.add(name)
        # Spelled in pieces: a whole-word grep for the artefacts finds no file.
        assert "BENCH_" + "PR" not in source, name
    assert sorted(sleepers) == [
        "repro.core.resilience", "repro.llm.template_llm", "repro.server.loadgen",
    ]

    named = set()
    for node in ast.walk(ast.parse(inspect.getsource(repro.core.sharding))):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            named.add(node.name)
        elif isinstance(node, (ast.arg, ast.keyword)):
            named.add(node.arg or "")
        elif isinstance(node, ast.alias):
            named.add(node.asname or node.name)
    assert len(named) > 100, "the name scan lost the module"
    assert not [name for name in named if "sleep" in name.lower()]


def test_a_span_tree_is_read_through_span():
    """How a closed span tree is traversed is ``observability/tracing.py``'s
    alone: ``Span.from_dict`` lifts an export, ``Span.paths`` walks it.
    Under ``repro.observability``, ``repro.server`` and ``repro.cli`` no
    other module reads ``children`` — as an attribute or as the
    ``"children"`` key — except ``costs.fold_span``, whose walk prunes at
    ``shard-search`` / ``query-batch`` and sums stages by name.  No module
    declares a Span-or-dict alias, and the Prometheus exporter imports
    nothing from the tracer."""
    import repro.cli
    import repro.observability
    import repro.server

    modules = [repro.cli]
    for package in (repro.observability, repro.server):
        modules += [
            importlib.import_module(info.name)
            for info in pkgutil.iter_modules(package.__path__, prefix=package.__name__ + ".")
        ]
    assert len(modules) >= 12, "the package walk lost the modules"
    readers = []
    for module in modules:
        if module.__name__ == "repro.observability.tracing":
            continue
        tree = ast.parse(inspect.getsource(module))
        exempt = set()
        if module.__name__ == "repro.observability.costs":
            fold = next(
                node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "fold_span"
            )
            exempt = set(map(id, ast.walk(fold)))
        readers += [
            f"{module.__name__}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in exempt and (
                (isinstance(node, ast.Attribute) and node.attr == "children")
                or (isinstance(node, ast.Constant) and node.value == "children")
            )
        ]
    assert readers == []

    # Spelled in pieces: a whole-word grep for the deleted names finds no file.
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        source = inspect.getsource(importlib.import_module(name))
        assert not [
            node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and node.id == "Span" + "Like"
        ], name
    assert not hasattr(repro.cli, "format_" + "trace")

    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(repro.observability.exporters))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert "repro.observability.metrics" in imported, "the import scan lost the module"
    assert "repro.observability.tracing" not in imported


def _imported(node):
    """The modules and names an ``import`` / ``from ... import`` names."""
    return [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]


def test_set_up_data_is_rendered_in_bulk():
    """An object, a view, a learner step and each renderer's output are
    batches of one: ``create_object``, ``render_view``, ``sample`` and every
    ``render`` are one-statement delegations to their bulk forms, and the
    knowledge base is generated by one ``create_objects`` call.  Their keyed
    draws come from one generator: in ``repro.data`` and the learner's
    sampler, the only random source besides ``repro.utils.rng``'s keyed
    ``words`` / ``normals`` is ``derive_rng`` for the two projections and
    the concept vectors (one draw per scope), nothing calls numpy's random
    module, and nothing in ``repro`` imports ``numpy.random.bit_generator``
    or names ``SeedSequence`` / ``PCG64``."""
    import repro.data
    import repro.data.datasets
    import repro.weights.sampler
    from repro.data.knowledge_base import KnowledgeBase
    from repro.data.rendering import AudioRenderer, ImageRenderer, TextRenderer
    from repro.weights.sampler import ViewPairSampler

    for single, bulk in [
        (KnowledgeBase.create_object, "create_objects"),
        (KnowledgeBase.render_view, "render_views"),
        (ViewPairSampler.sample, "sample_many"),
        (TextRenderer.render, "render_many"),
        (ImageRenderer.render, "render_many"),
        (AudioRenderer.render, "render_many"),
    ]:
        assert _delegated_calls(single) == [bulk], single.__qualname__

    generate = ast.parse(inspect.getsource(repro.data.datasets.generate_knowledge_base))
    called = [
        node.func.attr for node in ast.walk(generate)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    ]
    assert called.count("create_objects") == 1 and "create_object" not in called

    modules = [
        name for _, name, _ in pkgutil.walk_packages(repro.data.__path__, prefix="repro.data.")
    ] + ["repro.weights.sampler"]
    seeded, keyed, numpy_random = {}, {}, []
    for name in modules:
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "derive_rng":
                    seeded.setdefault(name, []).append(node.args[1].value)
                elif node.func.id in ("words", "normals", "uniforms"):
                    keyed.setdefault(name, set()).add(node.func.id)
            elif isinstance(node, ast.Attribute) and node.attr in ("random", "default_rng"):
                if getattr(node.value, "id", "") in ("np", "numpy"):
                    numpy_random.append(name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                imported = _imported(node)
                numpy_random += [name for module in imported if module.startswith("numpy.random")]
    assert seeded == {
        "repro.data.concepts": ["concept"],
        "repro.data.rendering": ["image-projection", "audio-projection"],
    }
    assert keyed == {
        "repro.data.concepts": {"words"},
        "repro.data.rendering": {"words", "normals"},
        "repro.weights.sampler": {"words"},
    }
    assert numpy_random == []

    offenders = []
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        source = inspect.getsource(importlib.import_module(name))
        named = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                named.update(_imported(node))
            named.add(getattr(node, "id", None) or getattr(node, "attr", None) or "")
        offenders += [
            f"{name}: {item}" for item in sorted(named)
            if "bit_generator" in item or item.split(".")[-1] in ("SeedSequence", "PCG64")
        ]
    assert offenders == []


def test_index_code_computes_distances_only_through_a_kernel():
    """Build and search work enters through the kernel's public entries
    (``batch`` / ``batch_many`` / ``batch_paired`` / ``matrix``), which is
    where it is counted: no module under
    ``repro.index`` imports a distance function from
    ``repro.distance.metrics`` (directly or through the package) or reads a
    kernel's private weights to scale rows itself — a build that wants
    scaled rows asks ``kernel.embed``."""
    import repro.distance.metrics as metrics
    import repro.index

    functions = {
        name for name, value in vars(metrics).items()
        if inspect.isfunction(value) and value.__module__ == metrics.__name__
    }
    assert {"pairwise_squared_l2", "squared_norms"} <= functions
    offenders, allowed = [], []
    for info in pkgutil.iter_modules(repro.index.__path__, prefix="repro.index."):
        tree = ast.parse(inspect.getsource(importlib.import_module(info.name)))
        for node in ast.walk(tree):
            where = f"{info.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                if any(alias.name == metrics.__name__ for alias in node.names):
                    offenders.append(where)
            elif isinstance(node, ast.ImportFrom) and node.module == metrics.__name__:
                offenders.append(where)
            elif isinstance(node, ast.ImportFrom) and node.module == "repro.distance":
                names = {alias.name for alias in node.names}
                offenders += [f"{where} {name}" for name in sorted(names & functions)]
                allowed += sorted(names - functions)
            elif isinstance(node, ast.Attribute) and node.attr in ("_sqrt_weights", "_weights"):
                offenders.append(f"{where} .{node.attr}")
    assert "Metric" in allowed, "the import scan lost the package imports"
    assert offenders == []


def _dataclasses_of_repro():
    """Every dataclass defined in a ``repro`` module, with its source tree."""
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        for value in vars(importlib.import_module(name)).values():
            if (
                inspect.isclass(value) and dataclasses.is_dataclass(value)
                and value.__module__ == name
            ):
                yield value, ast.parse(textwrap.dedent(inspect.getsource(value)))


def _called(node):
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


def test_a_parameter_is_checked_once():
    """A field's type and range are declared on the field
    (``repro.utils.param``) and enforced by ``check_fields``: no dataclass
    under ``repro`` compares one of its own fields with a bound, or hands
    one field to ``check_integer`` / ``check_real``, before raising — only a
    rule that spans fields stays as code.  ``config._check``,
    ``check_vamana_params`` and the ``validate`` methods of ``FaultSpec``
    and ``RetryPolicy`` are gone, every dataclass that declares a range
    calls ``check_fields`` at construction (its own ``__post_init__`` /
    ``validate`` or an inherited one), and outside ``repro.utils.checks`` the two
    ``check_*`` helpers check only values that are no field:
    ``TextRenderer``'s two arguments, a session's ``rank`` and
    ``max_concepts``' bound by ``min_concepts``."""
    from repro.core import config, resilience
    from repro.index import vamana

    assert not hasattr(config, "_check") and not hasattr(config, "_COMPARISONS")
    assert not hasattr(vamana, "check_vamana_params")
    assert not hasattr(resilience.FaultSpec, "validate")
    assert not hasattr(resilience.RetryPolicy, "validate")

    hand, unenforced, declaring = [], [], []
    for cls, tree in _dataclasses_of_repro():
        names = {spec.name for spec in dataclasses.fields(cls)}

        def fields_in(node):
            found = set()
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute) and sub.attr in names
                    and getattr(sub.value, "id", "") == "self"
                ):
                    found.add(sub.attr)
                elif isinstance(sub, ast.Call) and _called(sub) == "getattr":
                    found.add("getattr")
            return found

        for node in ast.walk(tree):
            where = f"{cls.__qualname__}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Call) and _called(node) in ("check_integer", "check_real"):
                if len(fields_in(node)) == 1:
                    hand.append(where)
            elif isinstance(node, ast.If) and any(
                isinstance(statement, ast.Raise) for statement in node.body
            ):
                tests = [
                    sub for sub in ast.walk(node.test)
                    if isinstance(sub, ast.Compare)
                    or (isinstance(sub, ast.Call) and _called(sub) == "isinstance")
                ]
                if tests and len(fields_in(node.test)) == 1:
                    hand.append(where)
        if any(
            spec.metadata.get("bounds") or spec.metadata.get("choices") is not None
            for spec in dataclasses.fields(cls)
        ):
            declaring.append(cls.__name__)
            checkers = [
                ast.parse(textwrap.dedent(inspect.getsource(getattr(cls, name))))
                for name in ("__post_init__", "validate") if hasattr(cls, name)
            ]
            if not any(
                isinstance(node, ast.Call) and _called(node) == "check_fields"
                for checker in checkers for node in ast.walk(checker)
            ):
                unenforced.append(cls.__name__)
    assert hand == []
    assert unenforced == []
    assert {"MQAConfig", "HnswParams", "FaultSpec", "SLOTargets"} <= set(declaring), (
        "the dataclass scan lost the declaring classes"
    )

    calls = []
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if name == "repro.utils.checks":
            continue
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        calls += [
            (name, node.args[0].value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _called(node) in ("check_integer", "check_real")
        ]
    assert sorted(calls) == [
        ("repro.core.session", "rank"),
        ("repro.data.datasets", "max_concepts"),
        ("repro.data.rendering", "drop_probability"),
        ("repro.data.rendering", "filler_count"),
    ]


def test_an_api_body_is_read_through_its_declaration():
    """Each route's body is a dataclass read by ``repro.utils.read_fields``
    and checked by ``check_fields`` at construction; ``ApiServer`` reads
    nothing else of it.  Outside the reader, ``repro/server/api.py`` never
    subscripts a body or a query spec, never calls ``.get`` on one, never
    asks whether a key is in one, and never ``isinstance``-checks a value
    taken from one — only ``handle`` checks that the body is an object at
    all.  The hand readers (``_int_field``, ``_text_field``,
    ``_weights_field``, ``_require_field``, ``_deadline_override``) are
    gone."""
    from repro.server import api

    tree = ast.parse(inspect.getsource(api))
    raw = {"body", "spec"}

    def rooted(node):
        """The name a chain of attributes and subscripts starts from."""
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return getattr(node, "id", None)

    offenders = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(function):
            where = f"{getattr(function, 'name', 'lambda')}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Subscript) and rooted(node.value) in raw:
                offenders.append(f"{where} subscript")
            elif (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and rooted(node.func.value) in raw
            ):
                offenders.append(f"{where} .get")
            elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
            ) and any(rooted(side) in raw for side in node.comparators):
                offenders.append(f"{where} in")
            elif isinstance(node, ast.Call) and _called(node) == "isinstance":
                subject = node.args[0]
                if rooted(subject) in raw and not (
                    isinstance(subject, ast.Name) and getattr(function, "name", "") == "handle"
                ):
                    offenders.append(f"{where} isinstance")
    assert offenders == []

    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not defined & {
        "_int_field", "_text_field", "_weights_field", "_require_field", "_deadline_override",
    }

    with api.ApiServer() as server:
        declared = {cls for cls, _ in server._routes.values() if cls is not None}
    assert {api.QuestionBody, api.SearchBody, api.IngestBody} <= declared
    for cls in declared | {api.SearchQuery}:
        assert dataclasses.is_dataclass(cls) and issubclass(cls, api.Body), cls
    checker = ast.parse(textwrap.dedent(inspect.getsource(api.Body.__post_init__)))
    assert [_called(node) for node in ast.walk(checker) if isinstance(node, ast.Call)] == [
        "check_fields"
    ]


def test_one_module_loads_a_shared_library():
    """Only ``repro.utils.blas`` touches ``ctypes``: it finds the OpenBLAS
    numpy has loaded and sets it to one thread at ``import repro``, and
    trims the C heap at the end of set-up.  A second
    module reaching into native libraries is a second place where the
    process's threads are decided."""
    loaders = set()
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "ctypes" for module in modules):
                loaders.add(name)
    assert loaders == {"repro.utils.blas"}


def test_a_registry_is_declared_once():
    """Every component the panel picks by name is an entry of one
    :class:`repro.utils.Registry`, read by its one reader of declared
    parameters.  No module under ``repro`` but ``repro.utils.registry``
    defines a ``register_*`` / ``available_*`` function or keeps a
    module-level dict from names to classes or lambdas — the five
    hand-copied tables (four ``*/registry.py`` modules and the shard
    router's ``PARTITIONERS`` dict) are gone — and each public
    ``register_*`` / ``available_*`` is the shared object's method."""

    def factory(node):
        """A lambda, or a class by its PEP 8 name (``HashPartitioner``)."""
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
        return isinstance(node, ast.Lambda) or name[:1].isupper()

    offenders = []
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if name == "repro.utils.registry":
            continue
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith(
                ("register_", "available_")
            ):
                offenders.append(f"{name}.{node.name}")
            elif (
                isinstance(node, (ast.Assign, ast.AnnAssign))
                and isinstance(node.value, ast.Dict) and node.value.values
                and all(factory(value) for value in node.value.values)
            ):
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []

    from repro import encoders, index, llm, retrieval
    from repro.core import sharding
    from repro.utils import Registry

    bound = {
        encoders: ("register_encoder_set", "available_encoder_sets"),
        index: ("register_index", "available_indexes", "build_index"),
        llm: ("register_llm", "available_llms", "build_llm"),
        retrieval: ("register_framework", "available_frameworks", "build_framework"),
        sharding: ("available_partitioners",),
    }
    for module, names in bound.items():
        for public in names:
            assert isinstance(getattr(module, public).__self__, Registry), public


#: Modules no served root or cited experiment imports, each kept for the
#: open ROADMAP item named beside it.  At most five.
UNREACHED_ON_PURPOSE: dict = {}


def _imported_names(path: Path, package: str) -> set:
    """Every module name an ``import`` anywhere in ``path`` may load (a
    ``from x import y`` names ``x`` and ``x.y``, which may be a module)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join([*anchor, base] if base else anchor)
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_every_module_is_reached_from_a_served_root():
    """Code that nothing served and no paper experiment imports is deleted:
    the import closure of ``repro.cli``, ``repro.__main__``,
    ``repro.server.api``, ``repro.core`` and the ``benchmarks/bench_*.py``
    files EXPERIMENTS.md cites (with the conftest they all load) covers
    every ``repro`` module but the few named in ``UNREACHED_ON_PURPOSE``."""
    root = Path(__file__).resolve().parents[1]
    modules = {name for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")}
    modules.add("repro")
    cited = sorted(set(re.findall(r"bench_\w+\.py", (root / "EXPERIMENTS.md").read_text())))
    assert len(cited) >= 10, "the EXPERIMENTS.md scan lost the cited benchmarks"
    pending = ["repro.cli", "repro.__main__", "repro.server.api", "repro.core"]
    for script in ["conftest.py", *cited]:
        pending += _imported_names(root / "benchmarks" / script, "benchmarks")
    reached = set()
    while pending:
        name = pending.pop()
        if name not in modules or name in reached:
            continue
        reached.add(name)
        parts = name.split(".")
        pending += [".".join(parts[:i]) for i in range(1, len(parts))]
        path = Path(importlib.util.find_spec(name).origin)
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        pending += _imported_names(path, package)
    assert len(UNREACHED_ON_PURPOSE) <= 5
    assert sorted(modules - reached) == sorted(UNREACHED_ON_PURPOSE)
