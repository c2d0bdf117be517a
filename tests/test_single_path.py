"""Structural gate: serial is a batch of one, by construction.

``VectorIndex.search`` and ``RetrievalFramework.retrieve`` are concrete
one-liners over ``search_batch`` / ``retrieve_batch``.  No subclass
anywhere under ``repro`` may define its own ``search`` / ``retrieve`` —
a second body is a second behaviour to keep in step by hand.  The same
holds one layer up: ``QueryExecution.execute`` is ``execute_batch`` of one
and the coordinator runs a stage list, not a hand-threaded round — and for
telemetry: a block is timed by its span and by nothing else, and a served
event is counted in the metrics registry and nowhere else.  A sleep models
a remote wait and never stands in for work.
"""

import ast
import importlib
import inspect
import pkgutil
import textwrap

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


def test_execute_is_a_one_statement_delegation_to_execute_batch():
    from repro.core.execution import QueryExecution

    function = ast.parse(
        textwrap.dedent(inspect.getsource(QueryExecution.execute))
    ).body[0]
    body = [
        node for node in function.body
        if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))
    ]
    assert len(body) == 1 and isinstance(body[0], ast.Return)
    calls = [
        node.func.attr for node in ast.walk(body[0])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    ]
    assert calls == ["execute_batch"]


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


def test_the_index_layer_keeps_one_of_each():
    """One beam loop, one adjacency per layer, one row store: only
    ``search.py`` runs a heap, HNSW has no private search pair and no cached
    copy of layer 0, nothing under ``repro.index`` stacks a matrix to grow
    it (``base.py`` owns growth), and a restored index inserts through the
    pipeline index's own ``add``."""
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

    for name in ("_search_layer", "_greedy_descend", "_base_graph"):
        assert not hasattr(HnswIndex, name)
    assert "_base_graph" not in vars(HnswIndex())
    assert FrozenGraphIndex.add is PipelineGraphIndex.add
    add = ast.parse(textwrap.dedent(inspect.getsource(PipelineGraphIndex.add)))
    assert not [
        node for node in ast.walk(add)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "getattr"
    ]


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
    assert [name for name, _, _ in declared(VectorIndex)][-3:] == [
        "kernel", "admit", "use_pruning",
    ]

    for framework in (JointEmbeddingRetrieval, MultiStreamedRetrieval, MustRetrieval):
        source = inspect.getsource(framework.retrieve_batch)
        assert "_search(" in source, framework.__qualname__
        assert "search_batch(" not in source, framework.__qualname__
        assert "argsort" not in source, framework.__qualname__
    assert "rerank" not in STAGE_OF_SPAN


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
    sampler constructed directly).  JE's ``setup`` fuses corpus rows, not
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
    }
    for cls, names in deleted.items():
        init = ast.parse(textwrap.dedent(inspect.getsource(cls.__init__)))
        assigned = {
            target.attr
            for node in ast.walk(init) if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Attribute)
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
