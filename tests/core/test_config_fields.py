"""One declaration per config field: what is derived from it stays what it was.

``MQAConfig`` declares each field once (default, range or choices, CLI
spelling, help); validation, the three CLI parsers, ``run_loadgen`` and
``POST /configure`` are read off the declarations.  The expectations here
were captured by running the hand-written versions at commit ``d639eca``
(``data/config_surface_d639eca.json`` and ``BOUNDARY_TABLE`` below), so the
derivation may not add, lose or move anything.  Thirteen fields have been
retired since: ``shard_latency_ms_per_1k`` and ``shard_latency_ms``, then the
eleven serving settings no caller set, now their components' own defaults
(``tests.test_single_path.RETIRED_KNOBS``).  Each one's flag rows, bound
rows and ``to_dict`` key left the expectations with it, and a recording
header that still carries one is refused.
"""

import argparse
import ast
import inspect
import json
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from repro import cli
from repro.core import MQAConfig
from repro.errors import ConfigurationError
from repro.server import ApiServer
from repro.server.loadgen import run_loadgen

from tests.test_single_path import RETIRED_KNOBS

REPO = Path(__file__).resolve().parents[2]
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "config_surface_d639eca.json").read_text()
)
FIELDS = {spec.name: spec for spec in fields(MQAConfig)}
#: alias -> field name, as declared (``k`` -> ``result_count`` ...).
ALIASES = {
    spec.metadata["alias"]: name
    for name, spec in FIELDS.items()
    if spec.metadata["alias"]
}
PARSERS = {
    "repro": cli.build_parser,
    "repro loadgen": cli.build_loadgen_parser,
    "repro stats": cli.build_stats_parser,
}

# (field, value, accepted) — the verdicts of d639eca's hand-written
# ``validate()`` on each bound and just outside it.
BOUNDARY_TABLE = [
    ("result_count", 1, True),
    ("result_count", 0, False),
    ("search_budget", 1, True),
    ("search_budget", 0, False),
    ("temperature", 0.0, True),
    ("temperature", 2.0, True),
    ("temperature", -0.001, False),
    ("temperature", 2.001, False),
    ("slo_latency_ms", 0.001, True),
    ("slo_latency_ms", 0.0, False),
    ("workers", 1, True),
    ("workers", 0, False),
    ("max_batch", 1, True),
    ("max_batch", 0, False),
    ("shards", 1, True),
    ("shards", 0, False),
    ("shards", None, True),
    ("replicas", 1, True),
    ("replicas", 0, False),
    ("retry_attempts", 1, True),
    ("retry_attempts", 0, False),
    ("deadline_ms", 0.001, True),
    ("deadline_ms", 0.0, False),
    ("deadline_ms", None, True),
    ("quantize_bits", 4, True),
    ("quantize_bits", 8, True),
    ("quantize_bits", 3, False),
    ("quantize_bits", 5, False),
    ("quantize_bits", 16, False),
    ("rerank_factor", 1, True),
    ("rerank_factor", 0, False),
    ("mmap_cache_blocks", 0, True),
    ("mmap_cache_blocks", -1, False),
    # Past the bounds: a bool is not a number, an integer is integral and a
    # real is finite (d639eca accepted all four).
    ("result_count", True, False),
    ("result_count", 3.5, False),
    ("search_budget", float("inf"), False),
    ("slo_latency_ms", float("inf"), False),
]

# d639eca's messages for an unknown registered name, verbatim.
REGISTRY_MESSAGES = {
    "encoder_set": "unknown encoder set 'no-such'; available: clip-joint, "
    "unimodal-basic, unimodal-strong",
    "index": "unknown index 'no-such'; available: diskann, flat, hnsw, ivf, "
    "nav-must, nsg, starling, vamana",
    "framework": "unknown framework 'no-such'; available: je, mr, must",
    "llm": "unknown llm 'no-such'; available: attribute-qa, markov, template",
    "partitioner": "unknown partitioner 'no-such'; available: concept, hash",
}


class TestRejectionParity:
    @pytest.mark.parametrize("name, value, accepted", BOUNDARY_TABLE)
    def test_bound_verdicts_match_the_hand_written_validate(
        self, name, value, accepted
    ):
        if accepted:
            assert getattr(MQAConfig(**{name: value}), name) == value
            return
        with pytest.raises(ConfigurationError) as caught:
            MQAConfig(**{name: value})
        assert name in str(caught.value) and repr(value) in str(caught.value)

    def test_the_table_covers_every_declared_range(self):
        bounded = {
            name for name, spec in FIELDS.items()
            if spec.metadata["bounds"] or isinstance(spec.metadata["choices"], tuple)
        }
        assert bounded == {name for name, _, _ in BOUNDARY_TABLE}

    @pytest.mark.parametrize("name", sorted(REGISTRY_MESSAGES))
    def test_unknown_registered_name_lists_the_available_ones(self, name):
        with pytest.raises(ConfigurationError) as caught:
            MQAConfig(**{name: "no-such"})
        assert str(caught.value) == REGISTRY_MESSAGES[name]

    def test_registry_fields_are_exactly_the_callable_choice_sources(self):
        assert set(REGISTRY_MESSAGES) == {
            name for name, spec in FIELDS.items()
            if callable(spec.metadata["choices"])
        }

    def test_a_mistyped_value_is_a_configuration_error_too(self):
        with pytest.raises(ConfigurationError, match="workers must be an integer, got 'two'"):
            MQAConfig(workers="two")
        with pytest.raises(ConfigurationError, match="dataset"):
            MQAConfig(dataset={"galaxy": "far away"})

    def test_cross_field_rules_survive(self):
        with pytest.raises(ConfigurationError, match="requires index 'starling'"):
            MQAConfig(tiered=True)
        with pytest.raises(ConfigurationError, match="unknown spec keys"):
            MQAConfig(faults={"llm.generate": {"bogus": 1}})


def surface(parser):
    """What the golden records per flag: spelling, dest, type, default,
    choices and action — everything but the help text."""
    return sorted(
        [
            list(action.option_strings),
            action.dest,
            action.type.__name__ if action.type is not None else None,
            action.default,
            list(action.choices) if action.choices is not None else None,
            type(action).__name__,
        ]
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
    )


class TestParserParity:
    @pytest.mark.parametrize("prog", sorted(PARSERS))
    def test_flag_surface_equals_the_golden(self, prog):
        assert surface(PARSERS[prog]()) == sorted(GOLDEN["parsers"][prog])

    @pytest.mark.parametrize("prog", sorted(PARSERS))
    def test_config_backed_defaults_are_the_dataclass_defaults(self, prog):
        backed = 0
        for action in PARSERS[prog]()._actions:
            spec = FIELDS.get(ALIASES.get(action.dest, action.dest))
            if spec is None or action.dest == "inject":
                continue
            backed += 1
            assert action.help == spec.metadata["help"]
            if spec.type == "bool":
                # A switch can only turn a field on; its resting state is
                # the parser's, which is why loadgen's --cache starts off.
                assert isinstance(action, argparse._StoreTrueAction)
            else:
                assert spec.default is not MISSING
                assert action.default is spec.default
        assert backed == {"repro": 24, "repro loadgen": 14, "repro stats": 4}[prog]

    def test_overrides_are_keyed_by_field_name(self):
        args = cli.build_parser().parse_args(
            ["--k", "3", "--trace", "--record", "f.jsonl", "--llm", "none"]
        )
        overrides = cli.config_overrides(args)
        assert overrides["result_count"] == 3 and overrides["tracing"] is True
        assert overrides["recorder_path"] == "f.jsonl"
        assert MQAConfig(**overrides).llm is None
        assert set(overrides) <= set(FIELDS) and len(overrides) == 24
        batch = cli.config_overrides(
            cli.build_loadgen_parser().parse_args(["--batch", "4", "--cache"])
        )
        assert batch["max_batch"] == 4 and batch["cache_queries"] is True

    def test_partitioner_is_still_not_a_flag(self, capsys):
        for build in PARSERS.values():
            with pytest.raises(SystemExit):
                build().parse_args(["--partitioner", "concept"])
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSerialisationParity:
    def test_default_to_dict_is_byte_identical(self):
        assert json.dumps(MQAConfig().to_dict()) == GOLDEN["to_dict"]["default"]

    def test_all_layers_round_trip_is_byte_identical(self):
        golden = GOLDEN["to_dict"]["all_layers"]
        config = MQAConfig.from_dict(json.loads(golden))
        assert config.tiered and config.shards == 2 and config.agentic
        assert json.dumps(config.to_dict()) == golden

    @pytest.mark.parametrize(
        "key", ["gpu_count", "trace_capacity", "shard_latency_ms", *RETIRED_KNOBS]
    )
    def test_unknown_or_retired_key_is_rejected(self, key):
        header = {**json.loads(GOLDEN["to_dict"]["default"]), key: 1}
        with pytest.raises(ConfigurationError, match=f"unknown configuration keys: {key}"):
            MQAConfig.from_dict(header)


def loadgen_call_sites():
    """(file, keyword names) of every ``run_loadgen(...)`` call in the other
    tests, the benchmarks and the CLI, ``**NAME`` module dicts resolved."""
    paths = [
        *sorted(set((REPO / "tests").rglob("*.py")) - {Path(__file__).resolve()}),
        *sorted((REPO / "benchmarks").glob("bench_*.py")),
        REPO / "src" / "repro" / "cli.py",
    ]
    sites = []
    for path in paths:
        tree = ast.parse(path.read_text())
        tables = {
            node.targets[0].id: node.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "dict"
        }

        def names(call):
            for keyword in call.keywords:
                if keyword.arg is not None:
                    yield keyword.arg
                elif isinstance(keyword.value, ast.Name):
                    yield from names(tables[keyword.value.id])

        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "run_loadgen":
                sites.append((path.name, sorted(set(names(node)))))
    return sites


class TestRunLoadgenSignature:
    def test_every_existing_call_site_still_binds(self):
        """Every call site binds to today's signature.  The floor counts the
        sites that exist: the CLI's two, the endpoint-shape fixture's, and
        two each in the concurrency and the cost-plane parity cases."""
        sites = loadgen_call_sites()
        assert len(sites) >= 7
        own = set(inspect.signature(run_loadgen).parameters) - {"config_overrides"}
        for filename, keywords in sites:
            strays = set(keywords) - own - set(FIELDS)
            assert not strays, f"{filename}: run_loadgen has no {sorted(strays)}"

    def test_aliases_and_overrides_reach_the_config(self):
        report = run_loadgen(
            queries=8, write_every=0, size=60, llm_latency_ms=0.0, k=3, batch=2,
            workers=2, shards=2, semantic_cache=True, deadline_ms=5000.0,
        )
        assert report["errors"] == 0 and report["workers"] == 2
        assert all(len(ids) == 3 for ids in report["read_ids"])
        assert report["batching"]["max_batch"] == 2
        assert report["sharding"]["shards"] == 2
        assert report["cache"]["semantic"]  # semantic_cache implies cache
        assert report["deadline_ms"] == 5000.0

    def test_an_unknown_keyword_is_refused(self):
        with pytest.raises(TypeError, match="gpu_count"):
            run_loadgen(gpu_count=8)


# ----------------------------------------------------------------------
# POST /configure takes any field
# ----------------------------------------------------------------------
ALL_LAYERS = json.loads(GOLDEN["to_dict"]["all_layers"])
FAST = dict(
    weight_learning={"steps": 12, "batch_size": 8, "n_negatives": 4},
    index_params={"m": 6, "ef_construction": 32},
)
STARLING = {
    "block_size": 8,
    "cache_blocks": 4,
    "inner": {"max_degree": 8, "candidate_pool": 16, "build_budget": 24},
}


class TestConfigureAcceptsEveryField:
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_every_field_is_settable(self, name):
        # The base makes each all-layers value legal on its own.
        base = MQAConfig(index="starling", fixed_weights={"text": 1.0, "image": 1.0})
        with ApiServer(base) as server:
            response = server.handle(
                "POST", "/configure", {"option": name, "value": ALL_LAYERS[name]}
            )
            assert response["ok"], response
            assert name in response["feedback"]
            assert server._panel.config.to_dict()[name] == ALL_LAYERS[name]

    def test_a_name_that_is_no_field_is_still_unknown(self):
        response = ApiServer(MQAConfig()).handle(
            "POST", "/configure", {"option": "gpu_count", "value": 8}
        )
        assert not response["ok"]
        assert "unknown configuration option 'gpu_count'" in response["error"]

    def test_an_illegal_value_is_still_rejected_with_feedback(self):
        server = ApiServer(MQAConfig())
        response = server.handle(
            "POST", "/configure", {"option": "rerank_factor", "value": 0}
        )
        assert not response["ok"] and "rerank_factor must be >= 1" in response["error"]
        assert server._panel.feedback[-1] == "rejected: rerank_factor=0"
        assert server._panel.config.rerank_factor == 4

    @pytest.mark.parametrize(
        "steps, probe",
        [
            ([("shards", 2)], lambda c: c.execution.framework.snapshot()["shards"] == 2),
            (
                [("index", "starling"), ("index_params", STARLING), ("tiered", True)],
                lambda c: c.config.summary()["index"].startswith("starling (tiered"),
            ),
            ([("planner", True)], lambda c: c.layer("planner") is not None),
            ([("agentic", True)], lambda c: c.layer("agentic") is not None),
        ],
        ids=["sharded", "tiered", "planner", "agentic"],
    )
    def test_a_layer_configured_through_the_api_answers_queries(
        self, scenes_kb, steps, probe
    ):
        with ApiServer(MQAConfig(**FAST), knowledge_base=scenes_kb) as server:
            for option, value in steps:
                response = server.handle(
                    "POST", "/configure", {"option": option, "value": value}
                )
                assert response["ok"], response
            assert server.handle("POST", "/apply")["ok"]
            assert probe(server._coordinator)
            answer = server.handle("POST", "/query", {"text": "foggy clouds"})
            assert answer["ok"] and answer["answer"]["items"]
