"""Command-line interface: an interactive MQA shell over the API layer.

Usage::

    python -m repro --domain scenes --size 400          # interactive shell
    python -m repro --domain food --ask "moldy cheese"  # one-shot query
    python -m repro --workers 4 --ask "foggy peaks"     # concurrent engine
    python -m repro replay flight.jsonl                 # re-execute a recording
    python -m repro profile flight.jsonl                # aggregate its spans
    python -m repro loadgen --workers 4 --queries 200   # throughput report
    python -m repro stats --queries 100                 # cost-plane report

Inside the shell::

    > foggy clouds over mountains        # any text = a query
    > /select 0                          # click result card 0
    > /refine more of these at dusk      # refine from the selection
    > /status  /weights  /transcript     # panels
    > /quit
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core import MQAConfig
from repro.core.config import add_config_arguments, config_overrides
from repro.data import DOMAINS, DatasetSpec
from repro.errors import ConfigurationError, DataError
from repro.observability import ProfileAggregator, Span, read_recording
from repro.server import ApiServer


#: The :class:`MQAConfig` fields (by name or declared alias) each parser
#: exposes; flag, type, default, choices and help come from the field.
SHELL_FIELDS = (
    "framework", "index", "encoder_set", "llm", "k", "trace", "record",
    "monitor", "workers", "max_batch", "shards", "replicas",
    "resilience", "deadline_ms", "retry_attempts", "fault_seed", "tiered",
    "quantize_bits", "rerank_factor", "mmap_cache_blocks", "planner",
    "semantic_cache", "admission", "agentic",
)
LOADGEN_FIELDS = (
    "workers", "batch", "shards", "replicas", "index", "tiered",
    "quantize_bits", "rerank_factor", "mmap_cache_blocks", "planner",
    "semantic_cache", "admission", "deadline_ms", "cache",
)
STATS_FIELDS = ("workers", "shards", "replicas", "batch")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Interactive multi-modal query answering (MQA reproduction)",
    )
    parser.add_argument(
        "--domain", default="scenes", choices=sorted(DOMAINS),
        help="knowledge-base domain",
    )
    parser.add_argument("--size", type=int, default=400, help="knowledge-base size")
    parser.add_argument("--seed", type=int, default=7, help="generation seed")
    parser.add_argument(
        "--ask", default=None, help="one-shot query instead of the shell"
    )
    parser.add_argument(
        "--inject", action="append", default=None, metavar="SPEC",
        dest="inject",
        help="seeded fault injection, repeatable; SPEC is "
        "'site:key=value[,key=value...]', e.g. "
        "'llm.generate:error_rate=0.2' or 'encoder:latency_ms=50,"
        "latency_rate=0.5' (implies --resilience)",
    )
    add_config_arguments(parser, SHELL_FIELDS)
    return parser


def parse_fault_specs(specs: "Optional[List[str]]") -> dict:
    """Parse repeated ``--inject site:key=value,...`` flags into a faults dict.

    Raises SystemExit with a usage message on malformed specs; validation
    of the keys/values themselves happens in ``MQAConfig.validate``.  A value
    is an ``int`` where it spells one (``max_faults=2``), else a ``float``.
    """
    faults: dict = {}
    for spec in specs or []:
        site, sep, body = spec.partition(":")
        site = site.strip()
        if not sep or not site or not body.strip():
            raise SystemExit(
                f"--inject {spec!r}: expected 'site:key=value[,key=value...]'"
            )
        entry = faults.setdefault(site, {})
        for pair in body.split(","):
            key, sep, value = pair.partition("=")
            key = key.strip()
            if not sep or not key:
                raise SystemExit(
                    f"--inject {spec!r}: malformed 'key=value' pair {pair!r}"
                )
            number = int if value.strip().lstrip("+-").isdigit() else float
            try:
                entry[key] = number(value)
            except ValueError:
                raise SystemExit(
                    f"--inject {spec!r}: value for {key!r} must be numeric"
                ) from None
    return faults


def make_server(args: argparse.Namespace) -> ApiServer:
    """Build and apply the configured system, reporting progress; a refused
    configuration is one ``error:`` line on stderr and exit status 1."""
    overrides = config_overrides(args)
    faults = parse_fault_specs(args.inject)
    overrides["resilience"] = bool(
        overrides["resilience"] or faults or overrides["deadline_ms"]
    )
    try:
        config = MQAConfig(
            dataset=DatasetSpec(domain=args.domain, size=args.size, seed=args.seed),
            weight_learning={"steps": 30, "batch_size": 16},
            faults=faults,
            **overrides,
        )
    except (ConfigurationError, DataError) as exc:
        raise SystemExit(f"error: {exc}") from None
    server = ApiServer(config)
    print(f"building {args.domain} knowledge base ({args.size} objects)...")
    response = server.handle("POST", "/apply")
    if not response["ok"]:
        print("setup failed:", response["error"], file=sys.stderr)
        raise SystemExit(1)
    for key, value in response["summary"].items():
        print(f"  {key}: {value}")
    return server


ASCII_RAMP = " .:-=+*#%@"


def ascii_image(image, width: int = 32) -> str:
    """Render a synthetic image grid as character art for the terminal."""
    import numpy as np

    grid = np.asarray(image, dtype=float)
    low, high = grid.min(), grid.max()
    span = (high - low) or 1.0
    normalised = (grid - low) / span
    lines = []
    for row in normalised:
        chars = [
            ASCII_RAMP[min(int(v * len(ASCII_RAMP)), len(ASCII_RAMP) - 1)]
            for v in row
        ]
        # double each char so the aspect ratio looks square-ish
        lines.append("".join(c * 2 for c in chars))
    return "\n".join(lines)


def print_answer(payload: dict) -> None:
    """Print one answer payload (text plus ranked result cards).

    Agentic payloads additionally carry ``claims`` and ``groundedness``;
    both are rendered when present and silently skipped otherwise.
    """
    print("mqa :", payload["text"])
    for rank, item in enumerate(payload["items"]):
        star = "*" if item["preferred"] else " "
        print(
            f"   {star}[{rank}] #{item['object_id']} {item['description']} "
            f"(score {item['score']})"
        )
    claims = payload.get("claims")
    if claims:
        print("   claims:")
        for claim in claims:
            mark = "+" if claim.get("supported") else "-"
            cites = ", ".join(f"#{cid}" for cid in claim.get("citations", []))
            refined = " (refined)" if claim.get("refined") else ""
            print(
                f"    {mark} {claim.get('concept')}: "
                f"cites [{cites}]{refined}"
            )
    if payload.get("groundedness") is not None:
        print(f"   groundedness: {payload['groundedness']}")


def print_trace(server: ApiServer) -> None:
    """Print the most recent query's span tree, if tracing captured one."""
    response = server.handle("GET", "/trace", {"limit": 1})
    if response.get("ok") and response.get("traces"):
        print("trace:")
        print(Span.from_dict(response["traces"][-1]).render(indent=1))


def report_shell_error(server: ApiServer, command: str, exc: BaseException) -> None:
    """Report a shell-command failure without losing the traceback.

    Prints a one-line error for the user, records the full traceback in
    the coordinator event log, and increments the ``cli.errors`` metric,
    so interactive failures are observable via ``/events`` and
    ``/metrics`` rather than silently swallowed.
    """
    import traceback

    print(f"error: {type(exc).__name__}: {exc}")
    coordinator = server._coordinator
    if coordinator is None:
        return
    trace = "".join(traceback.format_exception(exc)).strip()
    coordinator.events.record("qa", "coordinator", "cli-error", f"{command}: {trace}")
    coordinator.metrics.inc("cli.errors")


def show_object(server: ApiServer, object_id: str) -> None:
    """``/show ID``: an object's image as character art, and its caption."""
    if not object_id:
        print("usage: /show OBJECT_ID")
        return
    try:
        obj = server._coordinator.get_object(int(object_id))
        print(ascii_image(obj.get("image")))
        print("caption:", obj.get("text"))
    except Exception as exc:  # noqa: BLE001 - interactive surface
        report_shell_error(server, "/show", exc)


def _print_events(response: dict) -> None:
    for event in response["events"]:
        print(f"  {event['source']} -> {event['target']}: {event['kind']}")


def _print_health(response: dict) -> None:
    if not response["monitoring"]:
        print("monitoring disabled (start with --monitor)")
        return
    slo = response["slo"]
    print(
        f"state: {response['state']} "
        f"(p95 {slo.get('window_p95_ms', 0)} ms, "
        f"errors {slo.get('window_error_rate', 0)})"
    )
    quality = response.get("quality")
    if quality:
        print(
            f"quality: recall@{quality['k']} {quality['mean_recall_at_k']}, "
            f"mrr {quality['mean_mrr']} ({quality['sampled']} sampled)"
        )


#: Shell command -> (method, route, the body made of the rest of the line,
#: what to print of a served reply; None prints an answer).  Words go to the
#: server as typed: the route's body declaration reads and checks them.
SHELL_COMMANDS = {
    "/status": ("GET", "/status", lambda rest: {}, lambda reply: print(reply["rendered"])),
    "/weights": ("GET", "/weights", lambda rest: {}, lambda reply: print(reply["weights"])),
    "/transcript": ("GET", "/transcript", lambda rest: {},
                    lambda reply: print(reply["transcript"])),
    "/events": ("GET", "/events", lambda rest: {}, _print_events),
    "/health": ("GET", "/health", lambda rest: {}, _print_health),
    "/profile": ("GET", "/profile", lambda rest: {"format": "table"},
                 lambda reply: print(reply["table"])),
    "/select": ("POST", "/select", lambda rest: {"rank": (rest.split() or [0])[0]},
                lambda reply: print(f"selected #{reply['selected_object_id']}")),
    "/reject": ("POST", "/reject", lambda rest: {"rank": (rest.split() or [0])[0]},
                lambda reply: print(f"rejected #{reply['rejected_object_id']}")),
    "/ingest": ("POST", "/ingest", lambda rest: {"concepts": rest.split()},
                lambda reply: print(f"ingested as #{reply['object_id']}")),
    "/refine": ("POST", "/refine", lambda rest: {"text": rest}, None),
}


def run_shell(
    server: ApiServer, show_trace: bool = False, agentic: bool = False
) -> None:
    """The interactive read-eval loop.

    With ``agentic`` set, plain query lines go through ``POST /ask``
    (multi-hop answering) instead of ``POST /query``.
    """
    print("\ntype a query, /select N, /reject N, /refine TEXT, /show ID,")
    print("/ingest concept1 concept2 ..., /status, /weights, /transcript,")
    print("/events, /health, /profile, or /quit\n")
    query = ("POST", "/ask" if agentic else "/query", None, None)
    while True:
        try:
            line = input("> ").strip()
        except (EOFError, KeyboardInterrupt):
            print()
            return
        if not line:
            continue
        if line in ("/quit", "/exit"):
            return
        command, _, rest = line.partition(" ")
        if command == "/show":
            show_object(server, rest.strip())
            continue
        method, route, body_of, show = SHELL_COMMANDS.get(command, query)
        body = {"text": line} if body_of is None else body_of(rest.strip())
        response = server.handle(method, route, body)
        if not response["ok"]:
            print("error:", response["error"])
        elif show is not None:
            show(response)
        else:
            print_answer(response["answer"])
            if show_trace:
                print_trace(server)


def run_replay(argv: List[str]) -> int:
    """``python -m repro replay <trace-file> [--trace-id N]``.

    Re-executes a flight recording against a freshly built system and
    prints the per-entry diff; exits non-zero when any replayed entry
    drifted from its recording.
    """
    from repro.observability.replay import ReplayError, replay_recording

    parser = argparse.ArgumentParser(
        prog="repro replay",
        description="Deterministically re-execute a flight recording",
    )
    parser.add_argument("trace_file", help="flight-recorder JSONL file")
    parser.add_argument(
        "--trace-id", type=int, default=None, dest="trace_id",
        help="replay only this recorded trace id",
    )
    args = parser.parse_args(argv)
    print(f"replaying {args.trace_file} (rebuilding the recorded system)...")
    try:
        reports = replay_recording(args.trace_file, trace_id=args.trace_id)
    except (ReplayError, OSError, ValueError) as exc:
        print("error:", exc, file=sys.stderr)
        return 1
    for report in reports:
        print(report.render())
    replayed = [r for r in reports if r.skipped is None]
    drifted = [r for r in replayed if not r.clean]
    print(
        f"{len(replayed)} replayed, {len(reports) - len(replayed)} skipped, "
        f"{len(drifted)} drifted"
    )
    return 1 if drifted else 0


def run_profile(argv: List[str]) -> int:
    """``python -m repro profile <trace-file> [--format table|collapsed]``.

    Folds every span tree of a flight recording into the per-path
    profile table (or collapsed-stack lines for flamegraph tooling).
    """
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="Aggregate the span trees of a flight recording",
    )
    parser.add_argument("trace_file", help="flight-recorder JSONL file")
    parser.add_argument(
        "--format", default="table", choices=("table", "collapsed"),
        help="table = per-path profile, collapsed = flamegraph stacks",
    )
    args = parser.parse_args(argv)
    try:
        _, entries = read_recording(args.trace_file)
        trees = [Span.from_dict(e["span_tree"]) for e in entries if e.get("span_tree")]
    except (OSError, ValueError) as exc:
        print("error:", exc, file=sys.stderr)
        return 1
    if not trees:
        print(f"{args.trace_file}: no span trees recorded", file=sys.stderr)
        return 1
    aggregator = ProfileAggregator().add_traces(trees)
    if args.format == "collapsed":
        print(aggregator.collapsed(), end="")
    else:
        print(aggregator.render())
    return 0


def build_loadgen_parser() -> argparse.ArgumentParser:
    """The ``python -m repro loadgen`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro loadgen",
        description="Concurrent synthetic load generation; with --batch above 1 "
        "reads become raw POST /search requests that coalesce server-side "
        "(1 = dialogue /query verbs), and --cache turns on the query cache, "
        "which is off here for uniform read cost",
    )
    parser.add_argument("--queries", type=int, default=200, help="total operations")
    parser.add_argument(
        "--write-every", type=int, default=10, dest="write_every",
        help="every Nth operation is an ingest (0 = read-only)",
    )
    parser.add_argument("--domain", default="scenes", help="knowledge-base domain")
    parser.add_argument("--size", type=int, default=300, help="knowledge-base size")
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument(
        "--llm-latency-ms", type=float, default=25.0, dest="llm_latency_ms",
        help="simulated remote-LLM latency per generation call",
    )
    parser.add_argument(
        "--client-workers", type=int, default=None, dest="client_workers",
        help="client thread count (defaults to --workers; oversubscribe "
        "to create queueing pressure)",
    )
    parser.add_argument(
        "--near-duplicate-every", type=int, default=0,
        dest="near_duplicate_every",
        help="rewrite every Nth read as a word-order permutation of the "
        "previous one (semantic-cache workload; 0 = off)",
    )
    parser.add_argument(
        "--shed-retry-ms", type=float, default=0.0, dest="shed_retry_ms",
        help="client backoff before retrying a shed request (0 = treat "
        "shed as final)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH", help="also write the full report as JSON"
    )
    add_config_arguments(parser, LOADGEN_FIELDS)
    return parser


def run_loadgen_command(argv: List[str]) -> int:
    """``python -m repro loadgen [--workers N] [--queries N] ...``.

    Fires a deterministic mixed read/write workload at a freshly built
    system through the concurrent query engine and prints throughput,
    latency percentiles, and engine statistics.
    """
    import json

    from repro.server.loadgen import run_loadgen

    args = build_loadgen_parser().parse_args(argv)
    print(
        f"loadgen: {args.queries} ops, workers={args.workers}, "
        f"write every {args.write_every or 'never'}, "
        f"llm latency {args.llm_latency_ms} ms"
    )
    report = run_loadgen(
        queries=args.queries,
        write_every=args.write_every,
        domain=args.domain,
        size=args.size,
        seed=args.seed,
        llm_latency_ms=args.llm_latency_ms,
        client_workers=args.client_workers,
        near_duplicate_every=args.near_duplicate_every,
        shed_retry_ms=args.shed_retry_ms,
        **config_overrides(args),
    )
    print(
        f"  {report['operations']} ops ({report['reads']} reads, "
        f"{report['writes']} writes) in {report['elapsed_s']} s"
    )
    print(f"  throughput: {report['throughput_qps']} ops/s")
    latency = report["latency_ms"]
    print(
        f"  latency: p50 {latency['p50']} ms, p95 {latency['p95']} ms, "
        f"p99 {latency['p99']} ms, max {latency['max']} ms"
    )
    print(f"  errors: {report['errors']}")
    goodput = report.get("goodput")
    if goodput is not None:
        print(
            f"  goodput: {goodput['good']} good "
            f"(ratio {goodput['ratio']}, {goodput['qps']} good ops/s); "
            f"degraded={goodput['degraded']} shed={goodput['shed']} "
            f"deadline_exceeded={goodput['deadline_exceeded']} "
            f"saturated={goodput['saturated']}"
        )
    cache_snap = report.get("cache")
    if cache_snap is not None:
        line = (
            f"  cache: {cache_snap['hits']} hits / "
            f"{cache_snap['misses']} misses "
            f"(rate {cache_snap['hit_rate']:.1%})"
        )
        if cache_snap.get("semantic"):
            line += (
                f", semantic {cache_snap['semantic_hits']} hits / "
                f"{cache_snap['semantic_rejects']} rejected "
                f"(rate {cache_snap['semantic_hit_rate']:.1%})"
            )
        print(line)
    engine = report["engine"]
    print(
        f"  engine: workers={engine['workers']} completed={engine['completed']} "
        f"rejected={engine['rejected']} "
        f"queue wait p95 {engine['queue_wait_ms']['p95']} ms"
    )
    batching = report.get("batching") or {}
    if batching.get("enabled"):
        print(
            f"  batching: max={batching['max_batch']} "
            f"batches={batching['batches']} queries={batching['queries']} "
            f"histogram={batching['histogram']}"
        )
    sharding = report.get("sharding") or {}
    if sharding.get("enabled"):
        live = [shard["live"] for shard in sharding["per_shard"]]
        print(
            f"  sharding: {sharding['shards']} shard(s) × "
            f"{sharding['replicas']} replica(s), live per shard {live}, "
            f"moves={sharding['moves']} degraded={sharding['degraded_searches']}"
        )
    tiered = report.get("tiered")
    if tiered:
        totals = tiered["totals"]
        print(
            f"  tiered: {totals['stores']} store(s), "
            f"{totals['resident_bytes']} B resident / "
            f"{totals['full_bytes']} B spilled, "
            f"mmap hit rate {totals['mmap_hit_rate']}, "
            f"reranked rows {totals['reranked_rows']}"
        )
    if args.json:
        from pathlib import Path

        Path(args.json).write_text(json.dumps(report, indent=2))
        print(f"  report written to {args.json}")
    return 1 if report["errors"] else 0


def render_stats(snapshot: dict) -> str:
    """Render a ``GET /stats`` snapshot as the CLI's cost table."""
    lines = [
        f"cost plane: {snapshot['queries']} queries observed, "
        f"{len(snapshot['exemplars'])} exemplar(s) retained"
    ]
    header = (
        f"  {'framework':<14} {'index':<8} {'shard':>5} {'queries':>7} "
        f"{'p50 ms':>8} {'p95 ms':>8} {'p99 ms':>8} {'evals':>8} {'recall':>7}"
    )
    lines.append(header)
    for group in snapshot["groups"]:
        latency = group["latency_ms"]
        recall = group.get("recall_at_k")
        lines.append(
            f"  {group['framework']:<14} {group['index']:<8} "
            f"{group['shard']:>5} {group['queries']:>7} "
            f"{latency['p50']:>8.2f} {latency['p95']:>8.2f} "
            f"{latency['p99']:>8.2f} "
            f"{group['distance_evaluations']['mean']:>8.1f} "
            + (f"{recall['mean']:>7.3f}" if recall else f"{'-':>7}")
        )
    for exemplar in snapshot["exemplars"]:
        lines.append(
            f"  slowest: trace {exemplar['trace_id']} "
            f"({exemplar['latency_ms']} ms, {exemplar['framework']}"
            f"/{exemplar['index']})"
        )
    return "\n".join(lines)


def build_stats_parser() -> argparse.ArgumentParser:
    """The ``python -m repro stats`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro stats",
        description="Per-query cost accounting report over a synthetic workload",
    )
    parser.add_argument("--queries", type=int, default=60, help="total operations")
    parser.add_argument("--domain", default="scenes", help="knowledge-base domain")
    parser.add_argument("--size", type=int, default=200, help="knowledge-base size")
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the stats snapshot as JSON",
    )
    add_config_arguments(parser, STATS_FIELDS)
    return parser


def run_stats(argv: List[str]) -> int:
    """``python -m repro stats [--queries N] [--shards N] ...``.

    Drives a deterministic workload with ``cost_accounting`` enabled and
    prints the cost plane's per-(framework, index, shard) distributions
    plus the slowest-query exemplars — the CLI view of ``GET /stats``.
    """
    import json

    from repro.server.loadgen import run_loadgen

    args = build_stats_parser().parse_args(argv)
    report = run_loadgen(
        queries=args.queries,
        write_every=0,
        domain=args.domain,
        size=args.size,
        seed=args.seed,
        llm_latency_ms=0.0,
        cost_accounting=True,
        **config_overrides(args),
    )
    snapshot = report.get("stats")
    if not snapshot:
        print("error: the run produced no cost statistics", file=sys.stderr)
        return 1
    print(render_stats(snapshot))
    if args.json:
        from pathlib import Path

        Path(args.json).write_text(json.dumps(snapshot, indent=2))
        print(f"  snapshot written to {args.json}")
    return 1 if report["errors"] else 0


SUBCOMMANDS = {
    "replay": run_replay,
    "profile": run_profile,
    "loadgen": run_loadgen_command,
    "stats": run_stats,
}


def main(argv: "Optional[List[str]]" = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    args = build_parser().parse_args(argv)
    server = make_server(args)
    if args.ask is not None:
        verb = "/ask" if args.agentic else "/query"
        response = server.handle("POST", verb, {"text": args.ask})
        if not response["ok"]:
            print("error:", response["error"], file=sys.stderr)
            return 1
        print_answer(response["answer"])
        if args.trace:
            print_trace(server)
        return 0
    run_shell(server, show_trace=args.trace, agentic=args.agentic)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
