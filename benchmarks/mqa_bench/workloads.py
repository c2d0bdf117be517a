"""The four workloads: configuration, seeded inputs and closed-loop clients.

Every caller waits for its reply before sending the next request.  The
corpus (``scenes``, seed 7) is part of a workload's definition; ``--seed``
drives only the stream of query texts, reference objects and ingests, and
the program under test receives nothing but those generated inputs.
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core import MQAConfig, MQASystem
from repro.data import DatasetSpec, Modality
from repro.data.datasets import DOMAINS
from repro.index.tiered import tiered_snapshot
from repro.server import ApiServer

DOMAIN = "scenes"
CORPUS_SEED = 7
K = 10
BUDGET = 64
BATCH = 16
WORDS: Tuple[str, ...] = tuple(w for names in DOMAINS[DOMAIN].values() for w in names)


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``warmup`` / ``untraced`` / ``traced`` are units (dialogues or batches)
    per client: warm-up before any timing, and the fixed-count passes of the
    per-layer run, whose counters must repeat exactly for a seed.
    """

    name: str
    why: str
    surface: str  # "dialogue" (in-process MQASystem), "serve" or "batch" (ApiServer)
    overrides: Dict[str, Any]
    recall_floor: float
    setup_repeats: int
    warmup: int
    untraced: int
    traced: int
    clients: int = 1
    workers: int = 1
    queries_per_read: int = 1


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="dialogue_hnsw",
        why=(
            "The paper's default path (HNSW, MUST): graph search and ~70 small kernel "
            "calls per read dominate and set-up is ~85% HNSW build, so kernel, search "
            "and build changes show here."
        ),
        surface="dialogue",
        overrides={},
        recall_floor=0.99,
        setup_repeats=1,
        warmup=50, untraced=400, traced=300,
    ),
    Workload(
        name="dialogue_flat",
        why=(
            "Same dialogues, search reduced to one kernel call: encode, coordinator, "
            "execution, generation and session work dominate, so pipeline changes show "
            "here and a graph-search change must not."
        ),
        surface="dialogue",
        overrides={"index": "flat"},
        recall_floor=1.0,
        setup_repeats=5,
        warmup=50, untraced=400, traced=300,
    ),
    Workload(
        name="serve_mixed",
        why=(
            "Two clients on a 2-worker ApiServer mix reads with ingest/remove: RW lock, "
            "cache invalidation, engine queue, payloads, first read after a write; a "
            "read gain paid for by writes shows here."
        ),
        surface="serve",
        overrides={},
        recall_floor=0.99,
        setup_repeats=1,
        warmup=20, untraced=300, traced=100,
        clients=2, workers=2,
    ),
    Workload(
        name="batch_search_tiered",
        why=(
            "POST /search batches of 16 on Starling with the SQ8-resident/mmap-rerank "
            "tier: lockstep search_batch and rerank do the work, serial search and HNSW "
            "none, so a serial-path change must not move it."
        ),
        surface="batch",
        overrides={"index": "starling", "tiered": True, "quantize_bits": 8,
                   "rerank_factor": 4, "mmap_cache_blocks": 32},
        recall_floor=0.95,
        setup_repeats=2,
        warmup=50, untraced=200, traced=100,
        queries_per_read=BATCH,
    ),
)


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(name)


def config_for(workload: Workload, size: int, **overrides: Any) -> MQAConfig:
    """The workload's configuration over a ``size``-object corpus."""
    fields = {**workload.overrides, **overrides}
    return MQAConfig(
        dataset=DatasetSpec(DOMAIN, size=size, seed=CORPUS_SEED),
        result_count=K,
        search_budget=BUDGET,
        **fields,
    )


# ----------------------------------------------------------------------
# the system under test, behind the two surfaces the workloads use
# ----------------------------------------------------------------------
class InProcess:
    """``MQASystem.from_config`` — what a library user holds."""

    def __init__(self, config: MQAConfig) -> None:
        self.system = MQASystem.from_config(config)

    def ledgers(self) -> Dict[str, Any]:
        execution = self.system.coordinator.execution
        return {
            "cache": execution.cache.snapshot() if execution.cache is not None else None,
            "tiered": tiered_snapshot(execution.framework),
        }

    def close(self) -> None:
        pass


class Served:
    """``ApiServer`` with ``POST /apply`` as the set-up."""

    def __init__(self, config: MQAConfig, workers: int) -> None:
        self.server = ApiServer(config, workers=workers)
        reply = self.server.handle("POST", "/apply")
        if not reply.get("ok"):
            self.server.close()
            raise RuntimeError(f"POST /apply failed: {reply.get('error')}")

    def ledgers(self) -> Dict[str, Any]:
        stats = self.server.handle("GET", "/stats")
        return {"cache": stats.get("cache"), "tiered": stats.get("tiered")}

    def close(self) -> None:
        self.server.close()


def set_up(workload: Workload, size: int) -> Any:
    """Build the workload's system; this call is what ``setup_s`` times."""
    config = config_for(workload, size)
    if workload.surface == "dialogue":
        return InProcess(config)
    return Served(config, workload.workers)


# ----------------------------------------------------------------------
# one closed-loop caller
# ----------------------------------------------------------------------
@dataclass
class Sample:
    """A read whose input does not depend on earlier results, with what it
    returned — the recall checks replay these against the oracles."""

    text: str
    reference: Optional[int]
    ids: List[int]
    words: Tuple[str, ...] = ()


@dataclass
class Client:
    """Times each request, counts failures and keeps the recall samples."""

    recorder: Any = None
    # (kind, time it ended, requests, latency) of every successful call;
    # kind is "read", "write" or "other"
    log: List[Tuple[str, float, int, float]] = field(default_factory=list)
    requests: int = 0  # a 16-query batch counts 16
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    samples: List[Sample] = field(default_factory=list)
    read_after_write: List[float] = field(default_factory=list)
    elapsed: float = 0.0

    def call(self, kind: str, fn: Callable, *args: Any, weight: int = 1,
             ok: Optional[Callable[[Any], bool]] = None) -> Any:
        """Run one request; a raised error or a refused reply is a failure
        and never a latency sample.  Returns the reply, or None on failure."""
        self.requests += weight
        scope = nullcontext() if self.recorder is None else self.recorder.operation(kind)
        try:
            with scope:
                start = perf_counter()
                reply = fn(*args)
                end = perf_counter()
        except Exception as exc:  # the benchmark must outlive a failing request
            self.fail(weight, f"{kind} raised {type(exc).__name__}: {exc}")
            return None
        if ok is not None and not ok(reply):
            self.fail(weight, f"{kind} refused: {reply}")
            return None
        self.elapsed = end - start
        self.log.append((kind, end, weight, self.elapsed))
        return reply

    def latencies(self, kind: str) -> List[float]:
        return [elapsed for logged, _, _, elapsed in self.log if logged == kind]

    def fail(self, weight: int, problem: str) -> None:
        self.failed += weight
        self.flag(problem)

    def flag(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem[:300])

    def check_items(self, ids: List[int], where: str) -> None:
        if len(ids) != K:
            self.flag(f"{where} returned {len(ids)} items, expected {K}")


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
class Inputs:
    """One client's input stream.

    Texts are 2-4 distinct concept words and never repeat within a run
    (so the default-on query cache misses) unless a repeat is asked for.
    The first word comes from the client's own slice of the vocabulary,
    which keeps the clients' texts apart without sharing state.
    """

    def __init__(self, seed: int, client: int, clients: int, corpus_size: int,
                 stream: Optional[int] = None) -> None:
        self.rng = np.random.default_rng([seed, client if stream is None else stream])
        self.own = WORDS[client::clients]
        self.corpus_size = corpus_size
        self.seen: set = set()
        self.recent: Deque[str] = deque(maxlen=20)

    def words(self) -> Tuple[str, ...]:
        rng = self.rng
        while True:
            first = self.own[int(rng.integers(len(self.own)))]
            rest = [w for w in WORDS if w != first]
            picks = rng.permutation(len(rest))[: int(rng.integers(1, 4))]
            words = (first, *(rest[int(i)] for i in picks))
            if words not in self.seen:
                self.seen.add(words)
                return words

    def extra(self, words: Tuple[str, ...]) -> str:
        rest = [w for w in WORDS if w not in words]
        return rest[int(self.rng.integers(len(rest)))]

    def reference(self) -> int:
        return int(self.rng.integers(self.corpus_size))


class Driver:
    """Plays one client's units (a dialogue, a batch) in a closed loop."""

    def __init__(self, target: Any, inputs: Inputs) -> None:
        self.target = target
        self.inputs = inputs

    def run(self, client: Client, units: Optional[int] = None,
            deadline: Optional[float] = None) -> None:
        """Play ``units`` units, or units until ``deadline`` has passed."""
        done = 0
        while (units is None or done < units) and (
                deadline is None or perf_counter() < deadline):
            self.play(client, self.script())
            done += 1

    def script(self) -> Any:
        """The next unit's generated inputs."""
        raise NotImplementedError

    def play(self, client: Client, script: Any) -> None:
        raise NotImplementedError


class DialogueDriver(Driver):
    """reset -> ask(text) -> select(0) -> refine(text + 1 concept) -> reset
    -> ask(text, image of a KB object): three reads and one select."""

    def script(self) -> Dict[str, Any]:
        words = self.inputs.words()
        return {
            "words": words,
            "text": " ".join(words),
            "refine": " ".join((*words, self.inputs.extra(words))),
            "reference": self.inputs.reference(),
        }

    def play(self, client: Client, script: Dict[str, Any]) -> None:
        system: MQASystem = self.target.system
        text = script["text"]
        system.reset_dialogue()
        first = client.call("read", system.ask, text)
        if first is None:
            return
        client.check_items(first.ids, "ask")
        client.samples.append(Sample(text, None, first.ids, script["words"]))
        if client.call("other", system.select, 0) is None:
            return
        refined = client.call("read", system.refine, script["refine"])
        if refined is not None:
            client.check_items(refined.ids, "refine")
        system.reset_dialogue()
        image = system.kb.get(script["reference"]).get(Modality.IMAGE)
        pictured = client.call("read", system.ask, text, image)
        if pictured is not None:
            client.check_items(pictured.ids, "ask+image")
            client.samples.append(Sample(text, script["reference"], pictured.ids))


def _ok(reply: Dict[str, Any]) -> bool:
    return bool(reply.get("ok"))


def _answer_ids(reply: Dict[str, Any]) -> List[int]:
    return [item["object_id"] for item in reply["answer"]["items"]]


class Removed:
    """Ids the clients have removed, in order, shared by both threads.

    A read may still return an id whose ``/remove`` finished after the read
    began, so a read remembers :meth:`mark` first and is checked only
    against removals before that mark.  ``dirty`` is set by every finished
    write and taken by the next read to start (first read after a write).
    """

    def __init__(self) -> None:
        self.order: Dict[int, int] = {}
        self.dirty = False

    def mark(self) -> int:
        return len(self.order)

    def add(self, object_id: int) -> None:
        self.order[object_id] = len(self.order)

    def stale(self, ids: List[int], mark: int) -> List[int]:
        return [i for i in ids if self.order.get(i, mark) < mark]


class ServeDriver(Driver):
    """/session/new -> /query -> /select -> /refine -> /query with a
    reference object; every 3rd dialogue one /ingest, every 6th one /remove
    of an object this client ingested; 10% of /query texts repeat one of the
    client's last 20."""

    def __init__(self, target: Served, inputs: Inputs, removed: Removed) -> None:
        super().__init__(target, inputs)
        self.removed = removed
        self.scripted = 0
        self.ingested: Deque[int] = deque()

    def script(self) -> Dict[str, Any]:
        inputs = self.inputs
        self.scripted += 1
        if inputs.recent and inputs.rng.random() < 0.1:
            text = inputs.recent[int(inputs.rng.integers(len(inputs.recent)))]
            words = tuple(text.split())
        else:
            words = inputs.words()
            text = " ".join(words)
        inputs.recent.append(text)
        return {
            "text": text,
            "refine": " ".join((*words, inputs.extra(words))),
            "reference": inputs.reference(),
            "ingest": list(inputs.words()[:2]) if self.scripted % 3 == 0 else None,
            "remove": self.scripted % 6 == 0,
        }

    def post(self, client: Client, kind: str, path: str, body: Dict[str, Any]) -> Any:
        removed = self.removed
        first_after_write = False
        if kind == "read":
            mark = removed.mark()
            first_after_write, removed.dirty = removed.dirty, False
        reply = client.call(kind, self.target.server.handle, "POST", path, body, ok=_ok)
        if reply is None:
            return None
        if kind == "read":
            ids = _answer_ids(reply)
            client.check_items(ids, path)
            stale = removed.stale(ids, mark)
            if stale:
                client.flag(f"{path} returned removed ids {stale}")
            if first_after_write:
                client.read_after_write.append(client.elapsed)
        return reply

    def play(self, client: Client, script: Dict[str, Any]) -> None:
        opened = self.post(client, "other", "/session/new", {})
        if opened is None:
            return
        session = opened["session"]
        text = script["text"]
        first = self.post(client, "read", "/query", {"text": text, "session": session})
        if first is None:
            return
        client.samples.append(Sample(text, None, _answer_ids(first), tuple(text.split())))
        self.post(client, "other", "/select", {"rank": 0, "session": session})
        self.post(client, "read", "/refine", {"text": script["refine"], "session": session})
        self.post(client, "read", "/query", {
            "text": text, "reference_object_id": script["reference"], "session": session,
        })
        if script["ingest"] is not None:
            reply = self.post(client, "write", "/ingest", {"concepts": script["ingest"]})
            if reply is not None:
                self.ingested.append(reply["object_id"])
                self.removed.dirty = True
        if script["remove"] and self.ingested:
            object_id = self.ingested.popleft()
            if self.post(client, "other", "/remove", {"object_id": object_id}) is not None:
                self.removed.add(object_id)
                self.removed.dirty = True


class BatchDriver(Driver):
    """POST /search with 16 query specs, every 4th with a reference object."""

    def script(self) -> List[Dict[str, Any]]:
        specs: List[Dict[str, Any]] = []
        for position in range(BATCH):
            spec: Dict[str, Any] = {"text": " ".join(self.inputs.words())}
            if position % 4 == 3:
                spec["reference_object_id"] = self.inputs.reference()
            specs.append(spec)
        return specs

    def play(self, client: Client, script: List[Dict[str, Any]]) -> None:
        reply = client.call(
            "read", self.target.server.handle, "POST", "/search",
            {"queries": script, "k": K}, weight=BATCH, ok=_ok,
        )
        if reply is not None:
            for spec, result in zip(script, reply["results"]):
                ids = [item["object_id"] for item in result["items"]]
                client.check_items(ids, "/search")
                reference = spec.get("reference_object_id")
                words = tuple(spec["text"].split()) if reference is None else ()
                client.samples.append(Sample(spec["text"], reference, ids, words))


def drivers_for(workload: Workload, target: Any, seed: int, size: int) -> List[Driver]:
    """One driver per client, each with its own input stream."""
    streams = [Inputs(seed, c, workload.clients, size) for c in range(workload.clients)]
    if workload.surface == "dialogue":
        return [DialogueDriver(target, stream) for stream in streams]
    if workload.surface == "batch":
        return [BatchDriver(target, stream) for stream in streams]
    removed = Removed()
    return [ServeDriver(target, stream, removed) for stream in streams]


def probe_reads(target: Served, inputs: Inputs, count: int, client: Client) -> None:
    """``count`` plain /query reads in one fresh session — ``serve_mixed``
    takes its recall from these, issued after set-up and before any write
    changes the corpus."""
    handle = target.server.handle
    session = handle("POST", "/session/new", {})["session"]
    for _ in range(count):
        words = inputs.words()
        text = " ".join(words)
        reply = client.call("read", handle, "POST", "/query",
                            {"text": text, "session": session}, ok=_ok)
        if reply is not None:
            ids = _answer_ids(reply)
            client.check_items(ids, "/query")
            client.samples.append(Sample(text, None, ids, words))
