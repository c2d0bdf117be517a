"""Persistence and live growth: save, reload, ingest, re-query.

Demonstrates the operational lifecycle a production deployment needs on
top of the paper's demo:

1. build a knowledge base + unified index, and save both to disk;
2. reload them in a "fresh process" without rebuilding;
3. ingest new objects into the *live* system (no rebuild) and retrieve
   them immediately;
4. inspect the navigation graph's health with the diagnostics report.

Run:  python examples/persist_and_grow.py
"""

import tempfile
from pathlib import Path

from repro import (
    DatasetSpec,
    MQAConfig,
    MQASystem,
    generate_knowledge_base,
    load_knowledge_base,
    save_knowledge_base,
)
from repro.distance import MultiVectorSchema, WeightedMultiVectorKernel
from repro.encoders import build_encoder_set
from repro.index import MustGraphIndex, MustGraphParams, analyze_graph, load_index, save_index


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="mqa-demo-"))
    print(f"working under {workdir}\n")

    # ------------------------------------------------------------------
    # 1. build once, save everything
    # ------------------------------------------------------------------
    kb = generate_knowledge_base(DatasetSpec(domain="products", size=400, seed=9))
    encoder_set = build_encoder_set("clip-joint", kb, seed=3)
    schema = MultiVectorSchema(encoder_set.dims())
    kernel = WeightedMultiVectorKernel(schema, [0.9, 1.1])
    corpus = encoder_set.encode_corpus(list(kb)).matrix

    index = MustGraphIndex(MustGraphParams(max_degree=12, candidate_pool=32))
    index.build(corpus, kernel)
    print(f"built {index.describe()} in {index.build_seconds:.2f}s")

    save_knowledge_base(kb, workdir / "kb")
    save_index(index, workdir / "index")
    print("saved knowledge base and index\n")

    # ------------------------------------------------------------------
    # 2. reload without rebuilding
    # ------------------------------------------------------------------
    kb2 = load_knowledge_base(workdir / "kb")
    index2 = load_index(workdir / "index")
    print(f"reloaded: {index2.describe()}")
    query = corpus[5]
    assert index.search(query, k=3).ids == index2.search(query, k=3).ids
    print("reloaded index returns identical results\n")

    # ------------------------------------------------------------------
    # 3. live ingestion through the full system
    # ------------------------------------------------------------------
    system = MQASystem.from_knowledge_base(
        kb2,
        MQAConfig(
            weight_learning={"steps": 25, "batch_size": 12},
            index_params={"m": 8, "ef_construction": 48},
        ),
    )
    new_id = system.ingest(
        ["coat", "fur", "burgundy"], metadata={"source": "merchant feed"}
    )
    print(f"ingested new object #{new_id} (coat / fur / burgundy)")
    answer = system.ask("a burgundy fur coat")
    marker = " <= just ingested" if new_id in answer.ids else ""
    print(f"query 'a burgundy fur coat' returns: {answer.ids}{marker}\n")

    # ------------------------------------------------------------------
    # 4. graph health report
    # ------------------------------------------------------------------
    report = analyze_graph(index2.graph, index2.vectors, index2.kernel, sample=40)
    print(report.render())


if __name__ == "__main__":
    main()
