"""Vamana (the DiskANN graph) as a five-stage pipeline.

Decomposition: random-regular init -> exact nearest-neighbour candidates
-> alpha-relaxed robust prune with reverse edges -> reachability repair ->
medoid entry point.  ``alpha > 1`` keeps longer edges than strict RNG
pruning, flattening the graph so disk-resident searches (Starling) need
fewer hops.

Kept from DiskANN: the alpha-relaxed RNG prune, a vertex's random initial
neighbours in its pool (the long edges), reverse edges with a
degree-bounded re-prune, the medoid entry, and searched candidates when a
vector arrives alone (``add``).  Not kept: ``build`` has the whole corpus,
so in place of two passes of beam searches it ranks each vertex's
``candidate_pool`` nearest exactly — the set the search approximates — and
prunes once, in two batched phases with reverse edges grouped by target
(:func:`repro.index.stages.select_alpha_rng`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.index.pipeline_builder import GraphPipelineSpec, PipelineGraphIndex
from repro.index.stages import (
    candidates_exact_knn,
    connect_repair,
    entry_medoid,
    init_random_regular,
    select_alpha_rng,
)


@dataclass(frozen=True)
class VamanaParams:
    """Vamana construction parameters.

    Attributes:
        max_degree: Out-degree bound (DiskANN's R).
        alpha: Pruning slack; 1.0 is strict RNG, DiskANN defaults to 1.2.
        candidate_pool: Candidates per vertex: its exact nearest at
            ``build``, the best of the visited pool at ``add``.
        build_budget: Beam width of the searched acquisition at ``add``
            (DiskANN's L), as ``ef_construction`` is for HNSW; ``build``
            ranks the corpus exactly and does not search.
        seed: Random-init seed.
    """

    max_degree: int = 16
    alpha: float = 1.2
    candidate_pool: int = 48
    build_budget: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_degree < 2:
            raise ValueError(f"max_degree must be >= 2, got {self.max_degree}")
        if self.alpha < 1.0:
            raise ValueError(f"alpha must be >= 1.0, got {self.alpha}")
        if self.candidate_pool < self.max_degree:
            raise ValueError(
                f"candidate_pool ({self.candidate_pool}) must be >= "
                f"max_degree ({self.max_degree})"
            )


def vamana_spec(params: VamanaParams = VamanaParams()) -> GraphPipelineSpec:
    """The pipeline decomposition of Vamana (of any params with these
    fields: nav-must passes its own)."""
    return GraphPipelineSpec(
        name="vamana",
        init=init_random_regular(
            params.max_degree, out_degree=params.max_degree // 2, seed=params.seed
        ),
        candidates=candidates_exact_knn(params.candidate_pool),
        selection=select_alpha_rng(params.max_degree, alpha=params.alpha),
        connectivity=connect_repair(),
        entry=entry_medoid(),
    )


class VamanaIndex(PipelineGraphIndex):
    """Vamana materialised through the general construction pipeline."""

    def __init__(self, params: VamanaParams = VamanaParams()) -> None:
        super().__init__(vamana_spec(params))
        self.params = params
        self.insertion = {name: getattr(params, name) for name in self.insertion}
