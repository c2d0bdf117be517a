"""The unified multi-modal navigation graph used by MUST.

The paper: "we incorporate components from several state-of-the-art
algorithms in the context of concatenated vectors, resulting in a novel
indexing algorithm".  This spec is that combination, assembled from the
stage library: random-regular initialisation (Vamana), exact
nearest-neighbour candidates (NSG), alpha-relaxed robust pruning with
reverse edges (DiskANN) evaluated under the *weighted multi-vector* kernel,
reachability repair, and a medoid entry point — :func:`vamana_spec`'s
stages (see there for what stays DiskANN) at a tighter ``alpha``, and like
it growing by search-and-prune at ``add``.  Because every distance flows through
:class:`repro.distance.WeightedMultiVectorKernel`, edges reflect the learned
modality weighting — the "assigns multiple vectors per object to a unified
index" property that lets queries run merging-free.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.index.pipeline_builder import GraphPipelineSpec, PipelineGraphIndex
from repro.index.vamana import vamana_spec


@dataclass(frozen=True)
class MustGraphParams:
    """Parameters of the unified multi-modal navigation graph.

    Attributes:
        max_degree: Out-degree bound.
        alpha: Robust-prune slack (1.0 = strict RNG).
        candidate_pool: Candidates per vertex (exact nearest at ``build``).
        build_budget: Beam width of the searched acquisition at ``add``;
            ``build`` ranks the corpus exactly and does not search.
        seed: Random-init seed.
    """

    max_degree: int = 16
    alpha: float = 1.15
    candidate_pool: int = 48
    build_budget: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_degree < 2:
            raise ValueError(f"max_degree must be >= 2, got {self.max_degree}")
        if self.alpha < 1.0:
            raise ValueError(f"alpha must be >= 1.0, got {self.alpha}")


def must_graph_spec(params: MustGraphParams = MustGraphParams()) -> GraphPipelineSpec:
    """The composite spec of the unified multi-modal navigation graph."""
    return replace(vamana_spec(params), name="nav-must")


class MustGraphIndex(PipelineGraphIndex):
    """The unified navigation graph, built over concatenated multi-vectors."""

    def __init__(self, params: MustGraphParams = MustGraphParams()) -> None:
        super().__init__(must_graph_spec(params))
        self.params = params
        self.insertion = {name: getattr(params, name) for name in self.insertion}
