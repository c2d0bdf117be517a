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
from repro.index.vamana import VamanaParams, vamana_spec
from repro.utils import param


@dataclass(frozen=True)
class MustGraphParams(VamanaParams):
    """Parameters of the unified multi-modal navigation graph: Vamana's
    (:class:`~repro.index.vamana.VamanaParams`, its ranges and its
    ``candidate_pool >= max_degree`` rule) at a tighter robust-prune slack,
    ``alpha = 1.15``."""

    alpha: float = param(1.15, ge=1)


def must_graph_spec(params: MustGraphParams = MustGraphParams()) -> GraphPipelineSpec:
    """The composite spec of the unified multi-modal navigation graph."""
    return replace(vamana_spec(params), name="nav-must")


class MustGraphIndex(PipelineGraphIndex):
    """The unified navigation graph, built over concatenated multi-vectors."""

    def __init__(self, params: MustGraphParams = MustGraphParams()) -> None:
        super().__init__(must_graph_spec(params))
        self.params = params
        self.insertion = {name: getattr(params, name) for name in self.insertion}
