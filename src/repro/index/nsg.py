"""NSG (Navigating Spreading-out Graph) as a five-stage pipeline.

Decomposition: empty init -> exact kNN candidates -> monotonic-RNG edge
selection -> reachability repair -> medoid entry point.  The exact-kNN
candidate stage makes construction O(n^2) in batch distance computations,
which matches the original NSG's reliance on a prebuilt kNN graph and is
fine at the corpus sizes this reproduction runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.index.pipeline_builder import GraphPipelineSpec, PipelineGraphIndex
from repro.index.stages import (
    candidates_exact_knn,
    connect_repair,
    entry_medoid,
    init_empty,
    select_mrng,
)
from repro.utils import check_fields, param


@dataclass(frozen=True)
class NsgParams:
    """NSG construction parameters.

    Attributes:
        max_degree: Out-degree bound after MRNG selection.
        knn: Size of the kNN candidate pool per vertex.
    """

    max_degree: int = param(16, ge=2)
    knn: int = 50

    def __post_init__(self) -> None:
        check_fields(self)
        if self.knn < self.max_degree:
            raise ValueError(
                f"knn pool ({self.knn}) must be >= max_degree ({self.max_degree})"
            )


def nsg_spec(params: NsgParams = NsgParams()) -> GraphPipelineSpec:
    """The pipeline decomposition of NSG."""
    return GraphPipelineSpec(
        name="nsg",
        init=init_empty(params.max_degree),
        candidates=candidates_exact_knn(params.knn),
        selection=select_mrng(params.max_degree),
        connectivity=connect_repair(),
        entry=entry_medoid(),
    )


class NsgIndex(PipelineGraphIndex):
    """NSG materialised through the general construction pipeline."""

    def __init__(self, params: NsgParams = NsgParams()) -> None:
        super().__init__(nsg_spec(params))
        self.params = params
