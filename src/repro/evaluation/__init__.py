"""Evaluation harness: metrics, exact ground truth, query workloads, and
the experiment runner + table printer used by every benchmark."""

from repro.evaluation.ground_truth import exact_knn
from repro.evaluation.groundedness import claim_is_grounded, groundedness_score
from repro.evaluation.harness import ExperimentTable, evaluate_framework
from repro.evaluation.metrics import (
    mean_reciprocal_rank,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
)
from repro.evaluation.workloads import (
    EvalQuery,
    RefinementScript,
    composed_queries,
    refinement_scripts,
    text_queries,
)

__all__ = [
    "EvalQuery",
    "ExperimentTable",
    "RefinementScript",
    "claim_is_grounded",
    "composed_queries",
    "evaluate_framework",
    "exact_knn",
    "groundedness_score",
    "mean_reciprocal_rank",
    "ndcg_at_k",
    "precision_at_k",
    "recall_at_k",
    "refinement_scripts",
    "text_queries",
]
