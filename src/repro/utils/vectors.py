"""Small vector helpers shared across encoders, weights, and indexes."""

from __future__ import annotations

import numpy as np


def l2_normalize(vectors: np.ndarray, axis: int = -1, eps: float = 1e-12) -> np.ndarray:
    """L2-normalise ``vectors`` along ``axis``.

    Zero vectors are left as zeros instead of producing NaNs, which matters
    for degenerate synthetic objects (e.g. an empty text description).
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    # What np.linalg.norm(vectors, axis=axis, keepdims=True) computes for a
    # real array, to the bit, without its dispatch (a third of its time on
    # one 64-d vector).
    norms = np.sqrt(np.add.reduce(vectors * vectors, axis=axis, keepdims=True))
    return vectors / np.maximum(norms, eps)


def project_to_simplex(weights: np.ndarray, total: float = 1.0) -> np.ndarray:
    """Euclidean projection of ``weights`` onto the simplex of sum ``total``.

    Used by the contrastive weight-learning model to keep modality weights
    non-negative and normalised after each gradient step.  Implements the
    sorting algorithm of Duchi et al. (2008).
    """
    if total <= 0:
        raise ValueError(f"simplex total must be positive, got {total}")
    w = np.asarray(weights, dtype=np.float64).ravel()
    if w.size == 0:
        raise ValueError("cannot project an empty weight vector")
    sorted_desc = np.sort(w)[::-1]
    cumulative = np.cumsum(sorted_desc) - total
    indices = np.arange(1, w.size + 1)
    above = sorted_desc - cumulative / indices > 0
    rho = int(np.nonzero(above)[0][-1]) + 1 if above.any() else 1
    theta = cumulative[rho - 1] / rho
    return np.maximum(w - theta, 0.0)
