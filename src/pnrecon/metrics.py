"""Error figures: relative Euclidean error, relative residual, and the
normalization defect of an estimate.

All norms are Euclidean; vectors of unequal length are zero-padded to a
common length, never truncated.
"""

from __future__ import annotations

import numpy as np

from .detector import ResponseMatrix, zero_pad

__all__ = [
    "relative_error",
    "relative_residual",
    "normalization_defect",
]


def relative_error(estimate, truth) -> float:
    """||estimate - truth|| / ||truth|| in the Euclidean norm."""
    size = max(np.size(estimate), np.size(truth))
    est = zero_pad(estimate, size, "estimate", "common length")
    ref = zero_pad(truth, size, "reference", "common length")
    norm = float(np.linalg.norm(ref))
    if norm == 0.0:
        raise ValueError("reference vector has zero norm")
    return float(np.linalg.norm(est - ref)) / norm


def relative_residual(mat: ResponseMatrix, estimate, measured) -> float:
    """||S @ estimate - measured|| / ||measured|| in the Euclidean norm."""
    est = zero_pad(estimate, mat.n_max + 1, "estimate", "matrix columns")
    data = zero_pad(measured, mat.m_max + 1, "measured vector", "matrix rows")
    norm = float(np.linalg.norm(data))
    if norm == 0.0:
        raise ValueError("measured vector has zero norm")
    return float(np.linalg.norm(mat.entries @ est - data)) / norm


def normalization_defect(values) -> float:
    """Total mass minus one."""
    return float(np.asarray(values, dtype=float).sum()) - 1.0
