"""Projected Landweber iteration with constraint projection and stopping.

The iteration, in residual form,

    r_{j-1} = S p_{j-1} - counts,    p_j = Proj[ p_{j-1} - chi S^T r_{j-1} ]

is fixed-step gradient descent on the least-squares misfit, interleaved
with the exact Euclidean projection onto the constraint set (nonnegativity
plus an optional support mask). A step costs one product with S and one
with S^T, its residual is the one the stopping rules read, and no Gram
matrix is formed. The iteration count acts as the regularization
parameter: on noisy data the iterates first approach and then drift away
from the truth, so the solver stops at the noise level (discrepancy
principle) when a noise estimate is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import CountDistribution, ResponseMatrix, zero_pad

__all__ = [
    "ConstraintSet",
    "LandweberConfig",
    "SolveReport",
    "RelaxationBoundError",
    "project",
    "auto_chi",
    "solve",
]

_POWER_REL_TOL = 1e-9
_POWER_MAX_ITERS = 10_000


class RelaxationBoundError(ValueError):
    """An explicit relaxation parameter violates the convergence bound."""


@dataclass(frozen=True)
class ConstraintSet:
    """Convex constraints: nonnegativity, plus an optional support mask
    (entries where the mask is False are pinned to zero)."""

    support_mask: np.ndarray | None = None

    def __post_init__(self):
        if self.support_mask is not None:
            object.__setattr__(
                self, "support_mask", np.asarray(self.support_mask, dtype=bool)
            )

    @classmethod
    def nonnegative(cls) -> "ConstraintSet":
        return cls(None)

    @classmethod
    def even_support(cls, size: int) -> "ConstraintSet":
        return cls(np.arange(size) % 2 == 0)


@dataclass(frozen=True)
class LandweberConfig:
    """Solver knobs.

    chi of None selects 1/sigma_max(S)^2 automatically. noise_level is the
    estimated Euclidean error of the data; zero disables the discrepancy
    stop. stagnation_tol of zero disables the stagnation stop. initial of
    None starts from the zero vector.
    """

    chi: float | None = None
    max_iterations: int = 100_000
    discrepancy_tau: float = 1.1
    noise_level: float = 0.0
    stagnation_tol: float = 1e-9
    initial: np.ndarray | None = None

    def __post_init__(self):
        for name in ("chi", "discrepancy_tau", "noise_level", "stagnation_tol"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.chi is not None and self.chi <= 0:
            raise ValueError(f"chi must be positive, got {self.chi}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.discrepancy_tau < 1.0:
            raise ValueError(
                f"discrepancy_tau must be >= 1, got {self.discrepancy_tau}"
            )
        if self.noise_level < 0.0:
            raise ValueError("noise_level must be nonnegative")
        if self.stagnation_tol < 0.0:
            raise ValueError("stagnation_tol must be nonnegative")


@dataclass(frozen=True)
class SolveReport:
    """Solver output: the estimate plus per-iteration bookkeeping.

    residual_history[j] is the Euclidean data misfit after iteration j+1;
    normalization_history[j] is the total mass of that iterate (useful as
    an accuracy track since the true distribution sums to one, while the
    projection deliberately does not enforce it).
    """

    estimate: np.ndarray
    iterations_run: int
    residual_history: np.ndarray
    normalization_history: np.ndarray
    stop_reason: str
    chi: float

    def as_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "iterations_run": self.iterations_run,
            "stop_reason": self.stop_reason,
            "chi": self.chi,
            "residual_history": self.residual_history,
            "normalization_history": self.normalization_history,
        }


def project(v: np.ndarray, constraints: ConstraintSet) -> np.ndarray:
    """Exact Euclidean projection onto the constraint set: clip negatives
    to zero and zero out entries outside the support mask."""
    v = np.asarray(v, dtype=float)
    mask = constraints.support_mask
    if mask is None:
        return np.maximum(v, 0.0)
    if mask.size != v.size:
        raise ValueError(
            f"support mask of length {mask.size} does not match vector "
            f"of length {v.size}"
        )
    return np.where(mask, np.maximum(v, 0.0), 0.0)


def _largest_eigenvalue(gram: np.ndarray) -> float:
    """Dominant eigenvalue of a symmetric PSD matrix by power iteration
    from a fixed deterministic start vector."""
    dim = gram.shape[0]
    v = np.full(dim, 1.0 / math.sqrt(dim))
    value = 0.0
    for _ in range(_POWER_MAX_ITERS):
        w = gram @ v
        norm = math.sqrt(w @ w)
        if norm == 0.0:
            raise ValueError("matrix has zero norm; cannot pick a stepsize")
        v = w / norm
        if abs(norm - value) <= _POWER_REL_TOL * norm:
            return norm
        value = norm
    return value


def _sigma_max_sq(matrix: np.ndarray) -> float:
    """sigma_max(S)^2, from the smaller of S S^T and S^T S: both have the
    same nonzero spectrum."""
    rows, cols = matrix.shape
    return _largest_eigenvalue(
        matrix @ matrix.T if rows < cols else matrix.T @ matrix
    )


def auto_chi(mat: ResponseMatrix) -> float:
    """Default relaxation parameter 1/sigma_max(S)^2, safely inside the
    convergence interval (0, 2/sigma_max^2)."""
    return 1.0 / _sigma_max_sq(mat.entries)


def solve(
    mat: ResponseMatrix,
    counts: CountDistribution,
    constraints: ConstraintSet = ConstraintSet(None),
    config: LandweberConfig = LandweberConfig(),
) -> SolveReport:
    """Run the projected Landweber iteration in residual form,
    r_j = S p_j - counts and p_{j+1} = Proj[p_j - chi S^T r_j], from
    p_0 = 0 or the projected config.initial.

    Stops at the first of: (a) ||r_j|| at or below
    discrepancy_tau * noise_level, (b) relative iterate change below
    stagnation_tol, (c) max_iterations. Histories cover every iteration
    actually run.
    """
    matrix = mat.entries
    rows, cols = matrix.shape
    data = zero_pad(counts.probs, rows, "count vector", "matrix rows")
    mask = constraints.support_mask
    if mask is not None and mask.size != cols:
        raise ValueError(
            f"support mask of length {mask.size} does not match the "
            f"{cols}-column matrix"
        )

    top = _sigma_max_sq(matrix)
    if config.chi is None:
        chi = 1.0 / top
    else:
        chi = float(config.chi)
        if chi >= 2.0 / top:
            raise RelaxationBoundError(
                f"chi={chi} is outside the convergence interval "
                f"(0, {2.0 / top:.6g})"
            )

    if config.initial is None:
        p = np.zeros(cols)
    else:
        p = project(np.asarray(config.initial, dtype=float), constraints)
        if p.size != cols:
            raise ValueError(
                f"initial vector of length {p.size} does not match the "
                f"{cols}-column matrix"
            )

    pinned = None if mask is None else np.flatnonzero(~mask)
    residuals = []
    masses = []
    stop_reason = "max_iterations"
    iterations = config.max_iterations
    threshold = config.discrepancy_tau * config.noise_level
    r = matrix @ p - data
    for j in range(config.max_iterations):
        new = p - chi * (matrix.T @ r)
        np.maximum(new, 0.0, out=new)  # project() in place; pinned -> +0.0
        if pinned is not None:
            new[pinned] = 0.0
        r = matrix @ new - data
        residual = math.sqrt(r @ r)
        residuals.append(residual)
        masses.append(float(new.sum()))
        stalled = False
        if config.stagnation_tol > 0.0:
            step = new - p
            scale = max(math.sqrt(new @ new), 1e-300)
            stalled = math.sqrt(step @ step) <= config.stagnation_tol * scale
        p = new
        if config.noise_level > 0.0 and residual <= threshold:
            stop_reason = "discrepancy"
            iterations = j + 1
            break
        if stalled:
            stop_reason = "stagnation"
            iterations = j + 1
            break

    return SolveReport(
        estimate=p,
        iterations_run=iterations,
        residual_history=np.array(residuals),
        normalization_history=np.array(masses),
        stop_reason=stop_reason,
        chi=chi,
    )
