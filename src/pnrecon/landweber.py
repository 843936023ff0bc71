"""Projected Landweber iteration with constraint projection and stopping.

The iteration, in residual form,

    r_{j-1} = S p_{j-1} - counts,    p_j = Proj[ p_{j-1} - chi S^T r_{j-1} ]

is fixed-step gradient descent on the least-squares misfit, interleaved
with the exact Euclidean projection onto the constraint set (nonnegativity
plus an optional support mask). A step costs one product with S and one
with S^T, its residual is the one the stopping rules read, and no Gram
matrix is formed, not even for the default chi = 1/sigma_max(S)^2 (Lanczos,
about 1e-15 relative). A masked solve iterates on the support columns of S
only, sliced once, and scatters the estimate back with the pinned entries
+0.0; chi still comes from the full S. sigma_max is a property of the
ResponseMatrix, computed on its first use and kept with its read-only
entries, so warm restarts on one matrix reuse it. Step j writes its iterate
into row j % 32 of a ring, the row before it being the previous iterate; the
residual norms and masses of a lap of 32 steps are flushed into the
histories in one vectorized pass, bit for bit what per-step appends give,
and the report holds the histories without a copy. The iteration count
regularizes: on noisy data the iterates first approach and then drift away
from the truth, so the solver stops at the noise level (discrepancy
principle) given a noise estimate.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .detector import ResponseMatrix, zero_pad
from .states import _require_integer, _require_real

__all__ = [
    "ConstraintSet",
    "LandweberConfig",
    "SolveReport",
    "RelaxationBoundError",
    "project",
    "solve",
]

_LAP = 32  # ring rows: iterates between two history flushes


class RelaxationBoundError(ValueError):
    """An explicit relaxation parameter violates the convergence bound."""


@dataclass(frozen=True)
class ConstraintSet:
    """Convex constraints: nonnegativity, plus an optional support mask
    (entries where the mask is False are pinned to zero). The mask must be
    1-d with entries True/False or exactly 0/1."""

    support_mask: np.ndarray | None = None

    def __post_init__(self):
        if self.support_mask is not None:
            mask = np.asarray(self.support_mask)
            if mask.ndim != 1:
                raise ValueError(
                    f"support mask must be 1-d, got shape {mask.shape}"
                )
            if mask.dtype != bool:
                numeric = mask.dtype.kind in "iuf"
                valid = np.isin(mask, (0, 1)) if numeric else np.zeros(mask.shape, bool)
                if not valid.all():
                    at = int(np.argmin(valid))
                    raise ValueError(
                        "support mask entries must be True/False or 0/1, got "
                        f"{mask[at]!r} at index {at}"
                    )
            object.__setattr__(self, "support_mask", mask.astype(bool, copy=False))

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
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _require_real(name, getattr(self, name)))
        object.__setattr__(
            self, "max_iterations", _require_integer("max_iterations", self.max_iterations)
        )
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
        if self.initial is not None:
            initial = np.asarray(self.initial, dtype=float)
            if initial.ndim != 1:
                raise ValueError(
                    f"initial must be a 1-d vector, got shape {initial.shape}"
                )
            if not np.isfinite(initial).all():
                raise ValueError("initial must be finite")
            object.__setattr__(self, "initial", initial)


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solver output: the estimate plus per-iteration bookkeeping.

    residual_history[j] is the Euclidean data misfit after iteration j+1;
    normalization_history[j] is the total mass of that iterate (useful as
    an accuracy track since the true distribution sums to one, while the
    projection deliberately does not enforce it). Both histories are
    filled once per lap of the solver's ring of iterates and are views of
    its history buffers, not copies.
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
    if v.ndim != 1:
        raise ValueError(f"vector to project must be 1-d, got shape {v.shape}")
    mask = constraints.support_mask
    if mask is None:
        return np.maximum(v, 0.0)
    if mask.size != v.size:
        raise ValueError(
            f"support mask of length {mask.size} does not match vector "
            f"of length {v.size}"
        )
    return np.where(mask, np.maximum(v, 0.0), 0.0)


def _flush(residuals, masses, sq, ring, n):
    """Append the histories of the first n ring rows: sqrt is IEEE, as in
    math.sqrt, and each row sum is the pairwise sum that new.sum() takes."""
    residuals.frombytes(np.sqrt(sq[:n]).tobytes())
    masses.frombytes(np.add.reduce(ring[:n], axis=1).tobytes())


def solve(
    mat: ResponseMatrix,
    counts,
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
    data = zero_pad(counts, rows, "count vector", "matrix rows")
    mask = constraints.support_mask
    if mask is not None and mask.size != cols:
        raise ValueError(
            f"support mask of length {mask.size} does not match the "
            f"{cols}-column matrix"
        )

    top = mat.sigma_max_sq
    chi = 1.0 / top if config.chi is None else config.chi
    if chi >= 2.0 / top:
        raise RelaxationBoundError(
            f"chi={chi} is outside the convergence interval "
            f"(0, {2.0 / top:.6g})"
        )

    if config.initial is None:
        p = np.zeros(cols)
    else:
        if config.initial.size != cols:
            raise ValueError(
                f"initial vector of length {config.initial.size} does not "
                f"match the {cols}-column matrix"
            )
        p = project(config.initial, constraints)

    # pinned entries stay +0.0 under every step: iterate on the support only
    support = None if mask is None or mask.all() else np.flatnonzero(mask)
    if support is not None:
        matrix = np.ascontiguousarray(matrix[:, support])
        p = p[support]
    residuals = array("d")
    masses = array("d")
    stop_reason = "max_iterations"
    threshold = config.discrepancy_tau * config.noise_level
    discrepancy = config.noise_level > 0.0
    tol = config.stagnation_tol
    # step j writes ring row j % lap, and the row before it is p; the
    # histories of a lap are flushed in one go before its rows are reused
    lap = min(_LAP, config.max_iterations)
    ring, sq = np.empty((lap, p.size)), np.empty(lap)
    slots = list(ring)
    grad, r = np.empty(p.size), np.empty(rows)
    chi_0d, zero_0d = np.array(chi), np.array(0.0)  # no scalar conversion per call
    dot, multiply, subtract, maximum = np.dot, np.multiply, np.subtract, np.maximum
    adjoint = matrix.T  # a view: no transposed copy
    dot(matrix, p, r)
    subtract(r, data, r)
    i = -1
    for j in range(config.max_iterations):
        i += 1
        new = slots[i]
        dot(adjoint, r, grad)
        multiply(grad, chi_0d, grad)
        subtract(p, grad, new)
        maximum(new, zero_0d, out=new)  # project() in place
        dot(matrix, new, r)
        subtract(r, data, r)
        sq[i] = d = dot(r, r)
        if discrepancy and math.sqrt(d) <= threshold:
            stop_reason = "discrepancy"
            break
        if tol > 0.0:
            step = subtract(new, p, grad)
            scale = max(math.sqrt(new @ new), 1e-300)
            if math.sqrt(step @ step) <= tol * scale:
                stop_reason = "stagnation"
                break
        p = new
        if i == lap - 1:
            _flush(residuals, masses, sq, ring, lap)
            i = -1
    _flush(residuals, masses, sq, ring, i + 1)

    if support is None:
        estimate = new.copy()  # not a view that keeps the ring alive
    else:
        estimate = np.zeros(cols)
        estimate[support] = new
    return SolveReport(
        estimate=estimate,
        iterations_run=j + 1,
        residual_history=np.frombuffer(residuals),
        normalization_history=np.frombuffer(masses),
        stop_reason=stop_reason,
        chi=chi,
    )
