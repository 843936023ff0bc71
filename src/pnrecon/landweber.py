"""Projected Landweber iteration with constraint projection and stopping.

The iteration, in residual form,

    r_{j-1} = S p_{j-1} - counts,    p_j = Proj[ p_{j-1} - chi S^T r_{j-1} ]

is fixed-step gradient descent on the least-squares misfit, interleaved
with the exact Euclidean projection onto the constraint set (nonnegativity
plus an optional support mask). A step costs one product with S and one
with S^T, its residual is the one the stopping rules read, and no Gram
matrix is formed. The step needs 0 < chi < 2/sigma_max(S)^2 (Engl, Hanke
& Neubauer, *Regularization of Inverse Problems*, ch. 6). The default
chi = 1/bound takes bound = (max column sum) * (max row sum), the Schur
test's upper bound on sigma_max(S)^2 for S >= 0, which the ResponseMatrix
derives when it is built: 0.3-4.3% above sigma_max(S)^2 on the bundled
windows, up to 2.1 times it on the hand-built test matrices far from
column-stochastic, where the loop takes proportionally more steps. A
masked solve iterates on the support columns of S only, sliced once, and
scatters the estimate back with the pinned entries +0.0; chi still comes
from the full S. The loop swaps two iterate buffers every step and
appends each step's residual norm and mass to the histories, which the
report holds without a copy. The iteration count regularizes: on noisy
data the iterates first approach and then drift away from the truth, so
the solver stops at the noise level (discrepancy principle) given a
noise estimate.

Exact data (noise_level == 0) have nothing to regularize, and on an
ill-conditioned window the loop only creeps towards the constrained
least-squares minimizer (the 64 x 31 cat support, condition number 4.7e8,
stalls at 3.9e-3 after 2e5 steps). So when the support operator is tall with
full column rank, the solver first takes its least-squares solution with
the rounding-level negatives set to +0.0 (6.6e-9 on that window), and
returns it with stop_reason "exact", no iterations and empty histories if
it reproduces the data to 1e-12 relative. Wide or rank-deficient
operators, data the nonnegative cone cannot reproduce and every noisy
solve take the loop, unchanged.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .detector import ResponseMatrix, zero_pad
from .states import _require_finite, _require_integer, _require_real, _require_vector

__all__ = [
    "ConstraintSet",
    "LandweberConfig",
    "SolveReport",
    "RelaxationBoundError",
    "solve",
]

_EXACT_RTOL = 1e-12  # misfit, relative to ||data||, an exact solve must reach


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

    chi of None selects 1/bound, where bound = (max column sum) * (max row
    sum) of S is ResponseMatrix.norm_bound_sq, at least sigma_max(S)^2;
    solve takes an explicit chi only in (0, 2/bound). noise_level is the
    estimated Euclidean error of the data; zero disables the discrepancy
    stop. stagnation_tol of zero disables the stagnation stop. initial of
    None starts from the zero vector; a given initial must be a finite 1-d
    vector, and solve clips it to the constraint set before the first step.
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
            initial = _require_vector(self.initial, "initial")
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
    views of the buffers the solver appends to every step, not copies.
    stop_reason is "discrepancy", "stagnation", "max_iterations", or
    "exact" for the clipped least-squares solve of exact data, with no
    iterations run.
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


def _scatter(values, support, cols):
    """The support entries ``values`` as a full-length vector, the pinned
    entries +0.0; ``values`` itself when every column is in the support."""
    if support is None:
        return values
    estimate = np.zeros(cols)
    estimate[support] = values
    return estimate


def _least_squares(a, b):
    """min ||a x - b|| by SVD, or None if a's rank is short of its column
    count (by np.linalg.lstsq's default cutoff). One step of iterative
    refinement takes the misfit down to the rounding of the data: on the
    cat window 1.4e-15 -> 1.5e-16 relative, 1.5e-8 -> 6.6e-9 error."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if not s[-1] > max(a.shape) * np.finfo(float).eps * s[0]:
        return None
    x = vt.T @ ((u.T @ b) / s)
    return x + vt.T @ ((u.T @ (b - a @ x)) / s)


def _exact_solve(matrix, data):
    """The least-squares solution with its nonpositive entries set to +0.0,
    if the operator is tall with full column rank and that vector
    reproduces the data to _EXACT_RTOL * ||data||; otherwise None. With
    full column rank, data that a nonnegative vector reproduces have that
    vector as their only least-squares solution, so clipping drops only
    rounding (on the cat window there is none to drop: the smallest entry
    is 8.3e-11). A miss costs one least-squares solve."""
    rows, cols = matrix.shape
    if not 0 < cols <= rows:
        return None
    z = _least_squares(matrix, data)
    if z is None:
        return None
    x = np.where(z > 0.0, z, 0.0)
    # "not <=", so that a NaN misfit is a miss too
    if not np.linalg.norm(matrix @ x - data) <= _EXACT_RTOL * np.linalg.norm(data):
        return None
    return x


def solve(
    mat: ResponseMatrix,
    counts,
    constraints: ConstraintSet = ConstraintSet(None),
    config: LandweberConfig = LandweberConfig(),
) -> SolveReport:
    """Run the projected Landweber iteration in residual form,
    r_j = S p_j - counts and p_{j+1} = Proj[p_j - chi S^T r_j], from
    p_0 = 0 or config.initial clipped to the constraint set (the loop's
    own rule: negatives to +0.0, and the entries off the support dropped).

    Stops at the first of: (a) ||r_j|| at or below
    discrepancy_tau * noise_level, (b) relative iterate change below
    stagnation_tol, (c) max_iterations. Histories cover every iteration
    actually run. With noise_level == 0 on a tall full-rank support whose
    data a nonnegative vector reproduces to 1e-12 relative, that vector is
    returned instead (stop_reason "exact"; max_iterations and initial
    play no part). A NaN or infinite count raises ValueError naming its
    index before either runs.
    """
    matrix = mat.entries
    rows, cols = matrix.shape
    data = zero_pad(counts, rows, "count vector", "matrix rows")
    _require_finite(data, "count", "m")  # negative counts are data too
    mask = constraints.support_mask
    if mask is not None and mask.size != cols:
        raise ValueError(
            f"support mask of length {mask.size} does not match the "
            f"{cols}-column matrix"
        )

    bound = mat.norm_bound_sq
    if bound == 0.0:
        raise ValueError("matrix has zero norm; cannot pick a stepsize")
    if not 0.0 < 2.0 / bound < math.inf:  # bound or 2/bound leaves the double range
        raise ValueError(
            f"matrix norm bound {bound!r} leaves no finite convergence "
            "interval (0, 2/bound); cannot pick a stepsize"
        )
    chi = 1.0 / bound if config.chi is None else config.chi
    if chi >= 2.0 / bound:
        raise RelaxationBoundError(
            f"chi={chi} is outside the convergence interval "
            f"(0, {2.0 / bound:.6g})"
        )

    if config.initial is None:
        p = np.zeros(cols)
    else:
        if config.initial.size != cols:
            raise ValueError(
                f"initial vector of length {config.initial.size} does not "
                f"match the {cols}-column matrix"
            )
        p = np.maximum(config.initial, 0.0)  # pinned entries go with the slice below

    # pinned entries stay +0.0 under every step: iterate on the support only
    support = None if mask is None or mask.all() else np.flatnonzero(mask)
    if support is not None:
        matrix = np.ascontiguousarray(matrix[:, support])
        p = p[support]
    exact = _exact_solve(matrix, data) if config.noise_level == 0.0 else None
    if exact is not None:
        return SolveReport(
            estimate=_scatter(exact, support, cols),
            iterations_run=0,
            residual_history=np.empty(0),
            normalization_history=np.empty(0),
            stop_reason="exact",
            chi=chi,
        )
    residuals = array("d")
    masses = array("d")
    stop_reason = "max_iterations"
    threshold = config.discrepancy_tau * config.noise_level
    discrepancy = config.noise_level > 0.0
    tol = config.stagnation_tol
    grad, new, r = np.empty(p.size), np.empty(p.size), np.empty(rows)
    adjoint = matrix.T  # a view: no transposed copy
    np.dot(matrix, p, out=r)
    r -= data
    for j in range(config.max_iterations):
        np.dot(adjoint, r, out=grad)
        grad *= chi
        np.subtract(p, grad, out=new)
        np.maximum(new, 0.0, out=new)  # the projection, in place
        p, new = new, p  # p is the iterate, new the one before it
        np.dot(matrix, p, out=r)
        r -= data
        residual = math.sqrt(r @ r)
        residuals.append(residual)
        masses.append(p.sum())
        if discrepancy and residual <= threshold:
            stop_reason = "discrepancy"
            break
        if tol > 0.0:
            step = np.subtract(p, new, out=grad)
            scale = max(math.sqrt(p @ p), 1e-300)
            if math.sqrt(step @ step) <= tol * scale:
                stop_reason = "stagnation"
                break

    return SolveReport(
        estimate=_scatter(p, support, cols),
        iterations_run=j + 1,
        residual_history=np.frombuffer(residuals),
        normalization_history=np.frombuffer(masses),
        stop_reason=stop_reason,
        chi=chi,
    )
