"""Detector response matrix and forward map.

The response entry S[m|n] is the probability of registering m counts given
n photons, for a detector with efficiency eta and Poissonian noise counts
of mean n_noise:

    m >= n:  S[m|n] = e^{-N} N^{m-n} eta^n (n!/m!) L_n^{m-n}(N(eta-1)/eta)
    m <= n:  S[m|n] = e^{-N} (1-eta)^{n-m} eta^m L_m^{n-m}(N(eta-1)/eta)

with N = n_noise; the branches agree at m = n. The Laguerre argument is
nonpositive for eta in (0, 1], so each entry is a product of positive
factors and is assembled in log space (the factorial ratio and the power
of N span hundreds of orders of magnitude at window sizes of interest).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .special import log_factorial_table, log_laguerre_nonpos
from .states import (_SUM_UPPER_SLACK, PhotonDistribution, _check_tail,
                     _require_probabilities, _require_real)

__all__ = [
    "DetectorParams",
    "CountDistribution",
    "ResponseMatrix",
    "response_entry",
    "build_response",
    "forward",
    "suggest_m_max",
]

_SUGGEST_HARD_MARGIN = 4000
_SUGGEST_BLOCK = 64  # rows of column n_max evaluated per pass
_LANCZOS_REL_TOL = 1e-10
_LANCZOS_MAX_STEPS = 64


@dataclass(frozen=True)
class DetectorParams:
    """Detection efficiency eta in (0, 1] and mean noise counts >= 0."""

    eta: float
    n_noise: float

    def __post_init__(self):
        for name in ("eta", "n_noise"):
            object.__setattr__(self, name, _require_real(name, getattr(self, name)))
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if self.n_noise < 0.0:
            raise ValueError(f"n_noise must be >= 0, got {self.n_noise}")

    @property
    def laguerre_arg(self) -> float:
        """N(eta-1)/eta, nonpositive on the valid parameter range."""
        return self.n_noise * (self.eta - 1.0) / self.eta


@dataclass(frozen=True, eq=False)
class CountDistribution:
    """Probabilities (or empirical frequencies) over photocount numbers."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))

    def validate(self) -> None:
        if self.probs.ndim != 1 or self.probs.size == 0:
            raise ValueError("probs must be a nonempty 1-d vector")
        _require_probabilities(self.probs, "count", "m")
        if float(self.probs.sum()) > 1.0 + _SUM_UPPER_SLACK:
            raise ValueError("count probabilities sum to more than 1")


@dataclass(frozen=True, eq=False)
class ResponseMatrix:
    """Dense response matrix, rows m = 0..m_max, columns n = 0..n_max.

    ``entries`` must be a finite 2-d array (anything ``np.asarray`` turns
    into one); it is made read-only, a view being copied first, so the
    values derived from it stay valid. col_tail is derived, not passed:
    col_tail[n] = max(0, 1 - sum_m entries[m, n]) bounds the conditional
    mass truncated away above m_max in column n. sigma_max_sq is computed
    on first use; entries made writable again are rechecked on every use.
    """

    entries: np.ndarray
    params: DetectorParams
    _col_tail: np.ndarray = field(init=False, repr=False)
    _cached_sigma_max_sq: float | None = field(init=False, repr=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2:
            raise ValueError(f"entries must be a 2-d matrix, got shape {entries.shape}")
        if not entries.flags.owndata:  # writes through its base would go unseen
            entries = entries.copy()
        object.__setattr__(self, "entries", entries)
        self._derive()
        entries.flags.writeable = False

    def _derive(self) -> None:  # check finiteness, set col_tail, drop sigma_max_sq
        sums = self.entries.sum(axis=0)  # non-finite in every column holding a NaN or inf
        bad = () if np.isfinite(sums).all() else np.argwhere(~np.isfinite(self.entries))
        if len(bad):  # none if finite entries merely overflowed a sum
            m, n = bad[0].tolist()
            raise ValueError(
                f"non-finite entry {float(self.entries[m, n])!r} at (m, n) = ({m}, {n})"
            )
        object.__setattr__(self, "_col_tail", np.maximum(0.0, 1.0 - sums))
        object.__setattr__(self, "_cached_sigma_max_sq", None)

    @property
    def m_max(self) -> int:
        return self.entries.shape[0] - 1

    @property
    def n_max(self) -> int:
        return self.entries.shape[1] - 1

    @property
    def col_tail(self) -> np.ndarray:
        if self.entries.flags.writeable:
            self._derive()
        return self._col_tail

    @property
    def sigma_max_sq(self) -> float:
        """Largest squared singular value of the entries (Lanczos)."""
        if self.entries.flags.writeable:
            self._derive()
        if self._cached_sigma_max_sq is None:
            object.__setattr__(self, "_cached_sigma_max_sq", _sigma_max_sq(self.entries))
        return self._cached_sigma_max_sq


def _sigma_max_sq(matrix: np.ndarray) -> float:
    """sigma_max(S)^2 by Lanczos (Golub & Van Loan, ch. 10) on the smaller of
    S S^T and S^T S as two products with S, from a fixed start vector, fully
    reorthogonalized (classical Gram-Schmidt, twice), stopped when the top
    Ritz pair's residual beta |y_last| is <= 1e-10 of its value (or beta = 0)
    or after min(64, dim) steps: ~1e-15 relative to the SVD on bundled windows."""
    dim, wide = min(matrix.shape), matrix.shape[0] < matrix.shape[1]
    steps = min(_LANCZOS_MAX_STEPS, dim)
    basis, tri = np.empty((steps, dim)), np.zeros((steps + 1, steps + 1))
    v = np.full(dim, 1.0 / math.sqrt(dim))
    for k in range(steps):
        basis[k] = v
        w = matrix @ (matrix.T @ v) if wide else matrix.T @ (matrix @ v)
        tri[k, k] = v @ w
        for _ in range(2):
            w -= basis[: k + 1].T @ (basis[: k + 1] @ w)
        beta = math.sqrt(w @ w)
        values, vectors = np.linalg.eigh(tri[: k + 1, : k + 1])
        if values[-1] <= 0.0:
            raise ValueError("matrix has zero norm; cannot pick a stepsize")
        if beta * abs(vectors[-1, -1]) <= _LANCZOS_REL_TOL * values[-1]:
            break
        tri[k + 1, k] = beta  # eigh reads the lower triangle
        v = w / beta
    return float(values[-1])


def _log_entry_m_ge_n(params: DetectorParams, m: int, n: int) -> float:
    """ln S[m|n] on the m >= n branch."""
    noise = params.n_noise
    if noise == 0.0 and m > n:
        return -math.inf
    table = log_factorial_table(max(m, n))
    value = -noise + n * math.log(params.eta) + table[n] - table[m]
    if m > n:
        value += (m - n) * math.log(noise)
    return value + log_laguerre_nonpos(n, m - n, params.laguerre_arg)


def _log_entry_m_le_n(params: DetectorParams, m: int, n: int) -> float:
    """ln S[m|n] on the m <= n branch."""
    if params.eta == 1.0 and n > m:
        return -math.inf
    value = -params.n_noise + m * math.log(params.eta)
    if n > m:
        value += (n - m) * math.log1p(-params.eta)
    return value + log_laguerre_nonpos(m, n - m, params.laguerre_arg)


def response_entry(params: DetectorParams, m: int, n: int) -> float:
    """Probability S[m|n] of m photocounts given n photons."""
    if m < 0 or n < 0:
        raise ValueError(f"require m, n >= 0, got m={m}, n={n}")
    return math.exp((_log_entry_m_ge_n if m >= n else _log_entry_m_le_n)(params, m, n))


def _log_laguerre_table(x: float, r_max: int, s_max: int, _out=None) -> np.ndarray:
    """Table of ln L_r^s(x), r <= r_max, s <= s_max, x <= 0, written into
    ``_out`` (any strides) if given: the three-term recurrence (DLMF 18.9.13)
    on rho_r = L_r^s / L_{r-1}^s over all s, run on eps = rho - 1 >= 0 with no
    cancellation: eps_1 = s - x and (r+1) eps_{r+1} = (r+s) eps_r / rho_r - x.
    L is the product of the rhos as mantissa * 2**exponent; a running sum of
    ln rho would round r times at |ln L|."""
    out = np.empty((r_max + 1, s_max + 1)) if _out is None else _out
    s, out[0] = np.arange(s_max + 1.0), 0.0
    eps, mantissa, exponent = s - x, np.ones_like(s), np.zeros_like(s)
    rho, sr, step = np.empty_like(s), s + 1.0, np.empty(s.shape, np.intc)
    for r in range(1, r_max + 1):  # in place throughout; sr = s + r
        np.add(eps, 1.0, rho)
        np.multiply(mantissa, rho, mantissa)
        np.frexp(mantissa, mantissa, step)
        exponent += step
        row = out[r]
        np.log2(mantissa, out=row)
        row += exponent
        np.multiply(sr, eps, eps)
        np.divide(eps, rho, eps)
        np.subtract(eps, x, eps)
        np.divide(eps, r + 1, eps)
        sr += 1.0
    out *= math.log(2.0)
    return out


def _log_entries(params: DetectorParams, low, diff, lag, upper: bool) -> None:
    """Add the rest of ln S[m|n] in place to ``lag`` = ln L_low^diff at table
    coordinates low, diff (broadcastable integer arrays): m = low + diff and
    n = low on the upper branch, m = low and n = low + diff on the lower; a
    zero noise (upper) or loss (lower) leaves only the diff = 0 entries."""
    lag += -params.n_noise + low * math.log(params.eta)
    if upper:  # low a column, diff a row of consecutive integers
        first = int(low.flat[0] + (diff.flat[0] if diff.size else 0))
        table = log_factorial_table(first + low.size + diff.size)
        lag += table[low]
        step = table.itemsize  # ln m! at m = low + diff as a strided view
        lag -= np.ndarray((low.size, diff.size), float, table, first * step, (step, step))
        base = math.log(params.n_noise) if params.n_noise > 0.0 else -math.inf
    else:
        base = math.log1p(-params.eta) if params.eta < 1.0 else -math.inf
    lag += diff * base if base > -math.inf else np.where(diff > 0, -math.inf, 0.0)


def build_response(
    params: DetectorParams, n_max: int, m_max: int
) -> ResponseMatrix:
    """Materialize the dense response matrix on the given window.

    Equivalent to filling every entry with :func:`response_entry`. The
    ln L_r^s table fills the matrix buffer (its transpose when m_max > n_max)
    and a copy of its first r_max + 1 columns, the side block, takes the
    other branch; table row r is shifted right by r in place, side row r is
    copied into table column r, and one in-place exp ends the build.
    """
    if n_max < 0 or m_max < 0:
        raise ValueError("n_max and m_max must be nonnegative")
    r_max, tall = min(n_max, m_max), m_max > n_max
    entries = np.empty((m_max + 1, n_max + 1))
    table = _log_laguerre_table(params.laguerre_arg, r_max, max(n_max, m_max),
                                entries.T if tall else entries)
    low, side = np.arange(r_max + 1)[:, None], table[:, : r_max + 1].copy()
    _log_entries(params, low, np.arange(r_max + 1), side, not tall)
    _log_entries(params, low, np.arange(table.shape[1]), table, tall)
    first = 0 if tall else 1  # the diagonal keeps its lower-branch value
    for r in range(1, r_max + 1):  # all shifts before any side copy
        table[r, r:] = table[r, : table.shape[1] - r]
    for r in range(r_max + 1):
        table[r + first :, r] = side[r, first : r_max + 1 - r]
    np.exp(entries, out=entries)
    return ResponseMatrix(entries, params)


def zero_pad(values, size: int, name: str, limit: str) -> np.ndarray:
    """``values`` as a float vector zero-padded to ``size``; a longer
    vector raises ValueError naming it (``name``) and the ``limit``."""
    values = np.asarray(values, dtype=float)
    if values.size > size:
        raise ValueError(
            f"{name} of length {values.size} exceeds {limit} {size}"
        )
    return np.pad(values, (0, size - values.size))


def forward(mat: ResponseMatrix, p: PhotonDistribution) -> CountDistribution:
    """Apply the forward map: counts[m] = sum_n S[m|n] p[n].

    The photon vector may be shorter than the matrix column count; it is
    zero-padded. A longer vector is a dimension mismatch.
    """
    probs = zero_pad(p.probs, mat.n_max + 1, "photon vector", "matrix columns")
    return CountDistribution(mat.entries @ probs)


def suggest_m_max(params: DetectorParams, n_max: int, tail: float) -> int:
    """Smallest m_max whose column-n_max conditional distribution loses at
    most ``tail`` of its mass, found by cumulative summation of entries.

    The worst column is n_max (the conditional count mean grows with n).
    """
    _check_tail(tail)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if params.n_noise == 0.0:
        # no counts above n: the column is exactly supported on 0..n_max
        return n_max
    cap = n_max + _SUGGEST_HARD_MARGIN
    cum = 0.0
    for start in range(0, cap + 1, _SUGGEST_BLOCK):
        m = np.arange(start, min(start + _SUGGEST_BLOCK, cap + 1))
        low, diff = np.minimum(m, n_max), np.abs(m - n_max)
        log_s = log_laguerre_nonpos(low, diff, params.laguerre_arg)
        split = int(np.searchsorted(m, n_max))  # rows m < n_max come first
        _log_entries(params, low[:split], diff[:split], log_s[:split], False)
        _log_entries(params, np.array([[n_max]]), diff[split:], log_s[None, split:], True)
        # seeded with the running total: the sums of adding entry by entry
        cums = np.cumsum(np.concatenate(([cum], np.exp(log_s))))[1:]
        crossed = np.flatnonzero(1.0 - cums <= tail)
        if crossed.size:
            return start + int(crossed[0])
        cum = cums[-1]
    return cap
