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
from dataclasses import dataclass

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ResponseMatrix:
    """Dense response matrix, rows m = 0..m_max, columns n = 0..n_max.

    col_tail[n] bounds the conditional mass truncated away above m_max in
    column n: sum_m entries[m, n] >= 1 - col_tail[n].
    """

    entries: np.ndarray
    params: DetectorParams
    col_tail: np.ndarray

    @property
    def m_max(self) -> int:
        return self.entries.shape[0] - 1

    @property
    def n_max(self) -> int:
        return self.entries.shape[1] - 1


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
    if m >= n:
        log_value = _log_entry_m_ge_n(params, m, n)
    else:
        log_value = _log_entry_m_le_n(params, m, n)
    return math.exp(log_value) if log_value != -math.inf else 0.0


def _log_laguerre_table(x: float, r_max: int, s_max: int) -> np.ndarray:
    """Table of ln L_r^s(x) for r = 0..r_max, s = 0..s_max, x <= 0; column
    s + 1 is the running log-sum of column s, since L_r^{s+1}(x) =
    sum_{i<=r} L_i^s(x) (order-sum identity, DLMF 18.18).
    """
    r = np.arange(r_max + 1)
    if x == 0.0:
        return log_laguerre_nonpos(r[:, None], np.arange(s_max + 1), x)
    out = np.empty((s_max + 1, r_max + 1))
    out[0] = log_laguerre_nonpos(r, 0, x)
    for s in range(s_max):
        np.logaddexp.accumulate(out[s], out=out[s + 1])
    return out.T


def _log_entries(params: DetectorParams, m, n, log_laguerre) -> np.ndarray:
    """ln S[m|n] over broadcastable index arrays m, n; ``log_laguerre(low,
    diff)`` gives ln L_low^diff at the detector's Laguerre argument."""
    noise = params.n_noise
    table = log_factorial_table(int(max(np.max(m), np.max(n))))
    diff = np.abs(m - n)
    log_eta = math.log(params.eta)
    log_up = -noise + n * log_eta + table[n] - table[m]
    if noise > 0.0:
        log_up = log_up + diff * math.log(noise)
    else:
        log_up = np.where(diff > 0, -math.inf, log_up)
    log_lo = -noise + m * log_eta
    if params.eta < 1.0:
        log_lo = log_lo + diff * math.log1p(-params.eta)
    else:
        log_lo = np.where(diff > 0, -math.inf, log_lo)
    lag = log_laguerre(np.minimum(m, n), diff)
    return np.where(m >= n, log_up, log_lo) + lag


def build_response(
    params: DetectorParams, n_max: int, m_max: int
) -> ResponseMatrix:
    """Materialize the dense response matrix on the given window.

    Equivalent to filling every entry with :func:`response_entry`; the
    whole matrix shares one Laguerre argument, so the polynomial values
    are tabulated once and the entries assembled vectorized. The table
    holds ln L_r^s for r up to min(n_max, m_max) and s up to
    max(n_max, m_max): order 0 is summed from the series, and each higher
    order is a running log-sum of the previous one (order-sum identity),
    so the table costs O(r*s) exp/log evaluations and one table of memory.
    """
    if n_max < 0 or m_max < 0:
        raise ValueError("n_max and m_max must be nonnegative")
    lag = _log_laguerre_table(
        params.laguerre_arg, min(n_max, m_max), max(n_max, m_max)
    )
    m = np.arange(m_max + 1)[:, None]
    n = np.arange(n_max + 1)[None, :]
    entries = np.exp(_log_entries(params, m, n, lambda low, diff: lag[low, diff]))
    col_tail = np.maximum(0.0, 1.0 - entries.sum(axis=0))
    return ResponseMatrix(entries, params, col_tail)


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
    x = params.laguerre_arg
    cap = n_max + _SUGGEST_HARD_MARGIN
    cum = 0.0
    for start in range(0, cap + 1, _SUGGEST_BLOCK):
        m = np.arange(start, min(start + _SUGGEST_BLOCK, cap + 1))
        log_s = _log_entries(
            params, m, n_max, lambda low, diff: log_laguerre_nonpos(low, diff, x)
        )
        # seeded with the running total: the sums of adding entry by entry
        cums = np.cumsum(np.concatenate(([cum], np.exp(log_s))))[1:]
        crossed = np.flatnonzero(1.0 - cums <= tail)
        if crossed.size:
            return start + int(crossed[0])
        cum = cums[-1]
    return cap
