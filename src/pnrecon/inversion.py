"""Analytic series inverse of the detector response.

The inverse matrix is

    m <= n:  Sinv[n|m] = eta^{-n} Phi(n+1, n-m+1; y) e^{N} (-N)^{n-m}/(n-m)!
    m >= n:  Sinv[n|m] = e^{N} Phi(m+1, m-n+1; y) C(m,n) eta^{-n} (1-1/eta)^{m-n}

with y = N(1-eta)/eta >= 0 and N = n_noise. Entries grow without bound in
the indices whenever eta < 1, which is exactly why reconstruction through
this matrix amplifies statistical noise catastrophically; the module keeps
entries in signed-log form and surfaces overflow as a structured error
naming the offending index instead of saturating silently.

One private row builder makes the signed-log entries of any band of rows
n over the full count window: ``build_inverse`` calls it once for the
whole window, and ``direct_reconstruct`` calls it for 16 rows at a time,
range-checking and summing each block before building the next. The
entries are elementwise, so a block holds the same bits as the same rows
of the whole window, while the reconstruction needs memory for 16 rows
instead of seven window-sized grids and refuses an overflowing window at
its first overflowing block.
"""

from __future__ import annotations

import math

import numpy as np

from .detector import DetectorParams
from .special import MAX_LOG, log_factorial_table, log_kummer
from .states import _require_probabilities, _require_vector

__all__ = [
    "InversionOverflowError",
    "inverse_entry",
    "build_inverse",
    "direct_reconstruct",
]


class InversionOverflowError(OverflowError):
    """A term of the inverse series exceeds the floating-point range."""

    def __init__(self, message: str, n: int, m: int):
        super().__init__(message)
        self.n = n
        self.m = m


def _check_range(log_values: np.ndarray, n_first: int) -> None:
    """Raise InversionOverflowError naming the (n, m) of the largest series
    term in ``log_values`` (dead terms -inf), its rows being n = n_first,
    n_first + 1, ..., if it is beyond double range."""
    row, m = np.unravel_index(np.argmax(log_values), log_values.shape)
    if log_values[row, m] > MAX_LOG:
        n = n_first + int(row)
        raise InversionOverflowError(
            f"series term at n={n}, m={m} has log magnitude "
            f"{log_values[row, m]:.6g}, beyond double range",
            n,
            int(m),
        )


def _log_inverse_m_le_n(params: DetectorParams, n: int, m: int) -> tuple[float, int]:
    """(log magnitude, sign) of Sinv[n|m] on the m <= n branch."""
    noise = params.n_noise
    if noise == 0.0 and n > m:
        return -math.inf, 0
    y = noise * (1.0 - params.eta) / params.eta
    table = log_factorial_table(n - m)
    log_mag = (
        -n * math.log(params.eta)
        + float(log_kummer(n + 1, n - m + 1, y))
        + noise
        - table[n - m]
    )
    if n > m:
        log_mag += (n - m) * math.log(noise)
    return log_mag, (-1) ** (n - m)


def _log_inverse_m_ge_n(params: DetectorParams, n: int, m: int) -> tuple[float, int]:
    """(log magnitude, sign) of Sinv[n|m] on the m >= n branch."""
    if params.eta == 1.0 and m > n:
        return -math.inf, 0
    y = params.n_noise * (1.0 - params.eta) / params.eta
    table = log_factorial_table(m)
    log_mag = (
        params.n_noise
        + float(log_kummer(m + 1, m - n + 1, y))
        + table[m]
        - table[n]
        - table[m - n]
        - n * math.log(params.eta)
    )
    if m > n:
        log_mag += (m - n) * (math.log1p(-params.eta) - math.log(params.eta))
    return log_mag, (-1) ** (m - n)


def inverse_entry(params: DetectorParams, n: int, m: int) -> tuple[float, int]:
    """(log magnitude, sign) of the entry Sinv[n|m] of the analytic
    inverse; a dead entry is (-inf, 0)."""
    if n < 0 or m < 0:
        raise ValueError(f"require n, m >= 0, got n={n}, m={m}")
    if m <= n:
        return _log_inverse_m_le_n(params, n, m)
    return _log_inverse_m_ge_n(params, n, m)


# rows of the inverse that direct_reconstruct builds, checks and sums at once
_BLOCK_ROWS = 16


def _log_inverse_rows(
    params: DetectorParams, rows: range, m_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """(log magnitude, int8 sign) of Sinv on rows n in ``rows`` and columns
    m = 0..m_max, a dead entry being (-inf, 0). The Kummer factors of the
    band share the argument y, so the series is run once over its grids."""
    noise = params.n_noise
    n = np.arange(rows.start, rows.stop)[:, None]
    m = np.arange(m_max + 1)[None, :]
    diff = np.abs(n - m)
    y = noise * (1.0 - params.eta) / params.eta
    log_mag = log_kummer(np.maximum(n, m) + 1.0, diff + 1.0, y)  # ln Phi, in place below
    table = log_factorial_table(max(rows.stop - 1, m_max))
    log_eta = math.log(params.eta)

    log_mag += noise
    log_mag -= n * log_eta
    sign = np.where(diff % 2 == 0, 1, -1).astype(np.int8)
    lower = m <= n  # noise-power branch
    with np.errstate(invalid="ignore", divide="ignore"):
        if noise > 0.0:
            log_lower = diff * math.log(noise) - table[diff]
        else:
            log_lower = np.where(diff > 0, -math.inf, 0.0)
        if params.eta < 1.0:
            log_upper = (
                table[m]
                - table[np.minimum(n, m)]
                - table[diff]
                + diff * (math.log1p(-params.eta) - log_eta)
            )
        else:
            log_upper = np.where(diff > 0, -math.inf, 0.0)
    log_mag += np.where(lower, log_lower, log_upper)
    dead = np.isneginf(log_mag)
    sign = np.where(dead, 0, sign).astype(np.int8)
    return log_mag, sign


def build_inverse(
    params: DetectorParams, n_max: int, m_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Materialize Sinv on the given window in signed-log form: the pair
    (log magnitude, int8 sign) of arrays, rows n = 0..n_max and columns
    m = 0..m_max, a dead entry being (-inf, 0).

    Matches :func:`inverse_entry` entry by entry; the Kummer factors for
    the whole window share the argument y, so the series is run once over
    the index grids. Peaks at about seven window-sized arrays.
    """
    if n_max < 0 or m_max < 0:
        raise ValueError("n_max and m_max must be nonnegative")
    return _log_inverse_rows(params, range(n_max + 1), m_max)


def direct_reconstruct(params: DetectorParams, counts, n_max: int) -> np.ndarray:
    """Invert the forward map through the analytic series:

        p[n] = sum_m Sinv[n|m] counts[m]

    Each row is summed by math.fsum, which is correctly rounded, so the
    term order does not matter. The output is returned raw: entries may
    be negative and the vector need not be normalized. This estimator is
    the unstable baseline; expect noise amplification that grows with n.

    The inverse is built, range-checked and summed 16 rows at a time, with
    the same bits as the whole-window :func:`build_inverse`, so memory
    stays at a few 16-row blocks. An InversionOverflowError names the
    largest term of the first block (in n) that holds an overflowing term.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    probs = _require_vector(counts, "count vector")
    _require_probabilities(probs, "count", "m")
    with np.errstate(divide="ignore"):
        log_probs = np.log(probs)
    estimate = np.empty(n_max + 1)
    for first in range(0, n_max + 1, _BLOCK_ROWS):
        rows = range(first, min(first + _BLOCK_ROWS, n_max + 1))
        log_terms, sign = _log_inverse_rows(params, rows, probs.size - 1)
        log_terms += log_probs
        _check_range(log_terms, first)
        terms = sign * np.exp(log_terms)
        estimate[first:rows.stop] = [math.fsum(row) for row in terms]
    return estimate
