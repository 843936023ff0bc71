"""Analytic series inverse of the detector response.

The inverse matrix is

    m <= n:  Sinv[n|m] = eta^{-n} Phi(n+1, n-m+1; y) e^{N} (-N)^{n-m}/(n-m)!
    m >= n:  Sinv[n|m] = e^{N} Phi(m+1, m-n+1; y) C(m,n) eta^{-n} (1-1/eta)^{m-n}

with y = N(1-eta)/eta >= 0 and N = n_noise. Entries grow without bound in
the indices whenever eta < 1, which is exactly why reconstruction through
this matrix amplifies statistical noise catastrophically; the module keeps
entries in signed-log form and surfaces overflow as a structured error
naming the offending index instead of saturating silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import CountDistribution, DetectorParams
from .special import MAX_LOG, SignedLogValue, kummer_phi, log_factorial_table, log_kummer
from .states import _require_probabilities

__all__ = [
    "InverseMatrix",
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


@dataclass(frozen=True, eq=False)
class InverseMatrix:
    """Dense inverse-response matrix in signed-log form.

    Rows are photon numbers n = 0..n_max, columns photocounts m = 0..m_max.
    """

    log_magnitude: np.ndarray
    sign: np.ndarray
    params: DetectorParams

    def to_dense(self) -> np.ndarray:
        """Materialize the entries as plain floats; raises when any entry
        exceeds the double range."""
        log_magnitude = np.where(self.sign != 0, self.log_magnitude, -math.inf)
        _check_range(log_magnitude, "inverse entry")
        with np.errstate(over="raise"):
            return self.sign * np.exp(log_magnitude)


def _check_range(log_values: np.ndarray, what: str) -> None:
    """Raise InversionOverflowError naming the (n, m) of the largest of
    ``log_values`` (dead entries -inf) if it is beyond the double range."""
    n, m = np.unravel_index(np.argmax(log_values), log_values.shape)
    if log_values[n, m] > MAX_LOG:
        raise InversionOverflowError(
            f"{what} at n={n}, m={m} has log magnitude "
            f"{log_values[n, m]:.6g}, beyond double range",
            int(n),
            int(m),
        )


def _log_inverse_m_le_n(
    params: DetectorParams, n: int, m: int
) -> tuple[float, int]:
    """(log magnitude, sign) of Sinv[n|m] on the m <= n branch."""
    noise = params.n_noise
    if noise == 0.0 and n > m:
        return -math.inf, 0
    y = noise * (1.0 - params.eta) / params.eta
    phi = kummer_phi(n + 1, n - m + 1, y)
    table = log_factorial_table(n - m)
    log_mag = (
        -n * math.log(params.eta)
        + phi.log_magnitude
        + noise
        - table[n - m]
    )
    if n > m:
        log_mag += (n - m) * math.log(noise)
    return log_mag, (-1) ** (n - m)


def _log_inverse_m_ge_n(
    params: DetectorParams, n: int, m: int
) -> tuple[float, int]:
    """(log magnitude, sign) of Sinv[n|m] on the m >= n branch."""
    if params.eta == 1.0 and m > n:
        return -math.inf, 0
    y = params.n_noise * (1.0 - params.eta) / params.eta
    phi = kummer_phi(m + 1, m - n + 1, y)
    table = log_factorial_table(m)
    log_mag = (
        params.n_noise
        + phi.log_magnitude
        + table[m]
        - table[n]
        - table[m - n]
        - n * math.log(params.eta)
    )
    if m > n:
        log_mag += (m - n) * (math.log1p(-params.eta) - math.log(params.eta))
    return log_mag, (-1) ** (m - n)


def inverse_entry(params: DetectorParams, n: int, m: int) -> SignedLogValue:
    """Entry Sinv[n|m] of the analytic inverse, in signed-log form."""
    if n < 0 or m < 0:
        raise ValueError(f"require n, m >= 0, got n={n}, m={m}")
    if m <= n:
        log_mag, sign = _log_inverse_m_le_n(params, n, m)
    else:
        log_mag, sign = _log_inverse_m_ge_n(params, n, m)
    return SignedLogValue(log_mag, sign)


def build_inverse(
    params: DetectorParams, n_max: int, m_max: int
) -> InverseMatrix:
    """Materialize Sinv on the given window in signed-log form.

    Matches :func:`inverse_entry` entry by entry; the Kummer factors for
    the whole window share the argument y, so the series is run once over
    the index grids.
    """
    if n_max < 0 or m_max < 0:
        raise ValueError("n_max and m_max must be nonnegative")
    noise = params.n_noise
    n = np.arange(n_max + 1)[:, None]
    m = np.arange(m_max + 1)[None, :]
    hi = np.maximum(n, m)
    diff = np.abs(n - m)
    y = noise * (1.0 - params.eta) / params.eta
    log_phi = log_kummer(hi + 1.0, diff + 1.0, y)
    table = log_factorial_table(max(n_max, m_max))
    log_eta = math.log(params.eta)

    log_mag = noise + log_phi - n * log_eta
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
    log_mag = log_mag + np.where(lower, log_lower, log_upper)
    dead = np.isneginf(log_mag)
    sign = np.where(dead, 0, sign).astype(np.int8)
    return InverseMatrix(log_mag, sign, params)


def direct_reconstruct(
    params: DetectorParams, counts: CountDistribution, n_max: int
) -> np.ndarray:
    """Invert the forward map through the analytic series:

        p[n] = sum_m Sinv[n|m] counts[m]

    Each row is summed by math.fsum, which is correctly rounded, so the
    term order does not matter. The output is returned raw: entries may
    be negative and the vector need not be normalized. This estimator is
    the unstable baseline; expect noise amplification that grows with n.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    probs = np.asarray(counts.probs, dtype=float)
    _require_probabilities(probs, "count", "m")
    inv = build_inverse(params, n_max, probs.size - 1)
    with np.errstate(divide="ignore"):
        log_counts = np.where(probs > 0, np.log(probs), -math.inf)
    log_terms = inv.log_magnitude + log_counts[None, :]
    log_terms = np.where(inv.sign != 0, log_terms, -math.inf)
    _check_range(log_terms, "series term")
    terms = inv.sign * np.exp(log_terms)
    return np.array([math.fsum(row) for row in terms])
