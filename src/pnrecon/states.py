"""Analytic photon-number distributions used as test inputs.

Each generator returns the smallest window whose exact tail, the mass
past it, is at most a caller-supplied ``tail``. Every PhotonDistribution
checks its vector when built and derives the truncation tail,
max(0, 1 - sum), from it: the deficit of the rounded terms, which can
exceed ``tail`` where the terms' rounding outweighs it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .special import poisson_upper

__all__ = [
    "PhotonDistribution",
    "thermal",
    "spats",
    "even_cat",
    "fock",
    "from_file",
    "parse_vector",
    "DistributionFileError",
    "ParseError",
    "NegativeProbabilityError",
    "SumDeviationError",
]

_SUM_UPPER_SLACK = 1e-12
_FILE_SUM_TOL = 1e-6
_WINDOW_CAP = 10_000_000


class DistributionFileError(ValueError):
    """A distribution file failed validation."""


class ParseError(DistributionFileError):
    """The file contents could not be parsed as a vector of reals."""


class NegativeProbabilityError(DistributionFileError):
    """The file contains a negative entry."""


class SumDeviationError(DistributionFileError):
    """The file's entries do not sum to 1 within tolerance."""


@dataclass(frozen=True, eq=False)
class PhotonDistribution:
    """Probabilities over photon numbers 0..N, checked when built: a
    nonempty 1-d vector of finite, nonnegative entries whose total mass is
    at most 1 + 1e-12. A mass deficit is allowed and becomes the
    truncation tail, max(0, 1 - total)."""

    probs: np.ndarray
    truncation_tail: float = field(init=False)

    def __post_init__(self):
        probs = _require_vector(self.probs, "photon vector")
        if not probs.size:
            raise ValueError("probs must be a nonempty 1-d vector")
        _require_probabilities(probs, "photon", "n")
        total = float(probs.sum())
        if total > 1.0 + _SUM_UPPER_SLACK:
            raise ValueError(f"total mass {total!r} exceeds 1 + 1e-12")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "truncation_tail", max(0.0, 1.0 - total))

    @property
    def n_max(self) -> int:
        return self.probs.size - 1


def _require_integer(name: str, value) -> int:
    """``value`` as an int; a bool, float or other non-integer (even 10.0)
    raises ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _require_real(name: str, value) -> float:
    """``value`` as a float; a bool, string or other non-number raises
    TypeError naming it, a NaN or infinity ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return float(value)


def _require_vector(values, name: str) -> np.ndarray:
    """``values`` as a float array; anything but a 1-d vector raises
    ValueError naming ``name`` and the shape."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {values.shape}")
    return values


def _require_finite(values: np.ndarray, kind: str, index: str) -> None:
    """Reject non-finite probabilities, naming the first (at ``index``=i);
    ``kind`` is "photon" or "count"."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(
            f"{kind} probabilities must be finite, got "
            f"{values[bad[0]]} at {index}={bad[0]}"
        )


def _require_probabilities(values: np.ndarray, kind: str, index: str) -> None:
    """Reject non-finite probabilities (as _require_finite) and negative
    ones (naming the most negative)."""
    _require_finite(values, kind, index)
    if np.any(values < 0):
        bad = int(np.argmin(values))
        raise NegativeProbabilityError(
            f"negative probability {float(values[bad])!r} at index {bad}"
        )


def _check_tail(tail) -> None:
    if not (0.0 < _require_real("tail", tail) < 1.0):
        raise ValueError(f"tail must be in (0, 1), got {tail}")


def _check_window(size: float) -> None:
    if size > _WINDOW_CAP:
        raise ValueError(f"truncation window exceeds the sanity cap of {_WINDOW_CAP} entries")


def _window(log_tail, tail: float) -> int:
    """The smallest window k >= 1 whose tail, the exact mass at n >= k, is
    at most ``tail``, given its logarithm log_tail(k), which falls with k:
    a bisection on [1, cap + 1] against ln(tail), so that a window past
    the sanity cap is refused before any term is formed. Exact but where
    log_tail(k) lies within a few ulps of ln(tail)."""
    target, low, high = math.log(tail), 1, _WINDOW_CAP + 1
    while low < high:
        mid = (low + high) // 2
        low, high = (low, mid) if log_tail(mid) <= target else (mid + 1, high)
    _check_window(low)
    return low


def thermal(mean_n: float, tail: float = 1e-10) -> PhotonDistribution:
    """Thermal distribution p_n = (1/(1+nbar)) (nbar/(1+nbar))^n.

    Truncated at the smallest window whose exact tail, r^k with
    r = nbar/(1+nbar), is at most ``tail``.
    """
    if _require_real("mean_n", mean_n) <= 0:
        raise ValueError(f"mean_n must be positive, got {mean_n}")
    _check_tail(tail)
    log_ratio = -math.log1p(1.0 / mean_n)
    size = _window(lambda k: k * log_ratio, tail)
    ratio = mean_n / (1.0 + mean_n)
    scale = 1.0 / (1.0 + mean_n)
    return PhotonDistribution(np.array([scale * ratio**n for n in range(size)]))


def spats(mean_n: float, tail: float = 1e-10) -> PhotonDistribution:
    """Single-photon-added thermal distribution,
    p_n = n/(nbar (1+nbar)) (nbar/(1+nbar))^n, with p_0 = 0.

    mean_n is the thermal mean nbar before the photon is added; the mean
    photon number of the returned state is 2 nbar + 1. Truncated at the
    smallest window whose exact tail, r^(k-1) (1 + (k-1)(1-r)) with
    r = nbar/(1+nbar), is at most ``tail``.
    """
    if _require_real("mean_n", mean_n) <= 0:
        raise ValueError(f"mean_n must be positive, got {mean_n}")
    _check_tail(tail)
    log_ratio = -math.log1p(1.0 / mean_n)
    size = _window(
        lambda k: (k - 1) * log_ratio + math.log1p((k - 1) / (1.0 + mean_n)), tail
    )
    ratio = mean_n / (1.0 + mean_n)
    scale = 1.0 / (mean_n * (1.0 + mean_n))
    return PhotonDistribution(np.array([n * scale * ratio**n for n in range(size)]))


def even_cat(alpha_sq: float, tail: float = 1e-10) -> PhotonDistribution:
    """Even coherent-superposition distribution: zero at odd n, and

        p_n = 2 e^{-|a|^2} |a|^{2n} / (n! (1 + e^{-2|a|^2}))

    at even n, with alpha_sq = |a|^2. Computed in log space; |a|^{2n}/n!
    overflows a double beyond n of roughly 35 at the magnitudes of
    interest. Truncated at the smallest window whose tail, summed
    smallest term first, is at most ``tail``.
    """
    if _require_real("alpha_sq", alpha_sq) <= 0:
        raise ValueError(f"alpha_sq must be positive, got {alpha_sq}")
    _check_tail(tail)
    log_norm = math.log(2.0) - alpha_sq - math.log1p(math.exp(-2.0 * alpha_sq))
    log_asq = math.log(alpha_sq)
    # p_n <= 2 Poisson(n): the Poisson lower-tail bound exp(-x^2/(2 a)) on
    # the mass below a - x bounds the window from below, and less than
    # tail * eps of the mass lies past ``upper``
    _check_window(alpha_sq - math.sqrt(2.0 * alpha_sq * math.log(2.0 / (1.0 - tail))))
    upper = poisson_upper(alpha_sq, tail, weight=2.0)
    terms = [
        0.0 if n % 2 else math.exp(log_norm + n * log_asq - math.lgamma(n + 1))
        for n in range(int(upper) + 1)
    ]
    size = int(np.count_nonzero(np.cumsum(terms[::-1]) > tail))
    _check_window(size)
    return PhotonDistribution(np.array(terms[:size]))


def fock(n: int) -> PhotonDistribution:
    """Delta distribution concentrated at photon number n."""
    if _require_integer("n", n) < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    probs = np.zeros(n + 1)
    probs[n] = 1.0
    return PhotonDistribution(probs)


def parse_vector(text: str) -> tuple[np.ndarray, dict]:
    """Parse a distribution payload: a JSON array, a JSON object with a
    "probs" array (its other keys are returned as metadata), or
    comma/whitespace-separated reals. Returns (values, metadata)."""
    import json

    stripped = text.strip()
    metadata = {}
    if stripped[:1] in ("[", "{"):
        try:
            payload = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
        if isinstance(payload, dict):
            if "probs" not in payload:
                raise ParseError('JSON object lacks a "probs" array')
            metadata = {k: v for k, v in payload.items() if k != "probs"}
            payload = payload["probs"]
        if not isinstance(payload, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in payload
        ):
            raise ParseError("JSON payload is not an array of reals")
        values = np.array(payload, dtype=float)
    else:
        try:
            values = np.array([float(t) for t in stripped.replace(",", " ").split()])
        except ValueError as exc:
            raise ParseError(f"invalid numeric token: {exc}") from exc
    if not values.size:
        raise ParseError("empty distribution file")
    return values, metadata


def from_file(path) -> PhotonDistribution:
    """Load and validate a photon-number distribution from a file.

    Rejects non-finite and negative entries, a mass deficit of more than
    1e-6 and any mass above 1 + 1e-12, the bound every PhotonDistribution
    keeps. Never renormalizes: a normalization defect signals an upstream
    mistake the caller has to see; an accepted deficit becomes the
    truncation tail.
    """
    with open(path, encoding="utf-8") as handle:
        values, _ = parse_vector(handle.read())
    _require_probabilities(values, "photon", "n")
    total = float(values.sum())
    if 1.0 - total > _FILE_SUM_TOL or total > 1.0 + _SUM_UPPER_SLACK:
        raise SumDeviationError(
            f"probabilities sum to {total!r}, outside "
            f"[1 - {_FILE_SUM_TOL}, 1 + {_SUM_UPPER_SLACK}]"
        )
    return PhotonDistribution(values)
