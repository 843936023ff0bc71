"""Analytic photon-number distributions used as test inputs.

Each generator returns a distribution truncated to a finite window chosen
so that the discarded mass is below a caller-supplied tail bound; the bound
actually achieved is recorded on the result so downstream consumers can
audit truncation error.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

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
    """Probabilities over photon numbers 0..N plus the truncation bound.

    Invariants: all probabilities nonnegative, and the total mass lies in
    [1 - truncation_tail, 1 + 1e-12].
    """

    probs: np.ndarray
    truncation_tail: float = 0.0

    def __post_init__(self):
        object.__setattr__(
            self, "probs", np.asarray(self.probs, dtype=float)
        )

    def validate(self) -> None:
        if self.probs.ndim != 1 or self.probs.size == 0:
            raise ValueError("probs must be a nonempty 1-d vector")
        _require_probabilities(self.probs, "photon", "n")
        total = float(self.probs.sum())
        # 1 - total <= tail, not 1 - tail <= total: a tail computed as
        # 1 - total passes whatever the rounding
        if not (1.0 - total <= self.truncation_tail and total <= 1.0 + _SUM_UPPER_SLACK):
            raise ValueError(
                f"total mass {total!r} outside "
                f"[1 - {self.truncation_tail!r}, 1 + 1e-12]"
            )

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


def _require_probabilities(values: np.ndarray, kind: str, index: str) -> None:
    """Reject non-finite probabilities (naming the first, at ``index``=i)
    and negative ones (naming the most negative); ``kind`` is "photon" or
    "count"."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(
            f"{kind} probabilities must be finite, got "
            f"{values[bad[0]]} at {index}={bad[0]}"
        )
    if np.any(values < 0):
        bad = int(np.argmin(values))
        raise NegativeProbabilityError(
            f"negative probability {float(values[bad])!r} at index {bad}"
        )


def _check_tail(tail) -> None:
    if not (0.0 < _require_real("tail", tail) < 1.0):
        raise ValueError(f"tail must be in (0, 1), got {tail}")


def _truncate_by_mass(term, tail: float) -> PhotonDistribution:
    """Accumulate term(n) for n = 0, 1, ... until the collected mass
    reaches 1 - tail.  term must describe a normalized distribution."""
    probs = []
    cum = 0.0
    n = 0
    while cum < 1.0 - tail:
        p = term(n)
        probs.append(p)
        cum += p
        n += 1
        if n > _WINDOW_CAP:
            raise RuntimeError("truncation window exceeded sanity cap")
    arr = np.array(probs)
    discarded = max(0.0, 1.0 - float(arr.sum()))
    return PhotonDistribution(arr, discarded)


def thermal(mean_n: float, tail: float = 1e-10) -> PhotonDistribution:
    """Thermal distribution p_n = (1/(1+nbar)) (nbar/(1+nbar))^n.

    Truncated at the smallest window holding at least 1 - tail of the
    (geometric) mass.
    """
    if _require_real("mean_n", mean_n) <= 0:
        raise ValueError(f"mean_n must be positive, got {mean_n}")
    _check_tail(tail)
    ratio = mean_n / (1.0 + mean_n)
    scale = 1.0 / (1.0 + mean_n)
    return _truncate_by_mass(lambda n: scale * ratio**n, tail)


def spats(mean_n: float, tail: float = 1e-10) -> PhotonDistribution:
    """Single-photon-added thermal distribution,
    p_n = n/(nbar (1+nbar)) (nbar/(1+nbar))^n, with p_0 = 0.

    mean_n is the thermal mean nbar before the photon is added; the mean
    photon number of the returned state is 2 nbar + 1.
    """
    if _require_real("mean_n", mean_n) <= 0:
        raise ValueError(f"mean_n must be positive, got {mean_n}")
    _check_tail(tail)
    ratio = mean_n / (1.0 + mean_n)
    scale = 1.0 / (mean_n * (1.0 + mean_n))
    return _truncate_by_mass(lambda n: n * scale * ratio**n, tail)


def even_cat(alpha_sq: float, tail: float = 1e-10) -> PhotonDistribution:
    """Even coherent-superposition distribution: zero at odd n, and

        p_n = 2 e^{-|a|^2} |a|^{2n} / (n! (1 + e^{-2|a|^2}))

    at even n, with alpha_sq = |a|^2. Computed in log space; |a|^{2n}/n!
    overflows a double beyond n of roughly 35 at the magnitudes of
    interest.
    """
    if _require_real("alpha_sq", alpha_sq) <= 0:
        raise ValueError(f"alpha_sq must be positive, got {alpha_sq}")
    _check_tail(tail)
    log_norm = math.log(2.0) - alpha_sq - math.log1p(math.exp(-2.0 * alpha_sq))
    log_asq = math.log(alpha_sq)

    def term(n: int) -> float:
        if n % 2 == 1:
            return 0.0
        return math.exp(log_norm + n * log_asq - math.lgamma(n + 1))

    return _truncate_by_mass(term, tail)


def fock(n: int) -> PhotonDistribution:
    """Delta distribution concentrated at photon number n."""
    if _require_integer("n", n) < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    probs = np.zeros(n + 1)
    probs[n] = 1.0
    return PhotonDistribution(probs, 0.0)


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
    return PhotonDistribution(values, max(0.0, 1.0 - total))
