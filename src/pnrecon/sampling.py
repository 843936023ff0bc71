"""Seeded simulation of photocounting measurements.

Draws independent categorical samples by inverse-CDF lookup on a uniform
stream derived from the PCG64 bit generator. The uniform mapping is pinned
here explicitly (u = k / 2^53 for the top 53 bits k of each 64-bit word),
so the sample stream is fully specified by (distribution, events, seed)
and reproduces across platforms and library versions. The lookup compares
the integers k themselves: u < c exactly when k < ceil(c * 2^53), both
exact, so the counts are those of the uniforms bit for bit. Events are
drawn in fixed chunks of one sequential stream, each dropped before the
next, so memory stays one chunk and the counts do not depend on its size.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .states import _require_finite, _require_integer, _require_probabilities, _require_vector

__all__ = [
    "GENERATOR_NAME",
    "SamplingConfig",
    "sample_counts",
    "expected_sampling_error",
]

GENERATOR_NAME = "pcg64"

_SEED_LIMIT = 2**64
_CHUNK_EVENTS = 2**16


@dataclass(frozen=True)
class SamplingConfig:
    """Number of sampling events and the 64-bit generator seed."""

    events: int
    seed: int = 0

    def __post_init__(self):
        for name in ("events", "seed"):
            object.__setattr__(self, name, _require_integer(name, getattr(self, name)))
        if self.events < 1:
            raise ValueError(f"events must be >= 1, got {self.events}")
        if not (0 <= self.seed < _SEED_LIMIT):
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def _word_stream(seed: int, count: int) -> Iterator[np.ndarray]:
    """The integers k = word >> 11 of the raw PCG64 output (the uniforms are
    k / 2^53), as uint64 in successive chunks of at most _CHUNK_EVENTS."""
    bitgen = np.random.PCG64(seed)
    for start in range(0, count, _CHUNK_EVENTS):
        words = bitgen.random_raw(min(_CHUNK_EVENTS, count - start))
        words >>= np.uint64(11)
        yield words
        del words  # one chunk alive at a time, if the caller drops its own


def sample_counts(true_dist, config: SamplingConfig) -> np.ndarray:
    """Simulate empirical photocount frequencies.

    Draws ``config.events`` i.i.d. samples from the given count vector
    (renormalized over its window) and returns the frequencies counts/nu
    as a float vector. Identical inputs and seed give bit-identical output.
    """
    probs = _require_vector(true_dist, "count vector")
    _require_probabilities(probs, "count", "m")
    total = float(probs.sum())
    if total <= 0.0:
        raise ValueError("invalid distribution: total mass is zero")
    cdf = np.cumsum(probs / total)
    cdf[-1] = 1.0  # close the window so every u < 1 lands inside
    # below[m] counts draws u < cdf[m], i.e. k < limits[m]; bin m holds cdf[m - 1] <= u < cdf[m]
    limits = np.ceil(cdf * 2.0**53).astype(np.uint64)
    below = np.zeros(probs.size, dtype=np.intp)
    for words in _word_stream(config.seed, config.events):
        words.sort()
        below += np.searchsorted(words, limits, side="left")
        del words  # drop the chunk before the next is drawn
    return np.diff(below, prepend=0) / config.events


def expected_sampling_error(dist, events: int) -> float:
    """Expected Euclidean error of empirical frequencies from ``events``
    i.i.d. draws from the count vector ``dist``: sqrt((1 - sum p^2) / nu).
    A NaN or infinite entry raises ValueError naming it: max(0, nan) would
    read as no noise and turn the discrepancy stop off."""
    probs = _require_vector(dist, "count vector")
    _require_finite(probs, "count", "m")
    return float(np.sqrt(max(0.0, 1.0 - float(probs @ probs)) / events))
