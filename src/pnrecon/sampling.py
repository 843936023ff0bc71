"""Seeded simulation of photocounting measurements.

Draws independent categorical samples by inverse-CDF lookup on a uniform
stream derived from the PCG64 bit generator. The uniform mapping is pinned
here explicitly (top 53 bits of each 64-bit word), so the sample stream is
fully specified by (distribution, events, seed) and reproduces across
platforms and library versions. Events are drawn in fixed chunks of one
sequential stream, so memory stays bounded and the counts do not depend
on the chunk size.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .states import _require_integer, _require_probabilities

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


def _uniform_stream(seed: int, count: int) -> Iterator[np.ndarray]:
    """Uniforms in [0, 1) from the raw PCG64 output: u = (word >> 11) / 2^53,
    yielded in successive chunks of at most _CHUNK_EVENTS."""
    bitgen = np.random.PCG64(seed)
    for start in range(0, count, _CHUNK_EVENTS):
        raw = bitgen.random_raw(min(_CHUNK_EVENTS, count - start))
        yield (raw >> np.uint64(11)) * 2.0**-53


def sample_counts(true_dist, config: SamplingConfig) -> np.ndarray:
    """Simulate empirical photocount frequencies.

    Draws ``config.events`` i.i.d. samples from the given count vector
    (renormalized over its window) and returns the frequencies counts/nu
    as a float vector. Identical inputs and seed give bit-identical output.
    """
    probs = np.asarray(true_dist, dtype=float)
    _require_probabilities(probs, "count", "m")
    total = float(probs.sum())
    if total <= 0.0:
        raise ValueError("invalid distribution: total mass is zero")
    cdf = np.cumsum(probs / total)
    cdf[-1] = 1.0  # close the window so every u < 1 lands inside
    counts = np.zeros(probs.size, dtype=np.intp)
    for uniforms in _uniform_stream(config.seed, config.events):
        draws = np.searchsorted(cdf, uniforms, side="right")
        counts += np.bincount(draws, minlength=probs.size)
    return counts / config.events


def expected_sampling_error(dist, events: int) -> float:
    """Expected Euclidean error of empirical frequencies from ``events``
    i.i.d. draws from the count vector ``dist``: sqrt((1 - sum p^2) / nu)."""
    probs = np.asarray(dist, dtype=float)
    return float(np.sqrt(max(0.0, 1.0 - float(probs @ probs)) / events))
