import tracemalloc

import numpy as np
import pytest

from pnrecon.detector import (
    DetectorParams,
    build_response,
    forward,
    suggest_m_max,
)
from pnrecon.metrics import relative_error
from pnrecon.sampling import (
    _CHUNK_EVENTS,
    GENERATOR_NAME,
    SamplingConfig,
    expected_sampling_error,
    sample_counts,
)
from pnrecon.states import thermal


def test_generator_is_named():
    assert GENERATOR_NAME == "pcg64"


def test_raw_stream_reference_vector():
    # pins the exact bit stream the sampler consumes; any drift in the
    # generator or the uniform mapping breaks recorded reproducibility
    raw = np.random.PCG64(0).random_raw(4)
    assert raw.tolist() == [
        11749869230777074271,
        4976686463289251617,
        755828109848996024,
        304881062738325533,
    ]
    from pnrecon.sampling import _uniform_stream

    uniforms = np.concatenate(list(_uniform_stream(0, 4)))
    assert uniforms.tolist() == [
        (r >> 11) * 2.0**-53 for r in raw.tolist()
    ]


def test_frozen_empirical_frequencies():
    dist = np.array([0.25, 0.5, 0.25])
    got = sample_counts(dist, SamplingConfig(events=8, seed=0))
    assert got.tolist() == [0.25, 0.5, 0.25]


class TestSamplingConfig:
    def test_events_validation(self):
        with pytest.raises(ValueError):
            SamplingConfig(events=0)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            SamplingConfig(events=10, seed=-1)
        with pytest.raises(ValueError):
            SamplingConfig(events=10, seed=2**64)

    @pytest.mark.parametrize(
        "events, seed",
        [(10.5, 0), (10.0, 0), (True, 0), ("10", 0), (10, 1.5)],
    )
    def test_non_integral_rejected(self, events, seed):
        with pytest.raises(ValueError, match="must be an integer"):
            SamplingConfig(events=events, seed=seed)

    def test_numpy_integers_accepted(self):
        config = SamplingConfig(events=np.int64(10), seed=np.uint64(3))
        assert sample_counts(
            np.array([0.5, 0.5]), config
        ).sum() == pytest.approx(1.0)


class TestSampleCounts:
    def test_degenerate_distribution_is_exact(self):
        dist = np.array([1.0, 0.0, 0.0])
        got = sample_counts(dist, SamplingConfig(events=977, seed=5))
        assert got.tolist() == [1.0, 0.0, 0.0]

    def test_reproducible(self):
        dist = np.array([0.25, 0.5, 0.25])
        a = sample_counts(dist, SamplingConfig(events=4000, seed=99))
        b = sample_counts(dist, SamplingConfig(events=4000, seed=99))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        dist = np.array([0.25, 0.5, 0.25])
        a = sample_counts(dist, SamplingConfig(events=4000, seed=1))
        b = sample_counts(dist, SamplingConfig(events=4000, seed=2))
        assert not np.array_equal(a, b)

    def test_frequencies_are_multiples_of_inverse_events(self):
        dist = np.array([0.1, 0.2, 0.3, 0.4])
        events = 1234
        got = sample_counts(dist, SamplingConfig(events=events, seed=3))
        counts = np.rint(got * events).astype(int)
        assert counts.sum() == events
        assert np.array_equal(got, counts / events)

    def test_law_of_large_numbers(self):
        dist = thermal(6, 1e-8)
        params = DetectorParams(0.8, 0.3)
        m_max = suggest_m_max(params, dist.n_max, 1e-8)
        exact = forward(build_response(params, dist.n_max, m_max), dist)
        events = 10_000_000
        got = sample_counts(exact, SamplingConfig(events=events, seed=17))
        delta = relative_error(got, exact)
        bound = 3.0 * expected_sampling_error(exact, events) / float(
            np.linalg.norm(exact)
        )
        assert delta <= bound

    def test_error_scales_like_inverse_sqrt_events(self):
        dist = thermal(5, 1e-8)
        params = DetectorParams(0.9, 0.1)
        m_max = suggest_m_max(params, dist.n_max, 1e-8)
        exact = forward(build_response(params, dist.n_max, m_max), dist)
        medians = {}
        for events in (1000, 4000):
            deltas = [
                relative_error(
                    sample_counts(
                        exact, SamplingConfig(events=events, seed=seed)
                    ),
                    exact,
                )
                for seed in range(100, 120)
            ]
            medians[events] = float(np.median(deltas))
        ratio = medians[1000] / medians[4000]
        assert 2.0 / 1.3 <= ratio <= 2.0 * 1.3

    def test_thermal_experiment_sampling_error_scale(self):
        dist = thermal(30, 1e-6)
        params = DetectorParams(0.34, 0.30)
        m_max = suggest_m_max(params, dist.n_max, 1e-8)
        exact = forward(build_response(params, dist.n_max, m_max), dist)
        got = sample_counts(exact, SamplingConfig(events=50_000, seed=1))
        delta = relative_error(got, exact)
        assert 0.015 <= delta <= 0.045

    def test_negative_entries_rejected(self):
        for bad in (-0.1, np.nan, np.inf):  # NaN used to become a full bin
            dist = np.array([0.5, bad, 0.6])
            with pytest.raises(ValueError):
                sample_counts(dist, SamplingConfig(events=10, seed=0))

    def test_zero_mass_rejected(self):
        dist = np.zeros(4)
        with pytest.raises(ValueError):
            sample_counts(dist, SamplingConfig(events=10, seed=0))

    def test_renormalizes_over_window(self):
        dist = np.array([0.45, 0.45])  # mass 0.9
        got = sample_counts(dist, SamplingConfig(events=100_000, seed=8))
        assert got.sum() == pytest.approx(1.0)
        assert got[0] == pytest.approx(0.5, abs=0.01)


def _one_shot_counts(probs: np.ndarray, events: int, seed: int) -> np.ndarray:
    """Reference sampler: the whole uniform stream drawn in one call."""
    raw = np.random.PCG64(seed).random_raw(events)
    cdf = np.cumsum(probs / probs.sum())
    cdf[-1] = 1.0
    draws = np.searchsorted(cdf, (raw >> np.uint64(11)) * 2.0**-53, side="right")
    return np.bincount(draws, minlength=probs.size) / events


class TestChunkedStream:
    @pytest.mark.parametrize(
        "events",
        [1, _CHUNK_EVENTS - 1, _CHUNK_EVENTS, _CHUNK_EVENTS + 1,
         3 * _CHUNK_EVENTS + 5],
    )
    def test_matches_one_shot_reference(self, events):
        probs = thermal(3.0, 1e-6).probs
        got = sample_counts(
            probs, SamplingConfig(events=events, seed=19)
        )
        assert np.array_equal(got, _one_shot_counts(probs, events, 19))

    def test_chunks_concatenate_to_the_one_shot_stream(self):
        from pnrecon.sampling import _uniform_stream

        events = 2 * _CHUNK_EVENTS + 3
        chunks = list(_uniform_stream(5, events))
        assert [c.size for c in chunks] == [_CHUNK_EVENTS, _CHUNK_EVENTS, 3]
        raw = np.random.PCG64(5).random_raw(events)
        assert np.array_equal(
            np.concatenate(chunks), (raw >> np.uint64(11)) * 2.0**-53
        )

    def test_memory_does_not_grow_with_events(self):
        # one-shot sampling of 2e6 events holds about 48 MB at once
        dist = thermal(3.0, 1e-6).probs
        tracemalloc.start()
        try:
            sample_counts(dist, SamplingConfig(events=2_000_000, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestExpectedSamplingError:
    def test_matches_multinomial_variance_formula(self):
        probs = np.array([0.5, 0.25, 0.25])
        expected = np.sqrt((1.0 - float(probs @ probs)) / 800.0)
        assert expected_sampling_error(probs, 800) == pytest.approx(expected)

    def test_empirically_calibrated(self):
        dist = thermal(4, 1e-8)
        params = DetectorParams(0.7, 0.2)
        m_max = suggest_m_max(params, dist.n_max, 1e-8)
        exact = forward(build_response(params, dist.n_max, m_max), dist)
        events = 2000
        errors = [
            float(
                np.linalg.norm(
                    sample_counts(
                        exact, SamplingConfig(events=events, seed=seed)
                    )
                    - exact / exact.sum()
                )
            )
            for seed in range(40)
        ]
        mean_err = float(np.mean(errors))
        predicted = expected_sampling_error(exact, events)
        assert mean_err == pytest.approx(predicted, rel=0.25)
