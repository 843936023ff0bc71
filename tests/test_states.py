import functools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pnrecon import states
from pnrecon.states import (
    NegativeProbabilityError,
    ParseError,
    PhotonDistribution,
    SumDeviationError,
    even_cat,
    fock,
    from_file,
    spats,
    thermal,
)

mp.mp.dps = 50


class TestThermal:
    def test_ground_probability(self):
        dist = thermal(30, 1e-10)
        assert dist.probs[0] == pytest.approx(1.0 / 31.0, rel=1e-14)

    def test_unit_mean_is_dyadic(self):
        dist = thermal(1, 1e-10)
        n = np.arange(dist.probs.size)
        assert dist.probs == pytest.approx(2.0 ** -(n + 1), rel=1e-13)

    def test_normalization(self):
        dist = thermal(30, 1e-10)
        total = math.fsum(dist.probs)
        assert 1.0 - 1e-10 <= total <= 1.0

    def test_mean_matches_parameter(self):
        dist = thermal(30, 1e-10)
        mean = math.fsum(n * p for n, p in enumerate(dist.probs))
        assert mean == pytest.approx(30.0, rel=1e-6)

    def test_numpy_scalars_accepted(self):
        assert np.array_equal(
            thermal(np.float64(3.0), np.float64(1e-6)).probs, thermal(3.0, 1e-6).probs
        )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            thermal(0.0, 1e-10)
        with pytest.raises(ValueError):
            thermal(5.0, 0.0)
        with pytest.raises(ValueError):
            thermal(5.0, 1.0)
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="mean_n must be finite"):
                thermal(value)


class TestSpats:
    def test_vacuum_is_empty(self):
        assert spats(10, 1e-10).probs[0] == 0.0

    def test_single_photon_weight(self):
        dist = spats(10, 1e-10)
        assert dist.probs[1] == pytest.approx((1 / 110) * (10 / 11), rel=1e-14)

    def test_normalization_via_independent_sum(self):
        # sum n x^n = x/(1-x)^2 normalizes the family; the truncated
        # vector must carry all but the recorded tail of that mass
        dist = spats(10, 1e-10)
        total = math.fsum(dist.probs)
        assert 1.0 - 1e-10 <= total <= 1.0 + 1e-12

    def test_mean_against_brute_force(self):
        dist = spats(10, 1e-10)
        mean = math.fsum(n * p for n, p in enumerate(dist.probs))
        tail_free = math.fsum(dist.probs)
        assert mean / tail_free == pytest.approx(mean, rel=1e-9)
        assert 20.9 < mean < 21.1


class TestEvenCat:
    def test_odd_entries_vanish(self):
        dist = even_cat(23.9, 1e-10)
        assert np.all(dist.probs[1::2] == 0.0)

    def test_small_alpha_is_nearly_vacuum(self):
        dist = even_cat(1e-8, 1e-10)
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-7)

    def test_normalization_via_cosh_identity(self):
        # sum over even n of x^n/n! = cosh(x) makes the family normalized
        dist = even_cat(23.9, 1e-10)
        total = math.fsum(dist.probs)
        assert 1.0 - 1e-10 <= total <= 1.0 + 1e-12

    def test_no_overflow_at_large_alpha(self):
        dist = even_cat(23.9, 1e-10)
        assert np.all(np.isfinite(dist.probs))
        assert dist.n_max > 40


class TestFock:
    def test_vacuum(self):
        assert fock(0).probs.tolist() == [1.0]

    def test_three(self):
        assert fock(3).probs.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fock(-1)

    @pytest.mark.parametrize("n", [True, 2.0])
    def test_non_integer_rejected(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            fock(n)


@pytest.mark.parametrize("tail", [1e-6, 1e-10])
@pytest.mark.parametrize(
    "build",
    [
        lambda tail: thermal(30, tail),
        lambda tail: spats(10, tail),
        lambda tail: even_cat(23.9, tail),
    ],
)
def test_generator_outputs_satisfy_invariants(build, tail):
    dist = build(tail)
    assert np.all(dist.probs >= 0)
    total = float(dist.probs.sum())
    assert 1.0 - dist.truncation_tail <= total <= 1.0 + 1e-12
    assert dist.truncation_tail <= tail


@pytest.mark.parametrize(
    "build, name", [(thermal, "mean_n"), (spats, "mean_n"), (even_cat, "alpha_sq")],
    ids=["thermal", "spats", "even_cat"],
)
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_generator_rejects_nonpositive_parameter(build, name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive, got {value}"):
        build(value)


def test_window_past_the_sanity_cap_is_a_value_error(monkeypatch):
    monkeypatch.setattr(states, "_WINDOW_CAP", 100)
    with pytest.raises(ValueError, match="sanity cap of 100 entries"):
        thermal(1e3)


@pytest.mark.parametrize(
    "build, value", [(thermal, 1e5), (spats, 1e5), (even_cat, 2e5)],
    ids=["thermal", "spats", "even_cat"],
)
def test_window_past_the_sanity_cap_is_refused_before_the_loop(
    monkeypatch, build, value
):
    # the loop alone would first collect 1e5 floats, about 3.2 MB
    monkeypatch.setattr(states, "_WINDOW_CAP", 100_000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="sanity cap of 100000 entries"):
            build(value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


@pytest.mark.parametrize(
    "build, args, size",
    [(thermal, (30.0,), 703), (even_cat, (30.0,), 71), (thermal, (1e3, 1e-12), 27645)],
    ids=["thermal", "even_cat", "thermal-small-tail"],
)
def test_window_at_the_sanity_cap_is_kept(monkeypatch, build, args, size):
    # neither the bisection (thermal) nor the even-cat checks, the bound
    # before the terms and the cut after them, refuse a window at the cap
    monkeypatch.setattr(states, "_WINDOW_CAP", size)
    assert build(*args).probs.size == size
    monkeypatch.setattr(states, "_WINDOW_CAP", size - 1)
    with pytest.raises(ValueError, match=f"sanity cap of {size - 1} entries"):
        build(*args)


@pytest.mark.parametrize(
    "build, args, size",
    [(spats, (1e3, 1e-12), 31116), (even_cat, (23.9, 1e-10), 61),
     (thermal, (1e3, 1e-14), 32253)],
    ids=["spats", "even_cat", "thermal-near-stall"],
)
def test_reachable_small_tail_keeps_its_window(build, args, size):
    # small tails where a float running sum of the terms would end short
    # (spats) or stop moving before 1 - tail (thermal); a zero term (p_0 of
    # SPATS, the odd terms of even cat) is part of the window
    assert build(*args).probs.size == size


def thermal_tail(mean_n, k):
    """The exact mass of thermal(mean_n) at n >= k, r^k."""
    ratio = mp.mpf(mean_n) / (1 + mp.mpf(mean_n))
    return ratio**k


def spats_tail(mean_n, k):
    """The exact mass of spats(mean_n) at n >= k, r^(k-1) (1 + (k-1)(1-r))."""
    ratio = mp.mpf(mean_n) / (1 + mp.mpf(mean_n))
    return ratio ** (k - 1) * (1 + (k - 1) * (1 - ratio))


def oracle_window(tail_at, tail) -> int:
    """The smallest k >= 1 with tail_at(k) <= tail, tail_at falling with
    k, by doubling then bisection in 50-digit arithmetic."""
    low, high = 1, 1
    while tail_at(high) > tail:
        low, high = high + 1, 2 * high
    while low < high:
        mid = (low + high) // 2
        low, high = (low, mid) if tail_at(mid) <= tail else (mid + 1, high)
    return low


@functools.lru_cache(maxsize=None)
def even_cat_oracle_windows(alpha_sq, tails) -> dict:
    """The smallest window of even_cat(alpha_sq) losing at most each tail,
    1 - (partial sum) in 50-digit arithmetic."""
    a = mp.mpf(alpha_sq)
    norm = 2 * mp.exp(-a) / (1 + mp.exp(-2 * a))
    cum, term, windows, n = mp.mpf(0), norm, {}, 0
    while len(windows) < len(tails):
        if n % 2 == 0:
            cum += term
            term *= a * a / ((n + 1) * (n + 2))
        for tail in tails:
            if tail not in windows and 1 - cum <= tail:
                windows[tail] = n + 1
        n += 1
    return windows


GRID_TAILS = (1e-4, 1e-6, 1e-10, 1e-12, 1e-14)
CAT_TAILS = (1e-6, 1e-10, 1e-12, 1e-14)


@pytest.mark.parametrize("tail", GRID_TAILS)
@pytest.mark.parametrize("mean_n", [0.5, 10.0, 30.0, 300.0, 1000.0])
@pytest.mark.parametrize(
    "build, tail_at", [(thermal, thermal_tail), (spats, spats_tail)],
    ids=["thermal", "spats"],
)
def test_window_matches_oracle(build, tail_at, mean_n, tail):
    want = oracle_window(lambda k: tail_at(mean_n, k), mp.mpf(tail))
    assert build(mean_n, tail).probs.size == want


@pytest.mark.parametrize("tail", CAT_TAILS)
@pytest.mark.parametrize("alpha_sq", [1.0, 23.9, 400.0])
def test_even_cat_window_matches_oracle(alpha_sq, tail):
    want = even_cat_oracle_windows(alpha_sq, CAT_TAILS)[tail]
    assert even_cat(alpha_sq, tail).probs.size == want


@pytest.mark.parametrize(
    "build, tail_at", [(thermal, thermal_tail), (spats, spats_tail)],
    ids=["thermal", "spats"],
)
@given(mean_n=st.floats(1e-3, 1e3), tail=st.floats(1e-15, 0.5))
# r = 1/2 and tail = 2^-33: the exact tail of 33 entries equals the bound,
# and the rounded logarithms put it one ulp above
@example(mean_n=1.0, tail=2.0**-33)
def test_window_is_the_smallest_whose_log_tail_is_below_ln_tail(
    build, tail_at, mean_n, tail
):
    # the rule compares rounded logarithms, so a log tail within a few
    # ulps of ln(tail) may fall on either side of it
    size = build(mean_n, tail).probs.size
    target = mp.log(tail)
    slack = 8 * np.finfo(float).eps * abs(target)
    assert mp.log(tail_at(mean_n, size)) <= target + slack
    assert mp.log(tail_at(mean_n, size - 1)) > target - slack


@pytest.mark.parametrize(
    "build", [thermal, spats, even_cat], ids=["thermal", "spats", "even_cat"]
)
@pytest.mark.parametrize("value", [True, "5.0", None])
def test_generator_rejects_non_number_parameters(build, value):
    with pytest.raises(TypeError, match="must be a real number"):
        build(value)
    with pytest.raises(TypeError, match="tail must be a real number"):
        build(5.0, value)


class TestFromFile:
    def test_comma_separated(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0.5, 0.5")
        dist = from_file(path)
        assert dist.probs.tolist() == [0.5, 0.5]

    def test_whitespace_separated(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0.25\n0.25 0.5\n")
        assert from_file(path).probs.tolist() == [0.25, 0.25, 0.5]

    def test_json_array(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("[0.5, 0.25, 0.25]")
        assert from_file(path).probs.tolist() == [0.5, 0.25, 0.25]

    def test_json_object_with_metadata(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"probs": [1.0], "origin": "test"}')
        assert from_file(path).probs.tolist() == [1.0]

    def test_negative_entry_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0.5, -0.1, 0.6")
        with pytest.raises(NegativeProbabilityError):
            from_file(path)

    def test_sum_deviation_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0.3, 0.3")
        with pytest.raises(SumDeviationError):
            from_file(path)

    def test_no_silent_renormalization(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0.4999999, 0.5")
        dist = from_file(path)
        assert dist.probs.tolist() == [0.4999999, 0.5]
        assert dist.truncation_tail == 1.0 - dist.probs.sum()

    @pytest.mark.parametrize("text", ["0.5000001, 0.5", "0.5, 0.5000005"])
    def test_mass_excess_rejected(self, tmp_path, text):
        # a PhotonDistribution holds at most 1 + 1e-12 of mass
        path = tmp_path / "d.txt"
        path.write_text(text)
        with pytest.raises(SumDeviationError, match=r"outside \[1 - 1e-06, 1 \+ 1e-12\]"):
            from_file(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("not a number")
        with pytest.raises(ParseError):
            from_file(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("")
        with pytest.raises(ParseError):
            from_file(path)

    @pytest.mark.parametrize(
        "text, message",
        [("[0.5, 0.5", "invalid JSON"),
         ('{"p": [0.5, 0.5]}', 'JSON object lacks a "probs" array'),
         ('[0.5, "0.5"]', "JSON payload is not an array of reals"),
         ("[true, false]", "JSON payload is not an array of reals"),
         ('{"probs": 1.0}', "JSON payload is not an array of reals")],
        ids=["invalid-json", "object-without-probs", "string-entry", "bool-entries",
             "probs-not-an-array"],
    )
    def test_malformed_json_rejected(self, tmp_path, text, message):
        path = tmp_path / "d.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
            from_file(path)

    @pytest.mark.parametrize("token", ["NaN", "inf"])
    def test_non_finite_rejected(self, tmp_path, token):
        path = tmp_path / "d.txt"
        path.write_text(f"0.5, {token}, 0.5")
        with pytest.raises(ValueError, match="finite, got .* at n=1"):
            from_file(path)


class TestPhotonDistributionConstruction:
    def test_negative_rejected(self):
        with pytest.raises(NegativeProbabilityError, match="negative probability -0.1 at index 1"):
            PhotonDistribution(np.array([0.5, -0.1, 0.6]))

    @pytest.mark.parametrize("values", [[0.05, 0.25], [0.15]])
    def test_tail_is_one_minus_sum_whatever_the_rounding(self, values):
        probs = np.array(values)
        dist = PhotonDistribution(probs)
        assert dist.truncation_tail == 1.0 - float(probs.sum())

    def test_tail_is_zero_at_full_or_excess_mass(self):
        assert PhotonDistribution(np.array([0.25, 0.75])).truncation_tail == 0.0
        assert PhotonDistribution(np.array([0.5, 0.5 + 1e-13])).truncation_tail == 0.0

    def test_excess_mass_rejected(self):
        with pytest.raises(ValueError, match=r"^total mass 1\.25 exceeds 1 \+ 1e-12$"):
            PhotonDistribution(np.array([0.5, 0.75]))

    def test_tail_is_not_an_argument(self):
        with pytest.raises(TypeError):
            PhotonDistribution(np.array([0.5, 0.4]), 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(
            ValueError,
            match=f"photon probabilities must be finite, got {bad} at n=2",
        ):
            PhotonDistribution(np.array([0.5, 0.2, bad, 0.3]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="probs must be a nonempty 1-d vector"):
            PhotonDistribution(np.array([]))
