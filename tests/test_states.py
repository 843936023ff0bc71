import math

import numpy as np
import pytest

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
    dist.validate()
    assert np.all(dist.probs >= 0)
    total = float(dist.probs.sum())
    assert 1.0 - dist.truncation_tail <= total <= 1.0 + 1e-12
    assert dist.truncation_tail <= tail


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
        dist.validate()

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

    @pytest.mark.parametrize("token", ["NaN", "inf"])
    def test_non_finite_rejected(self, tmp_path, token):
        path = tmp_path / "d.txt"
        path.write_text(f"0.5, {token}, 0.5")
        with pytest.raises(ValueError, match="finite, got .* at n=1"):
            from_file(path)


class TestPhotonDistributionValidate:
    def test_negative_rejected(self):
        dist = PhotonDistribution(np.array([0.5, -0.1, 0.6]), 0.0)
        with pytest.raises(ValueError):
            dist.validate()

    @pytest.mark.parametrize("values", [[0.05, 0.25], [0.15]])
    def test_tail_of_one_minus_sum_passes_whatever_the_rounding(self, values):
        probs = np.array(values)
        PhotonDistribution(probs, max(0.0, 1.0 - float(probs.sum()))).validate()

    def test_mass_window_enforced(self):
        dist = PhotonDistribution(np.array([0.5, 0.4]), 1e-12)
        with pytest.raises(ValueError):
            dist.validate()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        dist = PhotonDistribution(np.array([0.5, 0.2, bad, 0.3]), 0.0)
        with pytest.raises(
            ValueError,
            match=f"photon probabilities must be finite, got {bad} at n=2",
        ):
            dist.validate()
