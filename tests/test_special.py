import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from pnrecon.special import (
    SignedLogValue,
    kummer_phi,
    laguerre_assoc,
    log_factorial,
    log_laguerre_nonpos,
)

mp.mp.dps = 50


def laguerre_oracle(n, k, x):
    """Defining sum evaluated in arbitrary precision."""
    return sum(
        mp.binomial(n + k, n - i) * (-mp.mpf(x)) ** i / mp.factorial(i)
        for i in range(n + 1)
    )


def kummer_oracle(a, b, x):
    total = mp.mpf(1)
    term = mp.mpf(1)
    for i in range(100_000):
        term *= mp.mpf(a + i) * mp.mpf(x) / ((b + i) * (i + 1))
        total += term
        if abs(term) < mp.mpf(10) ** -45 * abs(total):
            break
    return total


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert laguerre_assoc(0, 5, -3.7) == 1.0

    def test_degree_one(self):
        # L_1^k(x) = k + 1 - x
        assert laguerre_assoc(1, 2, -1.0) == 4.0

    def test_frozen_oracle_value(self):
        # arbitrary-precision series for L_12^7(-2.5)
        assert laguerre_assoc(12, 7, -2.5) == pytest.approx(
            943380.92810093763389, rel=1e-12
        )

    @pytest.mark.parametrize(
        "n,k,x",
        [
            (5, 0, -0.5817647058823529),
            (25, 13, -1.109),
            (60, 2, -0.2153),
            (100, 40, -7.3),
            (40, 0, -50.0),
            (17, -9, -2.0),
            (3, -3, -1.5),
        ],
    )
    def test_series_oracle(self, n, k, x):
        expected = float(laguerre_oracle(n, k, mp.mpf(repr(x))))
        assert laguerre_assoc(n, k, x) == pytest.approx(expected, rel=1e-12)

    def test_three_term_recurrence(self):
        # (n+1) L_{n+1}^k = (2n+k+1-x) L_n^k - (n+k) L_{n-1}^k
        rng = np.random.default_rng(7)
        for _ in range(120):
            n = int(rng.integers(1, 200))
            k = int(rng.integers(0, 200))
            x = float(rng.uniform(-50.0, 0.0))
            low = laguerre_assoc(n - 1, k, x)
            mid = laguerre_assoc(n, k, x)
            high = laguerre_assoc(n + 1, k, x)
            lhs = (n + 1) * high
            rhs = (2 * n + k + 1 - x) * mid - (n + k) * low
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_value_at_zero_is_binomial(self):
        for n in range(0, 31):
            for k in range(0, 61 - n, 7):
                got = laguerre_assoc(n, k, 0.0)
                assert got == float(math.comb(n + k, n))
                if math.comb(n + k, n) < 2**53:
                    assert round(got) == math.comb(n + k, n)

    @given(
        n=st.integers(0, 120),
        k=st.integers(0, 120),
        x=st.floats(-50.0, 0.0, allow_nan=False),
    )
    def test_strictly_positive_on_nonpositive_arguments(self, n, k, x):
        assert laguerre_assoc(n, k, x) > 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            laguerre_assoc(-1, 0, 0.0)
        with pytest.raises(ValueError):
            laguerre_assoc(3, -4, 0.0)
        with pytest.raises(ValueError):
            laguerre_assoc(4, 2, 1.3)  # x > 0 is outside the domain

    def test_log_form_matches_linear_form(self):
        value = log_laguerre_nonpos(30, 11, -4.0)
        assert math.exp(value) == pytest.approx(
            laguerre_assoc(30, 11, -4.0), rel=1e-14
        )


class TestKummer:
    def test_empty_series_at_zero(self):
        result = kummer_phi(3, 2, 0.0)
        assert result.to_float() == 1.0

    def test_exponential_identity_value(self):
        assert kummer_phi(1, 1, 2.0).to_float() == pytest.approx(
            math.exp(2.0), rel=1e-13
        )

    def test_frozen_oracle_value(self):
        assert kummer_phi(4, 2, 1.5).to_float() == pytest.approx(
            12.884856077221936365, rel=1e-12
        )

    @pytest.mark.parametrize(
        "a,b,x",
        [(6, 3, 0.5386), (41, 16, 0.2153), (120, 1, 1.2259), (15, 15, 9.0)],
    )
    def test_series_oracle(self, a, b, x):
        expected = float(kummer_oracle(a, b, mp.mpf(repr(x))))
        got = kummer_phi(a, b, x)
        assert got.sign == 1
        assert math.exp(got.log_magnitude) == pytest.approx(expected, rel=1e-12)

    def test_exponential_identity_grid(self):
        for a in range(1, 11):
            for x in (0.0, 0.3, 4.2, 17.0, 30.0):
                got = kummer_phi(a, a, x).to_float()
                assert got == pytest.approx(math.exp(x), rel=1e-12)

    @given(
        a=st.integers(1, 60),
        b=st.integers(1, 60),
        x=st.floats(0.0, 40.0, allow_nan=False),
    )
    def test_positive_on_domain(self, a, b, x):
        assert kummer_phi(a, b, x).sign == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            kummer_phi(0, 1, 1.0)
        with pytest.raises(ValueError):
            kummer_phi(1, 0, 1.0)
        with pytest.raises(ValueError):
            kummer_phi(1, 1, -0.5)


class TestLogFactorial:
    def test_zero(self):
        assert log_factorial(0) == 0.0

    def test_small_closed_form(self):
        assert log_factorial(5) == pytest.approx(math.log(120.0), rel=1e-15)

    def test_frozen_large_value(self):
        # high-precision log-gamma for ln(170!)
        assert log_factorial(170) == pytest.approx(
            706.57306224578734711, rel=1e-13
        )

    def test_monotone(self):
        values = [log_factorial(n) for n in range(0, 400, 3)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_factorial(-1)


class TestSignedLogValue:
    def test_zero_round_trip(self):
        v = SignedLogValue.from_float(0.0)
        assert v.sign == 0
        assert v.to_float() == 0.0

    @given(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False))
    def test_round_trip(self, value):
        got = SignedLogValue.from_float(value).to_float()
        if value == 0.0:
            assert got == 0.0
        else:
            assert got == pytest.approx(value, rel=1e-12)

    def test_overflow_is_an_error_not_inf(self):
        with pytest.raises(OverflowError):
            SignedLogValue(800.0, 1).to_float()


def test_kummer_overflow_guard():
    with pytest.raises(OverflowError):
        kummer_phi(500, 1, 700.0)
