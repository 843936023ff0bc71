import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from pnrecon import special
from pnrecon.special import (
    _KUMMER_MAX_TERMS,
    log_factorial_table,
    log_kummer,
    log_laguerre_nonpos,
)

mp.mp.dps = 50


def laguerre(n, k, x):
    return math.exp(log_laguerre_nonpos(n, k, x))


def kummer(a, b, x):
    return math.exp(log_kummer(a, b, x))


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
        assert laguerre(0, 5, -3.7) == 1.0

    def test_degree_one(self):
        # L_1^k(x) = k + 1 - x
        assert laguerre(1, 2, -1.0) == 4.0

    def test_frozen_oracle_value(self):
        # arbitrary-precision series for L_12^7(-2.5)
        assert laguerre(12, 7, -2.5) == pytest.approx(
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
        assert laguerre(n, k, x) == pytest.approx(expected, rel=1e-12)

    def test_three_term_recurrence(self):
        # (n+1) L_{n+1}^k = (2n+k+1-x) L_n^k - (n+k) L_{n-1}^k
        rng = np.random.default_rng(7)
        for _ in range(120):
            n = int(rng.integers(1, 200))
            k = int(rng.integers(0, 200))
            x = float(rng.uniform(-50.0, 0.0))
            low = laguerre(n - 1, k, x)
            mid = laguerre(n, k, x)
            high = laguerre(n + 1, k, x)
            lhs = (n + 1) * high
            rhs = (2 * n + k + 1 - x) * mid - (n + k) * low
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_value_at_zero_is_binomial(self):
        for n in range(0, 31):
            for k in range(0, 61 - n, 7):
                got = log_laguerre_nonpos(n, k, 0.0)
                expected = math.log(math.comb(n + k, n))
                assert got == pytest.approx(expected, rel=1e-14, abs=1e-14)

    @given(
        n=st.integers(0, 120),
        k=st.integers(0, 120),
        x=st.floats(-50.0, 0.0, allow_nan=False),
    )
    def test_strictly_positive_on_nonpositive_arguments(self, n, k, x):
        # L > 0 is a finite logarithm
        assert math.isfinite(log_laguerre_nonpos(n, k, x))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            log_laguerre_nonpos(-1, 0, 0.0)
        with pytest.raises(ValueError):
            log_laguerre_nonpos(3, -4, 0.0)
        with pytest.raises(ValueError):
            log_laguerre_nonpos(4, 2, 1.3)  # x > 0 is outside the domain

    def test_log_form_beyond_double_range(self):
        # L_400^400(-1000) is about exp(979): no double holds it
        expected = mp.log(laguerre_oracle(400, 400, -1000))
        assert log_laguerre_nonpos(400, 400, -1000.0) == pytest.approx(
            float(expected), rel=1e-14
        )

    def test_scalar_input_returns_float(self):
        assert type(log_laguerre_nonpos(7, 3, -1.5)) is float
        assert type(log_laguerre_nonpos(7, 3, 0.0)) is float

    @pytest.mark.parametrize("x", [-2.5, -0.01, 0.0])
    def test_elementwise_matches_scalar(self, x):
        n = np.array([[0, 3, 17, 40], [5, 2, 9, 1]])
        k = np.array([[4, -3, 0, 9], [60, -2, 25, 0]])
        got = log_laguerre_nonpos(n, k, x)
        assert got.shape == n.shape
        for idx in np.ndindex(n.shape):
            scalar = log_laguerre_nonpos(int(n[idx]), int(k[idx]), x)
            assert got[idx] == pytest.approx(scalar, rel=1e-14, abs=1e-14), idx

    def test_elementwise_broadcasts(self):
        n = np.arange(6)[:, None]
        k = np.arange(8)[None, :]
        got = log_laguerre_nonpos(n, k, -0.7)
        assert got.shape == (6, 8)
        expected = [[laguerre(i, j, -0.7) for j in range(8)] for i in range(6)]
        assert np.allclose(np.exp(got), expected, rtol=1e-13, atol=0.0)

    def test_value_at_zero_elementwise(self):
        # L_n^k(0) = C(n+k, n): zero (log -inf) for -n <= k < 0
        got = log_laguerre_nonpos(np.array([2, 3, 4]), np.array([-1, 1, 0]), 0.0)
        assert got[0] == -math.inf
        assert got[1:] == pytest.approx([math.log(4.0), 0.0], abs=1e-15)

    def test_nan_argument_rejected(self):
        with pytest.raises(ValueError):
            log_laguerre_nonpos(np.array([2, 3]), 1, math.nan)
        with pytest.raises(ValueError):
            log_laguerre_nonpos(2, 1, math.nan)

    def test_invalid_elementwise_arguments(self):
        with pytest.raises(ValueError):
            log_laguerre_nonpos(np.array([1, -1]), 0, -1.0)
        with pytest.raises(ValueError):
            log_laguerre_nonpos(np.array([3, 3]), np.array([0, -4]), -1.0)


class TestKummer:
    def test_empty_series_at_zero(self):
        assert kummer(3, 2, 0.0) == 1.0

    def test_exponential_identity_value(self):
        assert kummer(1, 1, 2.0) == pytest.approx(math.exp(2.0), rel=1e-13)

    def test_frozen_oracle_value(self):
        assert kummer(4, 2, 1.5) == pytest.approx(
            12.884856077221936365, rel=1e-12
        )

    @pytest.mark.parametrize(
        "a,b,x",
        [(6, 3, 0.5386), (41, 16, 0.2153), (120, 1, 1.2259), (15, 15, 9.0)],
    )
    def test_series_oracle(self, a, b, x):
        expected = float(kummer_oracle(a, b, mp.mpf(repr(x))))
        assert kummer(a, b, x) == pytest.approx(expected, rel=1e-12)

    def test_exponential_identity_grid(self):
        for a in range(1, 11):
            for x in (0.0, 0.3, 4.2, 17.0, 30.0):
                assert kummer(a, a, x) == pytest.approx(math.exp(x), rel=1e-12)


class TestLogFactorialTable:
    def test_zero(self):
        assert log_factorial_table(0)[0] == 0.0

    def test_small_closed_form(self):
        assert log_factorial_table(5)[5] == pytest.approx(
            math.log(120.0), rel=1e-15
        )

    def test_frozen_large_value(self):
        # high-precision log-gamma for ln(170!)
        assert log_factorial_table(170)[170] == pytest.approx(
            706.57306224578734711, rel=1e-13
        )

    def test_monotone(self):
        assert np.all(np.diff(log_factorial_table(400)) >= 0)

    def test_read_only_before_and_after_growth(self):
        # every call returns a view of one shared cache
        for n_max in (5, 2 * special._log_fact_cache.size):
            table = log_factorial_table(n_max)
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] += 1.0
        assert log_factorial_table(0)[0] == 0.0


def test_kummer_overflow_guard():
    with pytest.raises(OverflowError, match=r"overflowed at term \d+"):
        log_kummer(500, 1, 700.0)


def first_kummer_term_beyond_double(a, b, x):
    """Index of the first term (a)_i x^i / ((b)_i i!) above the largest
    double, by the term recurrence in arbitrary precision."""
    largest = mp.mpf(np.finfo(float).max)
    term = mp.mpf(1)
    for i in range(_KUMMER_MAX_TERMS):
        term *= mp.mpf(a + i) * mp.mpf(x) / ((b + i) * (i + 1))
        if term > largest:
            return i + 1
    raise AssertionError("no term leaves the double range")


@pytest.mark.parametrize(
    "a, b, x", [(500, 1, 700.0), (1, 1, 800.0), (40, 3, 1500.0)],
    ids=["product-overflows-early", "exponential", "large-b"],
)
def test_kummer_overflow_names_the_first_term_beyond_double(a, b, x):
    # the summer forms term * (a + i) before dividing, which for (500, 1,
    # 700) overflows while term 144 (1.12e307) is still a double
    with pytest.raises(OverflowError) as info:
        log_kummer(a, b, x)
    found = re.search(r"overflowed at term (\d+)", str(info.value))
    assert found, str(info.value)
    assert int(found.group(1)) == first_kummer_term_beyond_double(a, b, x)


def test_kummer_overflow_raises_at_the_first_overflowing_term():
    # the index grids build_inverse passes for a 200 x 200 window
    n = np.arange(200)[:, None]
    m = np.arange(200)[None, :]
    with pytest.raises(OverflowError) as info:
        log_kummer(np.maximum(n, m) + 1.0, np.abs(n - m) + 1.0, 700.0)
    found = re.search(r"overflowed at term (\d+)", str(info.value))
    assert found, str(info.value)
    assert 0 < int(found.group(1)) < _KUMMER_MAX_TERMS
