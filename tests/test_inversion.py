import math

import mpmath as mp
import numpy as np
import pytest

from pnrecon.detector import (
    DetectorParams,
    build_response,
    forward,
)
from pnrecon.inversion import (
    InversionOverflowError,
    _log_inverse_m_ge_n,
    _log_inverse_m_le_n,
    build_inverse,
    direct_reconstruct,
    inverse_entry,
)
from pnrecon.states import fock

mp.mp.dps = 50


def entry_value(params, n, m):
    """Sinv[n|m] as a float, from the (log magnitude, sign) pair."""
    log_mag, sign = inverse_entry(params, n, m)
    return sign * math.exp(log_mag) if sign else 0.0


def dense_inverse(params, n_max, m_max):
    """Sinv on the window as plain floats."""
    log_mag, sign = build_inverse(params, n_max, m_max)
    return sign * np.exp(log_mag)


def inverse_oracle(eta, n_noise, n, m):
    """Arbitrary-precision evaluation of the closed-form inverse entry."""
    eta = mp.mpf(eta)
    noise = mp.mpf(n_noise)
    y = noise * (1 - eta) / eta

    def phi(a, b):
        total = mp.mpf(1)
        term = mp.mpf(1)
        for i in range(100_000):
            term *= mp.mpf(a + i) * y / ((b + i) * (i + 1))
            total += term
            if abs(term) < mp.mpf(10) ** -45 * abs(total):
                break
        return total

    if m <= n:
        return (
            eta**-n
            * phi(n + 1, n - m + 1)
            * mp.e**noise
            * (-noise) ** (n - m)
            / mp.factorial(n - m)
        )
    return (
        mp.e**noise
        * phi(m + 1, m - n + 1)
        * mp.binomial(m, n)
        * eta**-n
        * (1 - 1 / eta) ** (m - n)
    )


class TestInverseEntry:
    def test_pure_loss_first_offdiagonal(self):
        got = entry_value(DetectorParams(0.5, 0.0), 0, 1)
        assert got == pytest.approx(-1.0, rel=1e-14)

    def test_noiseless_diagonal_is_inverse_power(self):
        params = DetectorParams(0.7, 0.0)
        for n in (0, 1, 5, 12):
            got = entry_value(params, n, n)
            assert got == pytest.approx(0.7**-n, rel=1e-13)

    @pytest.mark.parametrize(
        "n,m,expected",
        [
            (0, 0, 2.6206461697829841649),
            (2, 5, -1.1527394827316623624),
            (5, 2, -0.71923251728670729562),
            (10, 10, 145.47617048621112735),
            (20, 35, -13627.721905782475333),
            (35, 20, -2.3591861547731636954e-10),
        ],
    )
    def test_frozen_oracle_values(self, n, m, expected):
        got = entry_value(DetectorParams(0.7764, 0.748), n, m)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_oracle_grid(self):
        rng = np.random.default_rng(11)
        params = DetectorParams(0.7764, 0.748)
        for _ in range(25):
            n = int(rng.integers(0, 41))
            m = int(rng.integers(0, 41))
            expected = float(inverse_oracle("0.7764", "0.748", n, m))
            assert entry_value(params, n, m) == pytest.approx(
                expected, rel=1e-10
            )

    def test_branch_consistency_on_diagonal(self):
        for params in (
            DetectorParams(0.34, 0.30),
            DetectorParams(0.7764, 0.748),
            DetectorParams(0.613749, 1.763442),
        ):
            for d in (0, 3, 11, 24, 40):
                low_mag, low_sign = _log_inverse_m_le_n(params, d, d)
                high_mag, high_sign = _log_inverse_m_ge_n(params, d, d)
                assert low_sign == high_sign == 1
                assert low_mag == pytest.approx(high_mag, rel=1e-10)

    def test_sign_alternation(self):
        params = DetectorParams(0.7764, 0.748)
        for n in range(12):
            for m in range(12):
                _, sign = inverse_entry(params, n, m)
                assert sign == (-1) ** abs(n - m)


class TestBuildInverse:
    @pytest.mark.parametrize(
        "params, dead",
        [
            (DetectorParams(0.613749, 1.763442), False),
            (DetectorParams(0.5, 0.0), True),  # no noise: m < n dead
            (DetectorParams(1.0, 0.7), True),  # no loss: m > n dead
        ],
        ids=["lossy-noisy", "noiseless", "lossless"],
    )
    def test_matches_scalar_entries(self, params, dead):
        log_magnitude, signs = build_inverse(params, 15, 20)
        assert np.any(signs == 0) == dead
        for n in range(16):
            for m in range(21):
                log_mag, sign = inverse_entry(params, n, m)
                assert signs[n, m] == sign
                if sign == 0:
                    assert (log_mag, sign) == (-math.inf, 0)
                    assert log_magnitude[n, m] == -math.inf
                else:
                    assert log_magnitude[n, m] == pytest.approx(
                        log_mag, rel=1e-12, abs=1e-12
                    )

    @pytest.mark.parametrize(
        "eta,n_noise,window,m_hi",
        [
            (0.7764, 0.748, 40, 110),
            (0.9, 0.3, 40, 90),
            (0.7, 0.5, 40, 120),
        ],
    )
    def test_left_inverse_on_truncated_window(self, eta, n_noise, window, m_hi):
        params = DetectorParams(eta, n_noise)
        mat = build_response(params, window, m_hi)
        product = dense_inverse(params, window, m_hi) @ mat.entries
        assert np.max(np.abs(product - np.eye(window + 1))) <= 1e-6

    def test_left_inverse_cancellation_floor_at_low_efficiency(self):
        # at eta=0.5 the inverse entries stop decaying in the count index,
        # so the identity sums cancel terms of order 1e12 and double
        # precision floors near max|term| * eps instead of the truncation
        params = DetectorParams(0.5, 1.0)
        mat = build_response(params, 40, 150)
        dense = dense_inverse(params, 40, 150)
        product = dense @ mat.entries
        deviation = np.abs(product - np.eye(41))
        i, j = np.unravel_index(np.argmax(deviation), deviation.shape)
        scale = float(np.abs(dense[i] * mat.entries[:, j]).max())
        assert deviation.max() <= 1e3 * scale * np.finfo(float).eps

    def test_row_norm_growth_is_monotone(self):
        # the instability mechanism: deeper photon numbers amplify more
        for params in (
            DetectorParams(0.7764, 0.748),
            DetectorParams(0.613749, 1.763442),
        ):
            norms = np.linalg.norm(dense_inverse(params, 40, 80), axis=1)
            assert np.all(np.diff(norms) >= 0)


class TestDirectReconstruct:
    def test_identity_detector_returns_counts(self):
        params = DetectorParams(1.0, 0.0)
        got = direct_reconstruct(params, [0.2, 0.3, 0.5], 2)
        assert got == pytest.approx([0.2, 0.3, 0.5], rel=1e-14)

    def test_noiseless_fock_recovery(self):
        params = DetectorParams(0.9, 0.0)
        mat = build_response(params, 5, 5)
        counts = forward(mat, fock(2))
        got = direct_reconstruct(params, counts, 5)
        expected = np.zeros(6)
        expected[2] = 1.0
        assert np.max(np.abs(got - expected)) <= 1e-8

    def test_term_overflow_names_the_index(self):
        params = DetectorParams(0.05, 0.5)
        probs = np.zeros(301)
        probs[300] = 1.0
        with pytest.raises(InversionOverflowError) as err:
            direct_reconstruct(params, probs, 300)
        assert err.value.m == 300  # the only populated count bin
        assert 0 <= err.value.n <= 300

    def test_output_not_projected(self):
        # sampled-noise amplification must surface as raw negative entries
        params = DetectorParams(0.7764, 0.748)
        mat = build_response(params, 60, 70)
        rng = np.random.default_rng(0)
        exact = forward(mat, fock(8))
        noisy = np.maximum(exact + rng.normal(0, 1e-4, exact.size), 0.0)
        noisy /= noisy.sum()
        got = direct_reconstruct(params, noisy, 60)
        assert np.any(got < 0)
