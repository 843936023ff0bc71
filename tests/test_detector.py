import functools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pnrecon.detector import (
    _SUGGEST_HARD_MARGIN,
    DetectorParams,
    ResponseMatrix,
    _log_entry_m_ge_n,
    _log_entry_m_le_n,
    build_response,
    forward,
    response_entry,
    suggest_m_max,
)
from pnrecon import distio
from pnrecon.experiment import build_state, bundled_config_names, load_config
from pnrecon.landweber import ConstraintSet, LandweberConfig, SolveReport
from pnrecon.states import PhotonDistribution, fock, thermal

mp.mp.dps = 50

REFERENCE_PARAMS = [
    DetectorParams(0.34, 0.30),
    DetectorParams(0.7764, 0.748),
    DetectorParams(0.613749, 1.763442),
]


def entry_oracle(eta, n_noise, m, n):
    """Arbitrary-precision evaluation of the closed-form response entry."""
    eta = mp.mpf(eta)
    noise = mp.mpf(n_noise)
    x = noise * (eta - 1) / eta
    lag = lambda d, k: sum(
        mp.binomial(d + k, d - i) * (-x) ** i / mp.factorial(i)
        for i in range(d + 1)
    )
    if m >= n:
        return (
            mp.e**-noise
            * noise ** (m - n)
            * eta**n
            * mp.factorial(n)
            / mp.factorial(m)
            * lag(n, m - n)
        )
    return mp.e**-noise * (1 - eta) ** (n - m) * eta**m * lag(m, n - m)


class TestDetectorParams:
    @pytest.mark.parametrize("eta", [0.0, -0.2, 1.2, math.nan, math.inf])
    def test_eta_range(self, eta):
        with pytest.raises(ValueError):
            DetectorParams(eta, 0.1)

    def test_noise_range(self):
        with pytest.raises(ValueError):
            DetectorParams(0.5, -0.1)

    @pytest.mark.parametrize("noise", [math.nan, math.inf])
    def test_non_finite_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="finite"):
            DetectorParams(0.5, noise)

    @pytest.mark.parametrize(
        "eta, noise", [(True, 0.1), (0.5, False), ("0.5", 0.1), (0.5, None)]
    )
    def test_non_numbers_rejected(self, eta, noise):
        with pytest.raises(TypeError, match="must be a real number"):
            DetectorParams(eta, noise)

    def test_numpy_scalars_accepted(self):
        params = DetectorParams(np.float64(0.5), np.int64(0))
        assert params == DetectorParams(0.5, 0.0)
        assert type(params.n_noise) is float

    def test_laguerre_arg_sign(self):
        assert DetectorParams(0.34, 0.30).laguerre_arg <= 0
        assert DetectorParams(1.0, 0.5).laguerre_arg == 0


class TestResponseEntry:
    def test_pure_loss_is_binomial(self):
        got = response_entry(DetectorParams(0.5, 0.0), 1, 2)
        assert got == pytest.approx(0.5, rel=1e-14)

    def test_no_photons_is_poisson_noise(self):
        got = response_entry(DetectorParams(0.42, 1.0), 2, 0)
        assert got == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-14)

    def test_perfect_detector_is_identity(self):
        params = DetectorParams(1.0, 0.0)
        for m in range(6):
            for n in range(6):
                expected = 1.0 if m == n else 0.0
                assert response_entry(params, m, n) == expected

    @pytest.mark.parametrize(
        "m,n,expected",
        [
            (0, 0, 0.74081822068171786607),
            (5, 3, 0.0021887126841846761386),
            (3, 5, 0.21186738782907665022),
            (12, 12, 0.000051780486193670225905),
            (40, 25, 3.7689246728342046275e-32),
            (25, 40, 0.00027136701607516256676),
            (60, 60, 7.2100363175189720031e-25),
        ],
    )
    def test_frozen_oracle_values(self, m, n, expected):
        got = response_entry(DetectorParams(0.34, 0.30), m, n)
        assert got == pytest.approx(expected, rel=1e-11)

    def test_oracle_grid(self):
        rng = np.random.default_rng(3)
        params = DetectorParams(0.34, 0.30)
        for _ in range(25):
            m = int(rng.integers(0, 61))
            n = int(rng.integers(0, 61))
            expected = float(entry_oracle("0.34", "0.30", m, n))
            assert response_entry(params, m, n) == pytest.approx(
                expected, rel=1e-11
            )

    def test_invalid_indices(self):
        with pytest.raises(ValueError):
            response_entry(DetectorParams(0.5, 0.1), -1, 0)

    @pytest.mark.parametrize("params", REFERENCE_PARAMS)
    def test_branch_consistency_on_diagonal(self, params):
        for d in range(0, 101, 9):
            upper = _log_entry_m_ge_n(params, d, d)
            lower = _log_entry_m_le_n(params, d, d)
            assert math.exp(upper) == pytest.approx(
                math.exp(lower), rel=1e-12
            )


class TestBuildResponse:
    def test_identity(self):
        mat = build_response(DetectorParams(1.0, 0.0), 10, 10)
        assert np.array_equal(mat.entries, np.eye(11))
        assert np.all(mat.col_tail <= 1e-12)

    def test_matches_scalar_entries(self):
        params = DetectorParams(0.613749, 1.763442)
        mat = build_response(params, 12, 15)
        for m in range(16):
            for n in range(13):
                assert mat.entries[m, n] == pytest.approx(
                    response_entry(params, m, n), rel=1e-13, abs=1e-300
                )

    @pytest.mark.parametrize(
        "params,n_max,m_max",
        [
            (DetectorParams(1.0, 0.748), 12, 20),
            (DetectorParams(0.45, 0.0), 20, 12),
            (DetectorParams(0.7764, 0.748), 25, 40),
            (DetectorParams(0.34, 0.30), 40, 25),
        ],
        ids=["unit-eta", "zero-noise", "m-max-above-n-max", "m-max-below-n-max"],
    )
    def test_matches_scalar_entries_cell_by_cell(self, params, n_max, m_max):
        mat = build_response(params, n_max, m_max)
        expected = np.array(
            [
                [response_entry(params, m, n) for n in range(n_max + 1)]
                for m in range(m_max + 1)
            ]
        )
        zero = expected == 0.0
        assert np.array_equal(mat.entries == 0.0, zero)
        np.testing.assert_allclose(
            mat.entries[~zero], expected[~zero], rtol=1e-12, atol=0.0
        )

    def test_thermal_window_peak_memory(self):
        # the recurrence runs inside the 1.81 MB matrix of this 322 x 703
        # window with one 322-entry work column: 1.83 MB measured, bounded
        # at that plus 20%; a second matrix-sized buffer would add 1.81 MB
        params = load_config("thermal_fig1").detector_assumed
        build_response(params, 702, 321)
        tracemalloc.start()
        try:
            build_response(params, 702, 321)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.2e6

    def test_transposed_thermal_window_peak_memory(self):
        # m_max > n_max: the 703 x 322 matrix (1.81 MB) and a 703-entry
        # work column: 1.83 MB measured, bounded at that plus 20%; a
        # second matrix-sized buffer would add 1.81 MB
        params = load_config("thermal_fig1").detector_assumed
        build_response(params, 321, 702)
        tracemalloc.start()
        try:
            build_response(params, 321, 702)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.2e6

    def test_binomial_loss_columns_sum_to_one(self):
        mat = build_response(DetectorParams(0.5, 0.0), 30, 30)
        sums = mat.entries.sum(axis=0)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)
        # no entries below the diagonal: loss can only remove counts
        assert np.all(np.tril(mat.entries, k=-1) == 0.0)

    def test_column_tails_bounded(self):
        mat = build_response(DetectorParams(0.7764, 0.748), 60, 80)
        assert np.all(mat.col_tail <= 1e-8)

    def test_binomial_limit(self):
        eta = 0.37
        mat = build_response(DetectorParams(eta, 0.0), 25, 25)
        for n in range(26):
            for m in range(26):
                expected = (
                    math.comb(n, m) * eta**m * (1 - eta) ** (n - m)
                    if m <= n
                    else 0.0
                )
                assert mat.entries[m, n] == pytest.approx(
                    expected, rel=1e-12, abs=1e-300
                )

    def test_poisson_convolution_limit(self):
        noise = 0.748
        mat = build_response(DetectorParams(1.0, noise), 20, 40)
        for n in range(21):
            for m in range(41):
                if m >= n:
                    expected = (
                        math.exp(-noise)
                        * noise ** (m - n)
                        / math.factorial(m - n)
                    )
                else:
                    expected = 0.0
                assert mat.entries[m, n] == pytest.approx(
                    expected, rel=1e-12, abs=1e-300
                )

    @pytest.mark.parametrize("params", REFERENCE_PARAMS)
    def test_column_stochasticity_with_suggested_window(self, params):
        n_max = 40
        m_max = suggest_m_max(params, n_max, 1e-10)
        mat = build_response(params, n_max, m_max)
        assert np.all(mat.entries >= 0)
        assert np.all(mat.entries.sum(axis=0) >= 1.0 - 1e-9)


@functools.lru_cache(maxsize=None)
def oracle_tables(eta, n_noise, size):
    """Powers 0..size of eta, 1 - eta and N, and the factorials 0!..size!,
    at 50 digits."""
    eta, noise = mp.mpf(eta), mp.mpf(n_noise)
    tables = ([mp.mpf(1)], [mp.mpf(1)], [mp.mpf(1)], [mp.mpf(1)])
    for j in range(1, size + 1):
        for table, factor in zip(tables, (eta, 1 - eta, noise, j)):
            table.append(table[-1] * factor)
    return tables


def thinning_oracle(params, m, n, size):
    """Arbitrary-precision S[m|n] as the binomial-Poisson sum over the k of
    the n photons counted, m - k being noise counts; m, n <= size."""
    eta_pow, keep_pow, noise_pow, fact = oracle_tables(params.eta, params.n_noise, size)
    return mp.exp(-mp.mpf(params.n_noise)) * mp.fsum(
        math.comb(n, k) * eta_pow[k] * keep_pow[n - k] * noise_pow[m - k] / fact[m - k]
        for k in range(min(m, n) + 1)
    )


def assert_matches_thinning_oracle(entries, params, cells, rtol):
    """Each sampled entry of at least 1e-290 within ``rtol`` of the oracle;
    below that the double's subnormal range is allowed to lose digits.
    Returns the number of entries checked to ``rtol``."""
    checked, size = 0, max(entries.shape)
    for m, n in cells:
        exact = thinning_oracle(params, m, n, size)
        if exact >= 1e-290:
            assert abs(mp.mpf(entries[m, n]) / exact - 1) <= rtol, (m, n)
            checked += 1
        else:
            assert entries[m, n] <= 1e-290, (m, n)
    return checked


def sampled_cells(rng, n_max, m_max, size):
    corners = [(0, 0), (m_max, 0), (0, n_max), (m_max, n_max)]
    ms = rng.integers(0, m_max + 1, size=size).tolist()
    ns = rng.integers(0, n_max + 1, size=size).tolist()
    return corners + list(zip(ms, ns))


class TestThinningBuild:
    """The thinning recurrence against a 50-digit binomial-Poisson sum."""

    @pytest.mark.parametrize(
        "config,n_max,m_max",
        [("thermal_fig1", 702, 321), ("thermal_fig1", 321, 702),
         ("spats_fig2", 276, 255), ("cat_fig4", 60, 63)],
        ids=["thermal", "thermal-transposed", "spats", "cat"],
    )
    def test_bundled_windows_against_mpmath(self, config, n_max, m_max):
        # both detectors: eta = 0.34 and 0.35 take the col - eta col form,
        # the others the exact 1 - eta
        rng = np.random.default_rng(29)
        for params in (load_config(config).detector_true, load_config(config).detector_assumed):
            entries = build_response(params, n_max, m_max).entries
            cells = sampled_cells(rng, n_max, m_max, 60)
            cells += [(m, 0) for m in range(0, m_max + 1, m_max // 8 or 1)]  # the Poisson column
            cells += [(0, n) for n in range(0, n_max + 1, n_max // 8 or 1)]  # lossy row 0
            assert assert_matches_thinning_oracle(entries, params, cells, 1e-14) >= 20

    @pytest.mark.parametrize(
        "params,n_max,m_max,rtol",
        [
            (DetectorParams(1.0, 0.748), 40, 60, 1e-14),
            (DetectorParams(0.37, 0.0), 60, 40, 1e-14),
            (DetectorParams(0.613749, 1.763442), 0, 200, 1e-14),
            (DetectorParams(0.613749, 1.763442), 200, 0, 1e-14),
            (DetectorParams(0.5, 800.0), 60, 1100, 1e-12),
        ],
        ids=["eta-1", "noise-0", "n-max-0", "m-max-0", "noise-800"],
    )
    def test_edge_windows_against_mpmath(self, params, n_max, m_max, rtol):
        # at N = 800, e^{-N} underflows and the pmf is anchored at its mode,
        # whose ln N! ~ 4500 rounds at ~5e-13 relative
        entries = build_response(params, n_max, m_max).entries
        cells = sampled_cells(np.random.default_rng(31), n_max, m_max, 25)
        assert assert_matches_thinning_oracle(entries, params, cells, rtol) >= 4

    def test_entries_are_c_contiguous_and_read_only(self):
        for n_max, m_max in ((702, 321), (321, 702)):
            entries = build_response(DetectorParams(0.35, 0.29), n_max, m_max).entries
            assert entries.flags.c_contiguous and entries.flags.owndata
            assert not entries.flags.writeable

    @pytest.mark.parametrize("config", ["thermal_fig1", "spats_fig2"])
    def test_forward_bits_survive_matrix_file_round_trip(self, config, tmp_path):
        # the layout of the entries picks the BLAS kernel of S @ p: a matrix
        # built in another order gives other bits than its JSON-read copy
        cfg = load_config(config)
        photon = build_state(cfg.state)
        m_max = suggest_m_max(cfg.detector_assumed, photon.n_max, cfg.window_tail)
        built = build_response(cfg.detector_assumed, photon.n_max, m_max)
        distio.write_matrix(tmp_path / "S.json", built)
        read = distio.read_matrix(tmp_path / "S.json")
        assert np.array_equal(read.entries, built.entries)
        assert forward(read, photon).tobytes() == forward(built, photon).tobytes()

    @given(
        eta=st.floats(0.05, 1.0),
        n_noise=st.floats(0.0, 3.0),
        n_max=st.integers(0, 20),
        m_max=st.integers(0, 20),
    )
    def test_small_windows_property(self, eta, n_noise, n_max, m_max):
        params = DetectorParams(eta, n_noise)
        mat = build_response(params, n_max, m_max)
        sums = mat.entries.sum(axis=0)
        assert np.all(mat.entries >= 0)
        assert np.all(sums <= 1.0 + 1e-12)
        assert np.array_equal(mat.col_tail, np.maximum(0.0, 1.0 - sums))
        for m in range(m_max + 1):
            for n in range(n_max + 1):
                assert mat.entries[m, n] == pytest.approx(
                    response_entry(params, m, n), rel=1e-11, abs=1e-300), (m, n)


class TestForward:
    def test_identity_detector(self):
        mat = build_response(DetectorParams(1.0, 0.0), 8, 8)
        dist = thermal(2.0, 1e-6)
        short = fock(3)
        out = forward(mat, short)
        assert out.tolist() == [0, 0, 0, 1, 0, 0, 0, 0, 0]

    def test_thermal_mean_transforms_affinely(self):
        dist = thermal(30, 1e-10)
        params = DetectorParams(0.34, 0.30)
        m_max = suggest_m_max(params, dist.n_max, 1e-10)
        mat = build_response(params, dist.n_max, m_max)
        counts = forward(mat, dist)
        mean = math.fsum(m * p for m, p in enumerate(counts))
        assert mean == pytest.approx(0.34 * 30 + 0.30, rel=1e-3)

    def test_vacuum_gives_poisson_noise(self):
        params = DetectorParams(0.9, 1.0)
        mat = build_response(params, 5, 30)
        counts = forward(mat, fock(0))
        expected = np.array(
            [math.exp(-1.0) / math.factorial(m) for m in range(31)]
        )
        assert np.allclose(counts, expected, rtol=1e-12, atol=0)

    def test_mass_preserved_up_to_truncation(self):
        dist = thermal(8, 1e-8)
        params = DetectorParams(0.613749, 1.763442)
        m_max = suggest_m_max(params, dist.n_max, 1e-10)
        mat = build_response(params, dist.n_max, m_max)
        counts = forward(mat, dist)
        gap = abs(float(counts.sum()) - float(dist.probs.sum()))
        assert gap <= mat.col_tail.max() + 1e-12

    def test_dimension_mismatch(self):
        mat = build_response(DetectorParams(0.9, 0.0), 3, 3)
        with pytest.raises(ValueError):
            forward(mat, fock(7))


def suggest_m_max_reference(params: DetectorParams, n_max: int, tail: float) -> int:
    """Smallest m_max whose column-n_max conditional distribution loses at
    most ``tail`` of its mass, found by cumulative summation of entries.

    The worst column is n_max (the conditional count mean grows with n).
    """
    if not (0.0 < tail < 1.0):
        raise ValueError(f"tail must be in (0, 1), got {tail}")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if params.n_noise == 0.0:
        # no counts above n: the column is exactly supported on 0..n_max
        return n_max
    cum = 0.0
    m = 0
    cap = n_max + _SUGGEST_HARD_MARGIN
    while m <= cap:
        cum += response_entry(params, m, n_max)
        if 1.0 - cum <= tail:
            return m
        m += 1
    return cap


class TestSuggestMMax:
    """suggest_m_max against the scalar loop it replaced (kept above
    verbatim as suggest_m_max_reference): one response_entry per m,
    accumulated in order; and against the built column."""

    @pytest.mark.parametrize("detector", ["detector_true", "detector_assumed"])
    @pytest.mark.parametrize("config", bundled_config_names())
    def test_bundled_configs_match_scalar_reference(self, config, detector):
        cfg = load_config(config)
        params = getattr(cfg, detector)
        n_max = build_state(cfg.state).n_max
        assert suggest_m_max(params, n_max, cfg.window_tail) == (
            suggest_m_max_reference(params, n_max, cfg.window_tail)
        )

    @given(
        eta=st.floats(0.05, 1.0),
        n_noise=st.floats(0.0, 3.0),
        n_max=st.integers(0, 40),
        tail=st.floats(1e-10, 0.5),
    )
    def test_small_windows_match_scalar_reference(self, eta, n_noise, n_max, tail):
        params = DetectorParams(eta, n_noise)
        assert suggest_m_max(params, n_max, tail) == (
            suggest_m_max_reference(params, n_max, tail)
        )

    @pytest.mark.parametrize(
        "config,m_max",
        [("thermal_fig1", 321), ("spats_fig2", 255), ("spats_fig3_direct", 255), ("cat_fig4", 63)],
    )
    def test_bundled_run_windows_pinned(self, config, m_max):
        # the window `run` builds: the true detector at the config's tail
        cfg = load_config(config)
        assert suggest_m_max(cfg.detector_true, build_state(cfg.state).n_max, cfg.window_tail) == m_max

    @pytest.mark.parametrize(
        "eta,noise,n_max,m_max", [(0.34, 0.30, 702, 321), (0.7764, 0.748, 276, 255)],
        ids=["readme-build-detector", "spats-cli-chain"],
    )
    def test_cli_build_detector_windows_pinned(self, eta, noise, n_max, m_max):
        assert suggest_m_max(DetectorParams(eta, noise), n_max, 1e-10) == m_max

    def test_seeded_cases_match_cumulative_sum_of_built_column(self):
        # column n_max of a matrix built down to the cap, summed in order
        rng = np.random.default_rng(41)
        for _ in range(40):
            params = DetectorParams(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.01, 3.0)))
            n_max, tail = int(rng.integers(0, 90)), float(10.0 ** rng.uniform(-12, -2))
            cap = n_max + _SUGGEST_HARD_MARGIN
            column = build_response(params, n_max, cap).entries[:, n_max]
            crossed = np.flatnonzero(1.0 - np.cumsum(column) <= tail)
            want = int(crossed[0]) if crossed.size else cap
            assert suggest_m_max(params, n_max, tail) == want, (params, n_max, tail)

    def test_noise_pmf_below_the_cap_underflowing_gives_the_cap(self):
        assert suggest_m_max(DetectorParams(0.5, 1e6), 10, 1e-10) == 10 + _SUGGEST_HARD_MARGIN

    def test_identity_detector(self):
        assert suggest_m_max(DetectorParams(1.0, 0.0), 10, 1e-9) == 10

    def test_no_noise_means_no_counts_above_n(self):
        assert suggest_m_max(DetectorParams(0.42, 0.0), 17, 1e-13) == 17

    def test_self_consistent_with_column_tail(self):
        params = DetectorParams(0.34, 0.30)
        n_max = 150
        tail = 1e-8
        m_max = suggest_m_max(params, n_max, tail)
        cum = math.fsum(
            response_entry(params, m, n_max) for m in range(m_max + 1)
        )
        assert 1.0 - cum <= tail
        cum_short = math.fsum(
            response_entry(params, m, n_max) for m in range(m_max)
        )
        assert 1.0 - cum_short > tail

    def test_tail_validation(self):
        with pytest.raises(ValueError):
            suggest_m_max(DetectorParams(0.5, 0.1), 5, 0.0)


class TestResponseMatrix:
    def test_nested_list_entries_accepted(self):
        mat = ResponseMatrix([[0.75, 0.0], [0.25, 1.0]], DetectorParams(0.9, 0.1))
        assert mat.entries.dtype == float
        assert mat.entries.tolist() == [[0.75, 0.0], [0.25, 1.0]]
        assert not mat.entries.flags.writeable
        assert mat.col_tail.tolist() == [0.0, 0.0]
        assert (mat.m_max, mat.n_max) == (1, 1)

    @pytest.mark.parametrize(
        "entries, shape",
        [(np.ones(3), r"\(3,\)"), (np.float64(1.0), r"\(\)"),
         (np.ones((2, 2, 2)), r"\(2, 2, 2\)")],
        ids=["1-d", "0-d", "3-d"],
    )
    def test_non_matrix_entries_rejected(self, entries, shape):
        with pytest.raises(ValueError, match=f"2-d matrix, got shape {shape}"):
            ResponseMatrix(entries, DetectorParams(0.9, 0.1))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, value):
        entries = np.full((5, 3), 0.1)
        entries[4, 2] = value
        with pytest.raises(
            ValueError, match=rf"non-finite entry {value!r} at \(m, n\) = \(4, 2\)$"
        ):
            ResponseMatrix(entries, DetectorParams(0.9, 0.1))

    def test_finite_entries_whose_column_sum_overflows_accepted(self):
        with pytest.warns(RuntimeWarning, match="overflow"):
            mat = ResponseMatrix([[1e308, 0.5], [1e308, 0.5]], DetectorParams(0.9, 0.1))
        assert mat.col_tail.tolist() == [0.0, 0.0]

    def test_col_tail_is_derived_not_passed(self, tmp_path):
        params = DetectorParams(0.9, 0.1)
        with pytest.raises(TypeError):
            ResponseMatrix(np.eye(2), params, np.array([0.9, 0.9]))
        built = build_response(params, 6, 4)  # a short window: tails > 0
        distio.write_matrix(tmp_path / "S.json", built)
        for mat in (built, distio.read_matrix(tmp_path / "S.json")):
            derived = np.maximum(0.0, 1.0 - mat.entries.sum(axis=0))
            assert np.array_equal(mat.col_tail, derived)
            assert mat.col_tail.max() > 0.0
        assert ResponseMatrix([[0.5, 1.0]], params).col_tail.tolist() == [0.5, 0.0]

    def test_writable_again_entries_are_rechecked(self):
        mat = build_response(DetectorParams(0.5, 0.1), 3, 4)
        mat.sigma_max_sq
        mat.entries.flags.writeable = True
        mat.entries[4, 0] = 0.0
        assert mat.col_tail[0] == 1.0 - mat.entries[:, 0].sum()
        mat.entries[1, 1] = math.nan
        for use in (lambda m: m.col_tail, lambda m: m.sigma_max_sq):
            with pytest.raises(ValueError, match=r"non-finite entry nan at \(m, n\) = \(1, 1\)"):
                use(mat)


def array_holding_records():
    """Pairs of equal-valued records of each type that holds arrays."""
    params = DetectorParams(0.5, 0.1)
    makers = [
        lambda: build_response(params, 3, 4),
        lambda: PhotonDistribution(np.full(4, 0.25)),
        lambda: SolveReport(np.ones(3), 1, np.ones(1), np.ones(1), "discrepancy", 0.5),
    ]
    return [(make(), make()) for make in makers]


@pytest.mark.parametrize(
    "a, b", array_holding_records(),
    ids=["ResponseMatrix", "PhotonDistribution", "SolveReport"],
)
def test_array_holding_records_compare_by_identity(a, b):
    assert a == a and a != b and not (a == b)
    assert hash(a) == hash(a) and hash(a) != hash(b)
    assert {a, b, a} == {a, b} and len({a, b}) == 2 and a in {a} and b not in {a}


def test_array_free_records_keep_value_equality():
    assert DetectorParams(0.5, 0.1) == DetectorParams(0.5, 0.1)
    assert len({DetectorParams(0.5, 0.1), DetectorParams(0.5, 0.1)}) == 1
    assert LandweberConfig(chi=0.5) == LandweberConfig(chi=0.5)
    assert ConstraintSet.nonnegative() == ConstraintSet.nonnegative()


def test_single_cell_window():
    mat = build_response(DetectorParams(0.5, 0.0), 0, 0)
    assert mat.entries.shape == (1, 1)
    assert mat.entries[0, 0] == 1.0


def test_suggest_m_max_terminates_on_extreme_tail():
    got = suggest_m_max(DetectorParams(0.9, 0.5), 5, 1e-300)
    assert got >= 5  # hard cap keeps this finite
