import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pnrecon.detector import (
    _SUGGEST_HARD_MARGIN,
    CountDistribution,
    DetectorParams,
    ResponseMatrix,
    _log_entry_m_ge_n,
    _log_entry_m_le_n,
    _log_entries,
    _log_laguerre_table,
    build_response,
    forward,
    response_entry,
    suggest_m_max,
)
from pnrecon import distio
from pnrecon.experiment import build_state, bundled_config_names, load_config
from pnrecon.inversion import build_inverse
from pnrecon.landweber import ConstraintSet, LandweberConfig, SolveReport, auto_chi
from pnrecon.special import log_laguerre_nonpos
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
        # the table is built inside the 1.81 MB matrix of this 322 x 703
        # window, next to a 0.83 MB 322 x 322 side block; a separate table or
        # upper-branch copy would add 1.81 MB more
        params = load_config("thermal_fig1").detector_assumed
        build_response(params, 702, 321)
        tracemalloc.start()
        try:
            build_response(params, 702, 321)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0e6

    def test_transposed_thermal_window_peak_memory(self):
        # m_max > n_max: the table is built inside the transpose of the
        # 703 x 322 matrix (1.81 MB) and the lower branch on the 322 x 322
        # side block (0.83 MB); a separate table or an upper-branch copy of
        # the whole table would add 1.81 MB more
        params = load_config("thermal_fig1").detector_assumed
        build_response(params, 321, 702)
        tracemalloc.start()
        try:
            build_response(params, 321, 702)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0e6

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


def laguerre_table_reference(x, r_max, s_max, _out=None):
    """The ln L_r^s table as built with a fresh array per operation, kept as
    a bitwise reference for the in-place recurrence."""
    out = np.empty((r_max + 1, s_max + 1)) if _out is None else _out
    s, out[0] = np.arange(s_max + 1.0), 0.0
    eps, mantissa, exponent = s - x, np.ones_like(s), np.zeros_like(s)
    for r in range(1, r_max + 1):
        rho = 1.0 + eps
        mantissa, step = np.frexp(mantissa * rho)
        exponent += step
        np.add(np.log2(mantissa), exponent, out=out[r])
        eps = ((s + r) * eps / rho - x) / (r + 1)
    out *= math.log(2.0)
    return out


def table_then_assemble_entries(params, n_max, m_max):
    """The previous build, kept as a bitwise reference: one full ln L table,
    an upper-branch copy of it and the matrix, whose row and column r are
    filled from table row r."""
    r_max = min(n_max, m_max)
    lower = laguerre_table_reference(params.laguerre_arg, r_max, max(n_max, m_max))
    low, upper = np.arange(r_max + 1)[:, None], lower[:, : m_max + 1].copy()
    _log_entries(params, low, np.arange(m_max + 1), upper, True)
    _log_entries(params, low, np.arange(n_max + 1), lower[:, : n_max + 1], False)
    entries = np.empty((m_max + 1, n_max + 1))
    for r in range(r_max + 1):
        entries[r, r:] = lower[r, : n_max + 1 - r]
        entries[r + 1 :, r] = upper[r, 1 : m_max + 1 - r]
    np.exp(entries, out=entries)
    return entries


class TestInPlaceBuild:
    """The in-buffer build against the table-then-assemble reference, bit
    for bit, in wide (m_max < n_max), tall and square windows."""

    @pytest.mark.parametrize(
        "config,n_max,m_max",
        [("thermal_fig1", 702, 321), ("thermal_fig1", 321, 702),
         ("spats_fig2", 276, 255), ("cat_fig4", 60, 63)],
        ids=["thermal", "thermal-transposed", "spats", "cat"],
    )
    def test_bundled_windows_bitwise(self, config, n_max, m_max):
        for params in (load_config(config).detector_true, load_config(config).detector_assumed):
            built = build_response(params, n_max, m_max).entries
            assert np.array_equal(built, table_then_assemble_entries(params, n_max, m_max))

    @given(
        eta=st.floats(0.05, 1.0, exclude_min=True),
        n_noise=st.one_of(st.just(0.0), st.floats(0.0, 3.0, exclude_min=True)),
        n_max=st.integers(0, 25),
        m_max=st.integers(0, 25),
    )
    @example(eta=1.0, n_noise=0.5, n_max=4, m_max=9)
    @example(eta=0.5, n_noise=0.0, n_max=9, m_max=4)
    def test_small_windows_bitwise(self, eta, n_noise, n_max, m_max):
        params = DetectorParams(eta, n_noise)
        built = build_response(params, n_max, m_max).entries
        assert np.array_equal(built, table_then_assemble_entries(params, n_max, m_max))

    def test_table_into_a_strided_destination(self):
        x = DetectorParams(0.35, 0.29).laguerre_arg
        dest = np.full((41, 12), np.nan).T  # row 0 must be written, not assumed
        assert _log_laguerre_table(x, 11, 40, dest) is dest
        assert np.array_equal(dest, _log_laguerre_table(x, 11, 40))
        assert np.array_equal(dest, laguerre_table_reference(x, 11, 40))

    @pytest.mark.parametrize(
        "config,n_max,m_max",
        [("thermal_fig1", 702, 321), ("thermal_fig1", 321, 702),
         ("spats_fig2", 276, 255), ("cat_fig4", 60, 63)],
        ids=["thermal", "thermal-transposed", "spats", "cat"],
    )
    def test_table_matches_reference_bitwise(self, config, n_max, m_max):
        r_max, s_max = min(n_max, m_max), max(n_max, m_max)
        for params in (load_config(config).detector_true, load_config(config).detector_assumed):
            x = params.laguerre_arg
            want = laguerre_table_reference(x, r_max, s_max)
            assert np.array_equal(_log_laguerre_table(x, r_max, s_max), want)
            # the layout build_response writes into for a tall window
            dest = np.full((s_max + 1, r_max + 1), np.nan).T
            _log_laguerre_table(x, r_max, s_max, dest)
            assert np.array_equal(dest, want)


def log_rel_diff(a: float, b: float) -> float:
    """Relative difference of exp(a) and exp(b)."""
    return abs(math.expm1(a - b))


class TestLaguerreTable:
    """The ratio-recurrence table against the scalar series and mpmath."""

    # the assumed detector and (r_max, s_max) = (min, max) of the window
    # that `run` builds for each bundled config
    @pytest.mark.parametrize(
        "config,r_max,s_max",
        [("thermal_fig1", 321, 702), ("spats_fig2", 255, 276)],
    )
    def test_full_window_against_scalar_and_mpmath(self, config, r_max, s_max):
        params = load_config(config).detector_assumed
        x = params.laguerre_arg
        lag = _log_laguerre_table(x, r_max, s_max)
        assert lag.shape == (r_max + 1, s_max + 1)
        rng = np.random.default_rng(17)
        rs = rng.integers(0, r_max + 1, size=200)
        ss = rng.integers(0, s_max + 1, size=200)
        corners = [(0, 0), (r_max, 0), (0, s_max), (r_max, s_max)]
        for r, s in corners + list(zip(rs.tolist(), ss.tolist())):
            scalar = log_laguerre_nonpos(r, s, x)
            assert log_rel_diff(lag[r, s], scalar) <= 1e-11, (r, s)
        for r, s in zip(rs[:20].tolist(), ss[:20].tolist()):
            exact = mp.log(mp.laguerre(r, s, mp.mpf(x)))
            assert abs(mp.expm1(mp.mpf(lag[r, s]) - exact)) <= 1e-12, (r, s)

    @pytest.mark.parametrize(
        "params,r_max,s_max",
        [
            (DetectorParams(1.0, 0.0), 300, 300),
            (DetectorParams(0.2, 300.0), 300, 300),
            (DetectorParams(0.5, 1e-3), 600, 700),
            (DetectorParams(0.613749, 1.763442), 0, 300),
            (DetectorParams(0.613749, 1.763442), 300, 0),
        ],
        ids=["x-zero-binomials", "x-minus-1200", "x-minus-0.001", "r-max-zero",
             "s-max-zero"],
    )
    def test_edge_windows_against_mpmath(self, params, r_max, s_max):
        x = params.laguerre_arg
        lag = _log_laguerre_table(x, r_max, s_max)
        assert lag.shape == (r_max + 1, s_max + 1)
        rng = np.random.default_rng(23)
        rs = rng.integers(0, r_max + 1, size=20).tolist()
        ss = rng.integers(0, s_max + 1, size=20).tolist()
        corners = [(0, 0), (r_max, 0), (0, s_max), (r_max, s_max)]
        for r, s in corners + list(zip(rs, ss)):
            if x == 0.0:
                exact = mp.log(mp.binomial(r + s, r))
            else:
                exact = mp.log(mp.laguerre(r, s, mp.mpf(x)))
            assert abs(mp.expm1(mp.mpf(lag[r, s]) - exact)) <= 1e-12, (r, s)

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
        r_max, s_max = min(n_max, m_max), max(n_max, m_max)
        x = params.laguerre_arg
        lag = _log_laguerre_table(x, r_max, s_max)
        for r in range(r_max + 1):
            for s in range(s_max + 1):
                scalar = log_laguerre_nonpos(r, s, x)
                assert log_rel_diff(lag[r, s], scalar) <= 1e-12, (r, s)


class TestForward:
    def test_identity_detector(self):
        mat = build_response(DetectorParams(1.0, 0.0), 8, 8)
        dist = thermal(2.0, 1e-6)
        short = fock(3)
        out = forward(mat, short)
        assert out.probs.tolist() == [0, 0, 0, 1, 0, 0, 0, 0, 0]

    def test_thermal_mean_transforms_affinely(self):
        dist = thermal(30, 1e-10)
        params = DetectorParams(0.34, 0.30)
        m_max = suggest_m_max(params, dist.n_max, 1e-10)
        mat = build_response(params, dist.n_max, m_max)
        counts = forward(mat, dist)
        mean = math.fsum(m * p for m, p in enumerate(counts.probs))
        assert mean == pytest.approx(0.34 * 30 + 0.30, rel=1e-3)

    def test_vacuum_gives_poisson_noise(self):
        params = DetectorParams(0.9, 1.0)
        mat = build_response(params, 5, 30)
        counts = forward(mat, fock(0))
        expected = np.array(
            [math.exp(-1.0) / math.factorial(m) for m in range(31)]
        )
        assert np.allclose(counts.probs, expected, rtol=1e-12, atol=0)

    def test_mass_preserved_up_to_truncation(self):
        dist = thermal(8, 1e-8)
        params = DetectorParams(0.613749, 1.763442)
        m_max = suggest_m_max(params, dist.n_max, 1e-10)
        mat = build_response(params, dist.n_max, m_max)
        counts = forward(mat, dist)
        gap = abs(float(counts.probs.sum()) - float(dist.probs.sum()))
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
    accumulated in order."""

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
        auto_chi(mat)
        mat.entries.flags.writeable = True
        mat.entries[4, 0] = 0.0
        assert mat.col_tail[0] == 1.0 - mat.entries[:, 0].sum()
        mat.entries[1, 1] = math.nan
        for use in (auto_chi, lambda m: m.col_tail, lambda m: m.sigma_max_sq):
            with pytest.raises(ValueError, match=r"non-finite entry nan at \(m, n\) = \(1, 1\)"):
                use(mat)


def array_holding_records():
    """Pairs of equal-valued records of each type that holds arrays."""
    params = DetectorParams(0.5, 0.1)
    makers = [
        lambda: build_response(params, 3, 4),
        lambda: CountDistribution(np.full(4, 0.25)),
        lambda: PhotonDistribution(np.full(4, 0.25)),
        lambda: build_inverse(params, 3, 3),
        lambda: SolveReport(np.ones(3), 1, np.ones(1), np.ones(1), "discrepancy", 0.5),
    ]
    return [(make(), make()) for make in makers]


@pytest.mark.parametrize(
    "a, b", array_holding_records(),
    ids=["ResponseMatrix", "CountDistribution", "PhotonDistribution", "InverseMatrix",
         "SolveReport"],
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


class TestCountDistribution:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CountDistribution(np.array([0.5, -0.1])).validate()

    def test_oversized_mass_rejected(self):
        with pytest.raises(ValueError):
            CountDistribution(np.array([0.9, 0.2])).validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match=r"finite, got .* at m=1"):
            CountDistribution(np.array([0.5, value, 0.1])).validate()


def test_single_cell_window():
    mat = build_response(DetectorParams(0.5, 0.0), 0, 0)
    assert mat.entries.shape == (1, 1)
    assert mat.entries[0, 0] == 1.0


def test_suggest_m_max_terminates_on_extreme_tail():
    got = suggest_m_max(DetectorParams(0.9, 0.5), 5, 1e-300)
    assert got >= 5  # hard cap keeps this finite
