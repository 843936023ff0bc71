import functools
import gc
import math
import re
import tracemalloc
import weakref
from array import array

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from pnrecon.detector import (
    DetectorParams,
    ResponseMatrix,
    build_response,
    forward,
    suggest_m_max,
)
from pnrecon import detector, distio, landweber
from pnrecon.landweber import (
    _EXACT_RTOL,
    ConstraintSet,
    LandweberConfig,
    RelaxationBoundError,
    SolveReport,
    solve,
)
from pnrecon.metrics import relative_error
from pnrecon.sampling import SamplingConfig, expected_sampling_error, sample_counts
from pnrecon.states import even_cat, spats, thermal


# (state, true detector, assumed detector) of the bundled run configs
RUN_WINDOWS = {
    "thermal_fig1": (
        lambda: thermal(30.0, 1e-10),
        DetectorParams(0.34, 0.30),
        DetectorParams(0.35, 0.29),
    ),
    "spats_fig2": (
        lambda: spats(10.0, 1e-10),
        DetectorParams(0.7764, 0.748),
        DetectorParams(0.77, 0.75),
    ),
    "cat_fig4": (
        lambda: even_cat(23.9, 1e-10),
        DetectorParams(0.613749, 1.763442),
        DetectorParams(0.59, 1.77),
    ),
}


@functools.cache
def run_window(name):
    """The assumed-detector matrix and exact counts on a config's window,
    as ``run`` builds them."""
    state, true_params, assumed = RUN_WINDOWS[name]
    dist = state()
    m_max = suggest_m_max(true_params, dist.n_max, 1e-10)
    counts = forward(build_response(true_params, dist.n_max, m_max), dist)
    return build_response(assumed, dist.n_max, m_max), counts


def gram_form_reference(entries, data, chi, constraints, initial, steps):
    """The Gram-form iteration p <- Proj[p + chi (S^T d - S^T S p)]."""
    gram = entries.T @ entries
    back = entries.T @ data
    mask = constraints.support_mask
    if mask is None:
        mask = np.ones(entries.shape[1], dtype=bool)
    p = np.zeros(entries.shape[1])
    if initial is not None:
        p = np.where(mask, np.maximum(initial, 0.0), 0.0)
    for _ in range(steps):
        p = np.where(mask, np.maximum(p + chi * (back - gram @ p), 0.0), 0.0)
    return p


def pinned_reference(entries, data, chi, mask, config):
    """The iteration on all columns of S, pinning the masked-out entries to
    zero after every step: (estimate, residuals, iterations, stop reason)."""
    pinned = np.flatnonzero(~mask)
    p = np.zeros(entries.shape[1])
    if config.initial is not None:
        p = np.where(mask, np.maximum(config.initial, 0.0), 0.0)
    r = entries @ p - data
    residuals = []
    for j in range(config.max_iterations):
        new = np.maximum(p - chi * (entries.T @ r), 0.0)
        new[pinned] = 0.0
        r = entries @ new - data
        residuals.append(math.sqrt(r @ r))
        step = math.sqrt((new - p) @ (new - p))
        scale = max(math.sqrt(new @ new), 1e-300)
        p = new
        if config.noise_level > 0.0 and residuals[-1] <= (
            config.discrepancy_tau * config.noise_level
        ):
            return p, np.array(residuals), j + 1, "discrepancy"
        if config.stagnation_tol > 0.0 and step <= config.stagnation_tol * scale:
            return p, np.array(residuals), j + 1, "stagnation"
    return p, np.array(residuals), config.max_iterations, "max_iterations"


def per_step_reference(mat, counts, constraints, config):
    """The solver written out step by step, with its histories appended
    every step and two iterate buffers swapped: the bitwise reference for
    solve."""
    matrix = mat.entries
    rows, cols = matrix.shape
    data = detector.zero_pad(counts, rows, "count vector", "matrix rows")
    mask = constraints.support_mask
    chi = 1.0 / mat.norm_bound_sq if config.chi is None else config.chi
    if config.initial is None:
        p = np.zeros(cols)
    elif mask is None:
        p = np.maximum(config.initial, 0.0)
    else:
        p = np.where(mask, np.maximum(config.initial, 0.0), 0.0)

    support = None if mask is None or mask.all() else np.flatnonzero(mask)
    if support is not None:
        matrix = np.ascontiguousarray(matrix[:, support])
        p = p[support]
    residuals = array("d")
    masses = array("d")
    stop_reason = "max_iterations"
    iterations = config.max_iterations
    threshold = config.discrepancy_tau * config.noise_level
    grad, new, r = np.empty(p.size), np.empty(p.size), np.empty(rows)
    adjoint = matrix.T  # a view: no transposed copy
    np.dot(matrix, p, out=r)
    r -= data
    for j in range(config.max_iterations):
        np.dot(adjoint, r, out=grad)
        grad *= chi
        np.subtract(p, grad, out=new)
        np.maximum(new, 0.0, out=new)  # the projection, in place
        np.dot(matrix, new, out=r)
        r -= data
        residual = math.sqrt(np.dot(r, r))
        residuals.append(residual)
        masses.append(np.add.reduce(new))  # what new.sum() computes
        stalled = False
        if config.stagnation_tol > 0.0:
            step = np.subtract(new, p, out=grad)
            scale = max(math.sqrt(new @ new), 1e-300)
            stalled = math.sqrt(step @ step) <= config.stagnation_tol * scale
        p, new = new, p
        if config.noise_level > 0.0 and residual <= threshold:
            stop_reason = "discrepancy"
            iterations = j + 1
            break
        if stalled:
            stop_reason = "stagnation"
            iterations = j + 1
            break

    estimate = p
    if support is not None:
        estimate = np.zeros(cols)
        estimate[support] = p
    return SolveReport(
        estimate=estimate,
        iterations_run=iterations,
        residual_history=np.array(residuals),
        normalization_history=np.array(masses),
        stop_reason=stop_reason,
        chi=chi,
    )


def assert_same_report(got, want):
    assert (got.iterations_run, got.stop_reason, got.chi) == (
        want.iterations_run, want.stop_reason, want.chi
    )
    for name in ("estimate", "residual_history", "normalization_history"):
        # bytes, so that the sign of a zero counts too
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.estimate.flags.owndata  # not a view that pins a larger buffer


def cat_window():
    """The even-cat window and exact counts of the gate-6 call pattern."""
    photon = even_cat(23.9, 1e-10)
    params = DetectorParams(0.613749, 1.763442)
    mat = build_response(
        params, photon.n_max, suggest_m_max(params, photon.n_max, 1e-10)
    )
    return mat, forward(mat, photon), ConstraintSet.even_support(photon.n_max + 1)


def plain_matrix(entries) -> ResponseMatrix:
    return ResponseMatrix(entries, DetectorParams(1.0, 0.0))


class TestProject:
    """The support mask of the constraint set the solver projects onto."""

    @pytest.mark.parametrize(
        "mask", [np.array([[1, 0], [0, 1]], bool), np.array([[1, 0, 1]], bool),
                 np.array(True), [[True, False, True, False]]],
        ids=["2x2", "1x3", "0-d", "nested-list"],
    )
    def test_mask_must_be_1d(self, mask):
        with pytest.raises(ValueError, match="support mask must be 1-d"):
            ConstraintSet(mask)

    @pytest.mark.parametrize(
        "mask", [[0.5, 0, 1, 1], [1, 0, 2, 1], [1.0, np.nan, 0.0], [1, -1, 0],
                 ["yes", "", "no"], np.array(["1", "0"]), [1 + 0j, 0j]],
        ids=["half", "two", "nan", "minus-one", "strings", "digit-strings", "complex"],
    )
    def test_mask_entries_must_be_boolean_or_0_1(self, mask):
        with pytest.raises(ValueError, match="must be True/False or 0/1"):
            ConstraintSet(mask)

    @pytest.mark.parametrize(
        "mask", [[True, False, True], [1, 0, 1], [1.0, 0.0, 1.0],
                 np.array([1, 0, 1], np.uint8)],
        ids=["bool", "int", "float", "uint8"],
    )
    def test_mask_of_0_1_is_boolean(self, mask):
        got = ConstraintSet(mask).support_mask
        assert got.dtype == bool and got.tolist() == [True, False, True]


def assert_bounds_sigma_max_sq(mat):
    """mat.norm_bound_sq at or above sigma_max^2 from the dense SVD, to
    round-off; returns sigma_max^2."""
    top = np.linalg.svd(mat.entries, compute_uv=False)[0] ** 2
    assert mat.norm_bound_sq >= top * (1.0 - 1e-12), (mat.norm_bound_sq, top)
    return top


class TestAutoChi:
    """The default chi is 1/norm_bound_sq, with norm_bound_sq = (max column
    sum) * (max row sum) >= sigma_max^2 (the Schur test for S >= 0)."""

    def test_identity(self):
        assert plain_matrix(np.eye(10)).norm_bound_sq == 1.0

    def test_scaled_diagonal(self):
        assert plain_matrix(2.0 * np.eye(6)).norm_bound_sq == 4.0

    def test_is_product_of_largest_column_and_row_sums(self):
        entries = np.array([[0.5, 0.25, 0.0], [0.25, 0.5, 1.0]])
        # column sums 0.75, 0.75, 1.0; row sums 0.75, 1.75
        assert plain_matrix(entries).norm_bound_sq == 1.75

    @pytest.mark.parametrize("name", ["thermal_fig1", "spats_fig2", "cat_fig4"])
    def test_run_windows_bound_sigma_max_within_five_percent(self, name):
        # thermal_fig1 is wide (322 x 703), spats_fig2 wide (256 x 277),
        # cat_fig4 tall (64 x 61); all nearly column-stochastic
        mat, _ = run_window(name)
        assert mat.norm_bound_sq <= 1.05 * assert_bounds_sigma_max_sq(mat)

    @pytest.mark.parametrize(
        "entries",
        [
            np.array([[3.0]]),
            np.random.default_rng(1).uniform(0.1, 1.0, size=(1, 7)),
            np.random.default_rng(2).uniform(0.1, 1.0, size=(7, 1)),
            np.eye(10),
            np.outer(np.linspace(0.1, 1.0, 20), np.linspace(1.0, 0.2, 30)),
        ],
        ids=["1x1", "1xn", "nx1", "identity", "rank-one"],
    )
    def test_edge_shapes_bound_sigma_max(self, entries):
        assert_bounds_sigma_max_sq(plain_matrix(entries))

    @given(
        entries=arrays(
            np.float64,
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
            elements=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
        )
    )
    def test_nonnegative_matrices_bound_sigma_max(self, entries):
        assert_bounds_sigma_max_sq(plain_matrix(entries))

    @pytest.mark.parametrize("name", ["thermal_fig1", "spats_fig2", "cat_fig4"])
    def test_solve_default_chi_is_auto_chi(self, name):
        mat, counts = run_window(name)
        report = solve(mat, counts, config=LandweberConfig(max_iterations=1))
        assert report.chi == 1.0 / mat.norm_bound_sq

    @pytest.mark.parametrize(
        "bad, message",
        [(np.nan, r"non-finite entry nan at \(m, n\) = \(2, 1\)"),
         (np.inf, r"non-finite entry inf at \(m, n\) = \(2, 1\)"),
         (0.0, "zero norm")],
        ids=["nan", "inf", "zero"],
    )
    @pytest.mark.parametrize("chi", [None, 0.5], ids=["auto-chi", "given-chi"])
    def test_unusable_matrix_rejected_before_any_step(self, bad, message, chi):
        entries = np.zeros((4, 3)) if bad == 0.0 else np.full((4, 3), 0.2)
        entries[2, 1] = bad
        if bad != 0.0:  # a non-finite matrix cannot be built, so never solved
            with pytest.raises(ValueError, match=message):
                plain_matrix(entries)
            return
        mat = plain_matrix(entries)
        assert mat.norm_bound_sq == 0.0
        with pytest.raises(ValueError, match=message):
            solve(mat, np.full(4, 0.25),
                  config=LandweberConfig(chi=chi))

    @pytest.mark.parametrize(
        "entries, bound",
        [([[1e308, 0.5], [1e308, 0.5]], "inf"), (np.full((3, 3), 1e-160), "9e-320")],
        ids=["overflow", "subnormal"],
    )
    @pytest.mark.parametrize("chi", [None, 0.5], ids=["auto-chi", "given-chi"])
    def test_bound_outside_the_double_range_rejected(self, entries, bound, chi):
        # an inf bound leaves (0, 0), a subnormal one (0, inf), for chi
        mat = plain_matrix(entries)
        assert repr(mat.norm_bound_sq) == bound
        message = f"matrix norm bound {bound} leaves no finite"
        with pytest.raises(ValueError, match=message) as info:
            solve(mat, np.full(len(entries), 0.25), config=LandweberConfig(chi=chi))
        assert type(info.value) is ValueError


class TestReadOnlyEntries:
    def test_solved_matrix_is_not_kept_alive(self):
        mat, counts, constraints = cat_window()
        solve(mat, counts, constraints, LandweberConfig(max_iterations=5))
        entries = weakref.ref(mat.entries)
        del mat
        gc.collect()
        assert entries() is None

    def test_producers_return_read_only_entries(self, tmp_path):
        mat = build_response(DetectorParams(0.5, 0.1), 3, 4)
        distio.write_matrix(tmp_path / "S.json", mat)
        for entries in (mat.entries, distio.read_matrix(tmp_path / "S.json").entries):
            assert entries.flags.owndata and not entries.flags.writeable

    def test_entries_are_read_only(self):
        mat = plain_matrix(np.eye(3))
        with pytest.raises(ValueError, match="read-only"):
            mat.entries[0, 0] = 2.0
        assert mat.norm_bound_sq == 1.0
        assert mat.col_tail.tolist() == [0.0, 0.0, 0.0]

    def test_view_entries_are_copied(self):
        base = np.eye(4)
        mat = plain_matrix(base[:, :3])
        base[0, 0] = 2.0
        assert mat.entries[0, 0] == 1.0
        assert mat.norm_bound_sq == 1.0
        assert mat.col_tail.tolist() == [0.0, 0.0, 0.0]

    def test_writable_again_entries_are_recomputed(self):
        mat = plain_matrix(np.eye(3))
        assert mat.norm_bound_sq == 1.0
        mat.entries.flags.writeable = True
        mat.entries[0, 0] = 2.0
        assert mat.norm_bound_sq == 4.0
        assert mat.col_tail.tolist() == [0.0, 0.0, 0.0]
        mat.entries[0, 0] = 0.5
        assert mat.norm_bound_sq == 1.0
        assert mat.col_tail.tolist() == [0.5, 0.0, 0.0]


def random_problem(seed, masked):
    """A 20 x 15 matrix, noisy data and a constraint set, for the per-step
    tests."""
    rng = np.random.default_rng(seed)
    entries = rng.uniform(0.0, 1.0, size=(20, 15))
    data = entries @ rng.uniform(0.0, 1.0, size=15)
    data += rng.normal(0.0, 0.05 * data.std(), size=20)
    mask = rng.uniform(size=15) < 0.6 if masked else None
    return plain_matrix(entries), data, ConstraintSet(mask)


class TestPerStepReference:
    """The solver against the per-step reference, bit for bit, over short
    and longer runs and stops at several steps."""

    @pytest.mark.parametrize("max_iterations", [1, 31, 32, 33, 67])
    @pytest.mark.parametrize("masked", [False, True], ids=["nonneg", "masked"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_max_iterations(self, max_iterations, masked, warm):
        mat, counts, constraints = random_problem(31, masked)
        initial = np.random.default_rng(4).normal(size=15) if warm else None
        config = LandweberConfig(
            max_iterations=max_iterations, stagnation_tol=0.0, initial=initial
        )
        got = solve(mat, counts, constraints, config)
        assert got.stop_reason == "max_iterations"
        assert_same_report(got, per_step_reference(mat, counts, constraints, config))

    @pytest.mark.parametrize(
        "stop_at", [32, 33, 64, 65], ids=["step-32", "step-33", "step-64", "step-65"]
    )
    @pytest.mark.parametrize("stop", ["discrepancy", "stagnation"])
    @pytest.mark.parametrize("masked", [False, True], ids=["nonneg", "masked"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_stop_at_a_given_step(self, stop_at, stop, masked, warm):
        mat, counts, constraints = random_problem(31, masked)
        initial = np.random.default_rng(4).normal(size=15) if warm else None
        if stop == "discrepancy":
            # the residual falls strictly: stop exactly at step stop_at
            free = LandweberConfig(max_iterations=stop_at, stagnation_tol=0.0,
                                   initial=initial)
            level = per_step_reference(mat, counts, constraints, free).residual_history
            config = LandweberConfig(
                max_iterations=1000, stagnation_tol=0.0, discrepancy_tau=1.0,
                noise_level=math.sqrt(level[stop_at - 2] * level[stop_at - 1]),
                initial=initial,
            )
        else:
            # the relative step falls strictly: stop exactly at step stop_at
            iterates = [
                solve(mat, counts, constraints, LandweberConfig(
                    max_iterations=k, stagnation_tol=0.0, initial=initial)).estimate
                for k in range(stop_at - 2, stop_at + 1)
            ]
            steps = [np.linalg.norm(after - before) / np.linalg.norm(after)
                     for before, after in zip(iterates, iterates[1:])]
            config = LandweberConfig(
                max_iterations=1000, stagnation_tol=math.sqrt(steps[0] * steps[1]),
                initial=initial,
            )
        got = solve(mat, counts, constraints, config)
        assert (got.stop_reason, got.iterations_run) == (stop, stop_at)
        assert_same_report(got, per_step_reference(mat, counts, constraints, config))

    @pytest.mark.parametrize("name", ["thermal_fig1", "spats_fig2", "cat_fig4"])
    @pytest.mark.parametrize("stop", ["max_iterations", "stagnation", "discrepancy"])
    def test_bundled_windows(self, name, stop):
        mat, counts = run_window(name)
        constraints = (ConstraintSet.even_support(mat.n_max + 1)
                       if name == "cat_fig4" else ConstraintSet.nonnegative())
        config = LandweberConfig(max_iterations=67, stagnation_tol=0.0)
        if stop == "stagnation":
            config = LandweberConfig(max_iterations=20_000, stagnation_tol=1e-5)
        elif stop == "discrepancy":
            level = per_step_reference(mat, counts, constraints, config).residual_history
            config = LandweberConfig(noise_level=level[32], discrepancy_tau=1.0)
        got = solve(mat, counts, constraints, config)
        assert got.stop_reason == stop and got.iterations_run > 32
        assert_same_report(got, per_step_reference(mat, counts, constraints, config))


class TestExactSolve:
    """noise_level == 0 on a tall full-rank support: one least-squares
    solve, clipped to the cone and taken only when it reproduces the data."""

    def test_rounding_negatives_are_clipped_to_positive_zero(self):
        rng = np.random.default_rng(0)
        entries = rng.uniform(0.0, 1.0, size=(12, 6))
        truth = rng.uniform(0.5, 1.0, size=6)
        truth[[1, 4]] = 0.0
        data = entries @ truth
        assert landweber._least_squares(entries, data).min() < 0.0  # the clip runs
        report = solve(plain_matrix(entries), data)
        assert (report.stop_reason, report.iterations_run) == ("exact", 0)
        assert report.estimate.min() >= 0.0 and not np.signbit(report.estimate).any()
        assert np.abs(report.estimate - truth).max() <= 1e-14

    @pytest.mark.parametrize("case", ["rank-deficient", "inconsistent", "negative-counts"])
    @pytest.mark.parametrize("masked", [False, True], ids=["nonneg", "masked"])
    def test_misses_take_the_loop_bit_for_bit(self, case, masked):
        rng = np.random.default_rng(11)
        entries = rng.uniform(0.0, 1.0, size=(14, 6))
        truth = rng.uniform(0.5, 1.0, size=6)
        if case == "rank-deficient":
            entries[:, 4] = entries[:, 0] + entries[:, 2]
        data = entries @ truth
        if case == "inconsistent":
            data += rng.normal(0.0, 1e-3, size=14)
        elif case == "negative-counts":
            entries = np.eye(6)
            data = truth - 0.75  # a negative count the cone cannot reproduce
        constraints = ConstraintSet(np.array([1, 1, 1, 1, 1, 0], bool) if masked else None)
        config = LandweberConfig(max_iterations=67, stagnation_tol=0.0)
        mat = plain_matrix(entries)
        got = solve(mat, data, constraints, config)
        assert got.stop_reason == "max_iterations"
        assert_same_report(got, per_step_reference(mat, data, constraints, config))

    def test_cat_window(self):
        mat, counts, constraints = cat_window()
        photon = even_cat(23.9, 1e-10)
        for initial in (None, np.full(photon.n_max + 1, 0.3)):
            report = solve(mat, counts, constraints, LandweberConfig(
                max_iterations=5000, stagnation_tol=0.0, initial=initial))
            assert (report.stop_reason, report.iterations_run) == ("exact", 0)
            assert report.residual_history.size == report.normalization_history.size == 0
            assert report.chi == 1.0 / mat.norm_bound_sq
            assert relative_error(report.estimate, photon.probs) <= 1e-8
            odd = report.estimate[1::2]
            assert np.all(odd == 0.0) and not np.signbit(odd).any()
            assert np.linalg.norm(mat.entries @ report.estimate - counts) <= (
                _EXACT_RTOL * np.linalg.norm(counts)
            )
            assert report.estimate.flags.owndata

    def test_explicit_chi_is_still_checked(self):
        mat, counts, constraints = cat_window()
        with pytest.raises(RelaxationBoundError):
            solve(mat, counts, constraints, LandweberConfig(chi=2.5 / mat.norm_bound_sq))

    def test_noisy_data_never_take_the_path(self, monkeypatch):
        mat, counts, constraints = cat_window()
        monkeypatch.setattr(landweber, "_exact_solve", None)  # a call would raise
        report = solve(mat, counts, constraints, LandweberConfig(noise_level=1e-3))
        assert report.stop_reason == "discrepancy"

    def test_cat_window_exact_solve_peak_memory(self):
        mat, counts, constraints = cat_window()
        tracemalloc.start()
        try:
            report = solve(mat, counts, constraints,
                           LandweberConfig(max_iterations=5000, stagnation_tol=0.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.stop_reason == "exact"
        # 44 KB: the 64 x 31 support copy and the SVD's copy and left
        # factor (16 KB each) with small temporaries; a 5000-step chunk of
        # the loop is bounded by 1.5e5
        assert peak < 6e4

    def test_wide_thermal_window_never_takes_the_path(self, monkeypatch):
        photon = thermal(30, 1e-10)
        params = DetectorParams(0.34, 0.30)
        mat = build_response(params, photon.n_max, suggest_m_max(params, photon.n_max, 1e-10))
        exact = forward(mat, photon)
        assert mat.entries.shape[0] < mat.entries.shape[1]  # wide

        def no_svd(*args, **kwargs):
            raise AssertionError("least squares on a wide window")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        config = LandweberConfig(max_iterations=33, stagnation_tol=0.0)
        got = solve(mat, exact, config=config)
        assert got.stop_reason == "max_iterations"
        assert_same_report(got, per_step_reference(mat, exact, ConstraintSet(None), config))


class TestSolve:
    def test_identity_fixed_point(self):
        mat = plain_matrix(np.eye(4))
        counts = np.array([0.1, 0.2, 0.3, 0.4])
        exact = solve(mat, counts, ConstraintSet.nonnegative(), LandweberConfig(chi=1.0))
        assert (exact.stop_reason, exact.iterations_run) == ("exact", 0)
        assert np.array_equal(exact.estimate, counts)
        # a negative count lies outside the nonnegative cone: the loop
        # projects it away in one step and stagnates on the next
        counts = np.array([0.1, -0.2, 0.3, 0.4])
        report = solve(
            mat,
            counts,
            ConstraintSet.nonnegative(),
            LandweberConfig(chi=1.0),
        )
        assert np.array_equal(report.estimate, np.maximum(counts, 0.0))
        assert report.iterations_run <= 2
        assert report.stop_reason == "stagnation"

    def test_histories_cover_every_iteration(self):
        mat = plain_matrix(np.eye(3))
        exact = solve(mat, np.array([0.5, 0.25, 0.25]), ConstraintSet.nonnegative(),
                      LandweberConfig(chi=0.5, max_iterations=7, stagnation_tol=0.0))
        assert (exact.stop_reason, exact.iterations_run) == ("exact", 0)
        assert exact.residual_history.size == exact.normalization_history.size == 0
        # the misfit cannot fall below the 0.05 of the negative count
        counts = np.array([0.5, 0.25, -0.05])
        for config, reason in [
            (
                LandweberConfig(chi=0.5, max_iterations=7, stagnation_tol=0.0),
                "max_iterations",
            ),
            (LandweberConfig(chi=0.5, noise_level=0.05), "discrepancy"),
            (LandweberConfig(chi=0.5, stagnation_tol=1e-3), "stagnation"),
        ]:
            report = solve(mat, counts, ConstraintSet.nonnegative(), config)
            assert report.stop_reason == reason
            assert report.iterations_run > 1
            assert report.residual_history.size == report.iterations_run
            assert report.normalization_history.size == report.iterations_run

    @pytest.mark.parametrize(
        "shape", [(30, 40), (40, 30)], ids=["wide", "tall"]
    )
    @pytest.mark.parametrize("masked", [False, True], ids=["nonneg", "even"])
    @pytest.mark.parametrize("warm", [False, True], ids=["zero", "warm"])
    def test_matches_gram_form_reference(self, shape, masked, warm):
        rng = np.random.default_rng(17)
        entries = rng.uniform(0.0, 1.0, size=shape)
        data = entries @ rng.uniform(0.0, 1.0, size=shape[1])
        data += rng.normal(0.0, 0.05 * data.std(), size=shape[0])
        constraints = ConstraintSet(
            np.arange(shape[1]) % 2 == 0 if masked else None
        )
        initial = rng.normal(size=shape[1]) if warm else None
        report = solve(
            plain_matrix(entries),
            data,
            constraints,
            LandweberConfig(
                max_iterations=500, stagnation_tol=0.0, initial=initial
            ),
        )
        expected = gram_form_reference(
            entries, data, report.chi, constraints, initial, 500
        )
        assert report.iterations_run == 500
        assert np.linalg.norm(report.estimate - expected) <= 1e-12 * (
            np.linalg.norm(expected)
        )

    def test_histories_match_recomputed_iterates(self):
        rng = np.random.default_rng(3)
        entries = rng.uniform(0.0, 1.0, size=(12, 9))
        data = rng.uniform(0.0, 1.0, size=12)
        mat = plain_matrix(entries)
        constraints = ConstraintSet.even_support(9)
        full = solve(
            mat,
            data,
            constraints,
            LandweberConfig(max_iterations=25, stagnation_tol=0.0),
        )
        for j in range(25):
            p_j = solve(
                mat,
                data,
                constraints,
                LandweberConfig(max_iterations=j + 1, stagnation_tol=0.0),
            ).estimate
            assert full.residual_history[j] == pytest.approx(
                np.linalg.norm(entries @ p_j - data), rel=1e-12
            )
            # the loop sums the support entries only; the pinned ones are 0
            assert full.normalization_history[j] == p_j[constraints.support_mask].sum()

    @pytest.mark.parametrize(
        "shape", [(30, 40), (40, 30)], ids=["wide", "tall"]
    )
    @pytest.mark.parametrize("warm", [False, True], ids=["zero", "warm"])
    @pytest.mark.parametrize(
        "stop", ["max_iterations", "stagnation", "discrepancy"]
    )
    def test_support_columns_match_pinned_full_matrix(self, shape, warm, stop):
        rng = np.random.default_rng(23)
        entries = rng.uniform(0.0, 1.0, size=shape)
        data = entries @ rng.uniform(0.0, 1.0, size=shape[1])
        data += rng.normal(0.0, 0.05 * data.std(), size=shape[0])
        mask = rng.uniform(size=shape[1]) < 0.6
        config = LandweberConfig(
            max_iterations=400,
            stagnation_tol=1e-3 if stop == "stagnation" else 0.0,
            noise_level=0.085 * np.linalg.norm(data) if stop == "discrepancy" else 0.0,
            initial=rng.normal(size=shape[1]) if warm else None,
        )
        mat = plain_matrix(entries)
        report = solve(mat, data, ConstraintSet(mask), config)
        assert report.chi == 1.0 / mat.norm_bound_sq  # from all columns, not the support
        estimate, residuals, iterations, reason = pinned_reference(
            entries, data, report.chi, mask, config
        )
        assert (report.iterations_run, report.stop_reason) == (iterations, reason)
        assert reason == stop and 1 < iterations
        assert np.linalg.norm(report.estimate - estimate) <= 1e-14 * np.linalg.norm(
            estimate
        )
        assert np.allclose(report.residual_history, residuals, rtol=1e-14, atol=0.0)

    def test_pinned_entries_are_positive_zero(self):
        rng = np.random.default_rng(8)
        entries = rng.uniform(0.0, 1.0, size=(10, 7))
        mask = np.array([True, False, True, False, False, True, False])
        initial = np.where(mask, 0.3, -0.0)
        initial[3] = -2.0
        for start in (None, initial):
            report = solve(
                plain_matrix(entries),
                rng.uniform(size=10),
                ConstraintSet(mask),
                LandweberConfig(max_iterations=30, initial=start),
            )
            assert np.all(report.estimate[~mask] == 0.0)
            assert not np.signbit(report.estimate[~mask]).any()

    def test_empty_support_returns_zeros(self):
        data = np.array([0.5, 0.3, 0.2])
        report = solve(
            plain_matrix(np.eye(3)),
            data,
            ConstraintSet(np.zeros(3, dtype=bool)),
            LandweberConfig(max_iterations=4, stagnation_tol=0.0),
        )
        assert report.estimate.tolist() == [0.0, 0.0, 0.0]
        assert not np.signbit(report.estimate).any()
        assert report.iterations_run == 4
        assert report.residual_history.tolist() == [np.linalg.norm(data)] * 4
        assert report.normalization_history.tolist() == [0.0] * 4

    def test_thermal_window_holds_no_gram(self):
        # the n x n Gram of this 322 x 703 window alone is 3.95 MB
        mat, counts = run_window("thermal_fig1")
        tracemalloc.start()
        try:
            solve(mat, counts, config=LandweberConfig(max_iterations=20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_thermal_window_solve_peak_memory(self):
        # the 322 x 322 Gram S S^T alone would be 0.83 MB
        mat, counts = run_window("thermal_fig1")
        tracemalloc.start()
        try:
            solve(mat, counts, config=LandweberConfig(max_iterations=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e5

    def test_cat_window_masked_solve_peak_memory(self):
        # one chunk of the gate-6 pattern: 5000 steps on the 64 x 31 support;
        # a positive noise level keeps exact data off the exact solve, and
        # one this small is never reached
        mat, counts, constraints = cat_window()
        tracemalloc.start()
        try:
            report = solve(
                mat,
                counts,
                constraints,
                LandweberConfig(
                    max_iterations=5000, noise_level=1e-300, stagnation_tol=0.0
                ),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.stop_reason == "max_iterations"
        assert report.iterations_run == 5000
        # 0.10 MB measured, nearly all the two 5000-entry histories,
        # returned without a copy
        assert peak < 1.5e5

    def test_thermal_window_discrepancy_stop_peak_memory(self):
        # 26 KB: two 703-entry iterate buffers and the 67-entry histories;
        # nothing is sized by max_iterations, and 32 rows of iterates alone
        # would be 180 KB
        mat, counts = run_window("thermal_fig1")
        free = solve(mat, counts, config=LandweberConfig(max_iterations=67))
        config = LandweberConfig(
            max_iterations=100_000, noise_level=free.residual_history[-1],
            discrepancy_tau=1.0,
        )
        tracemalloc.start()
        try:
            report = solve(mat, counts, config=config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.stop_reason == "discrepancy"
        assert peak < 6e4

    def test_iterates_respect_constraints(self):
        dist = thermal(4, 1e-8)
        params = DetectorParams(0.6, 0.4)
        m_max = suggest_m_max(params, dist.n_max, 1e-8)
        mat = build_response(params, dist.n_max, m_max)
        counts = forward(mat, dist)
        mask = np.arange(dist.n_max + 1) % 2 == 0
        for iterations in (1, 2, 3, 10, 50):
            report = solve(
                mat,
                counts,
                ConstraintSet(mask),
                LandweberConfig(
                    max_iterations=iterations, stagnation_tol=0.0
                ),
            )
            assert np.all(report.estimate >= 0)
            assert np.all(report.estimate[~mask] == 0)

    def test_monotone_residual_on_interior_noiseless_problem(self):
        # wide, so that exact data take the loop and not the exact solve
        rng = np.random.default_rng(5)
        entries = rng.uniform(0.1, 1.0, size=(8, 12))
        entries /= entries.sum(axis=0)
        mat = plain_matrix(entries)
        truth = rng.uniform(0.5, 1.0, size=12)
        truth /= truth.sum()
        counts = entries @ truth
        report = solve(
            mat,
            counts,
            ConstraintSet.nonnegative(),
            LandweberConfig(max_iterations=400, stagnation_tol=0.0),
        )
        assert report.iterations_run == 400
        diffs = np.diff(report.residual_history)
        assert np.all(diffs <= 1e-14)

    def test_noiseless_recovery_small_problem(self):
        dist = thermal(5, 1e-8)
        params = DetectorParams(0.8, 0.2)
        m_max = suggest_m_max(params, dist.n_max, 1e-8)
        mat = build_response(params, dist.n_max, m_max)
        counts = forward(mat, dist)
        report = solve(
            mat,
            counts,
            ConstraintSet.nonnegative(),
            LandweberConfig(max_iterations=20_000, stagnation_tol=0.0),
        )
        assert relative_error(report.estimate, dist.probs) <= 1e-4

    def test_deterministic(self):
        dist = thermal(3, 1e-8)
        params = DetectorParams(0.7, 0.3)
        m_max = suggest_m_max(params, dist.n_max, 1e-8)
        mat = build_response(params, dist.n_max, m_max)
        counts = sample_counts(forward(mat, dist), SamplingConfig(2000, 42))
        runs = [
            solve(
                mat,
                counts,
                ConstraintSet.nonnegative(),
                LandweberConfig(max_iterations=500),
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].estimate, runs[1].estimate)
        assert np.array_equal(
            runs[0].residual_history, runs[1].residual_history
        )
        assert runs[0].iterations_run == runs[1].iterations_run

    def test_discrepancy_stop(self):
        dist = thermal(5, 1e-8)
        params = DetectorParams(0.8, 0.2)
        m_max = suggest_m_max(params, dist.n_max, 1e-8)
        mat = build_response(params, dist.n_max, m_max)
        exact = forward(mat, dist)
        counts = sample_counts(exact, SamplingConfig(5000, 7))
        noise = expected_sampling_error(counts, 5000)
        report = solve(
            mat,
            counts,
            ConstraintSet.nonnegative(),
            LandweberConfig(noise_level=noise),
        )
        assert report.stop_reason == "discrepancy"
        assert report.residual_history[-1] <= 1.1 * noise

    def test_parity_mask_beats_plain_nonnegativity_on_cat_data(self):
        dist = even_cat(23.9, 1e-10)
        true_params = DetectorParams(0.613749, 1.763442)
        rec_params = DetectorParams(0.59, 1.77)
        m_max = suggest_m_max(true_params, dist.n_max, 1e-10)
        mat_true = build_response(true_params, dist.n_max, m_max)
        mat_rec = build_response(rec_params, dist.n_max, m_max)
        counts = sample_counts(
            forward(mat_true, dist), SamplingConfig(5000, 2)
        )
        noise = expected_sampling_error(counts, 5000)
        config = LandweberConfig(
            max_iterations=20_000, discrepancy_tau=1.6, noise_level=noise
        )
        masked = solve(
            mat_rec,
            counts,
            ConstraintSet.even_support(dist.n_max + 1),
            config,
        )
        plain = solve(mat_rec, counts, ConstraintSet.nonnegative(), config)
        err_masked = relative_error(masked.estimate, dist.probs)
        err_plain = relative_error(plain.estimate, dist.probs)
        assert err_masked < err_plain

    def test_chi_bound_violation_rejected(self):
        mat = plain_matrix(np.eye(3))
        counts = np.array([0.5, 0.3, 0.2])
        with pytest.raises(RelaxationBoundError):
            solve(
                mat,
                counts,
                ConstraintSet.nonnegative(),
                LandweberConfig(chi=2.5),
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LandweberConfig(chi=-1.0)
        with pytest.raises(ValueError):
            LandweberConfig(discrepancy_tau=0.5)
        with pytest.raises(ValueError):
            LandweberConfig(max_iterations=0)
        for field in ("noise_level", "stagnation_tol"):
            with pytest.raises(ValueError, match=f"{field} must be nonnegative"):
                LandweberConfig(**{field: -1e-3})
        for value in (10.5, 10.0, True):
            with pytest.raises(ValueError, match="max_iterations must be an integer"):
                LandweberConfig(max_iterations=value)

    @pytest.mark.parametrize(
        "field", ["chi", "discrepancy_tau", "noise_level", "stagnation_tol"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            LandweberConfig(**{field: value})

    @pytest.mark.parametrize(
        "field", ["chi", "discrepancy_tau", "noise_level", "stagnation_tol"]
    )
    @pytest.mark.parametrize("value", [True, "1.5", [1.5]])
    def test_config_rejects_non_numbers(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be a real number"):
            LandweberConfig(**{field: value})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_config_rejects_non_finite_initial(self, bad):
        with pytest.raises(ValueError, match="initial must be finite"):
            LandweberConfig(initial=[bad, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize("bad", [0.5, [[0.5, 0.5]]], ids=["scalar", "matrix"])
    def test_config_rejects_non_vector_initial(self, bad):
        with pytest.raises(ValueError, match="initial must be a 1-d vector"):
            LandweberConfig(initial=bad)

    def test_wrong_length_initial_named_under_a_mask(self):
        with pytest.raises(ValueError, match="initial vector of length 5"):
            solve(
                plain_matrix(np.eye(4)),
                np.full(4, 0.25),
                ConstraintSet.even_support(4),
                LandweberConfig(initial=np.ones(5)),
            )

    def test_config_accepts_and_stores_numpy_scalars(self):
        config = LandweberConfig(
            chi=np.float64(0.5), max_iterations=np.int64(7),
            discrepancy_tau=np.float32(1.5), noise_level=np.int64(0),
        )
        assert (config.chi, config.max_iterations) == (0.5, 7)
        assert type(config.discrepancy_tau) is float
        assert type(config.max_iterations) is int

    @pytest.mark.parametrize(
        "bad", [np.full((2, 2), 0.25), np.float64(0.5)], ids=["2x2", "0-d"]
    )
    def test_count_vector_must_be_1d(self, bad):
        # unchecked, the 0-d count was broadcast over the rows and solved
        with pytest.raises(ValueError, match=re.escape(
                f"count vector must be a 1-d vector, got shape {np.shape(bad)}")):
            solve(plain_matrix(np.eye(4)), bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("noise", [0.0, 0.1], ids=["exact", "noisy"])
    def test_non_finite_count_rejected_before_any_solve(self, bad, noise, monkeypatch):
        # unchecked, one NaN ran every iteration and returned an all-NaN estimate
        monkeypatch.setattr(landweber, "_least_squares", None)  # no exact solve
        counts = np.array([0.25, 0.25, bad, 0.25])
        with pytest.raises(ValueError, match=f"count probabilities must be finite, got {bad} at m=2"):
            solve(plain_matrix(np.eye(4)), counts, config=LandweberConfig(noise_level=noise))

    def test_dimension_checks(self):
        mat = plain_matrix(np.eye(3))
        with pytest.raises(ValueError):
            solve(mat, np.ones(5) / 5)
        with pytest.raises(ValueError):
            solve(
                mat,
                np.ones(3) / 3,
                ConstraintSet(np.array([True])),
            )
