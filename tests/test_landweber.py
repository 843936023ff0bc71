import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pnrecon.detector import (
    CountDistribution,
    DetectorParams,
    ResponseMatrix,
    build_response,
    forward,
    suggest_m_max,
)
from pnrecon.landweber import (
    ConstraintSet,
    LandweberConfig,
    RelaxationBoundError,
    auto_chi,
    project,
    solve,
)
from pnrecon.metrics import relative_error
from pnrecon.sampling import SamplingConfig, expected_sampling_error, sample_counts
from pnrecon.states import even_cat, thermal


# (state, true detector, assumed detector) of the bundled run configs
RUN_WINDOWS = {
    "thermal_fig1": (
        lambda: thermal(30.0, 1e-10),
        DetectorParams(0.34, 0.30),
        DetectorParams(0.35, 0.29),
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
    p = np.zeros(entries.shape[1])
    if initial is not None:
        p = project(initial, constraints)
    for _ in range(steps):
        p = project(p + chi * (back - gram @ p), constraints)
    return p


def plain_matrix(entries) -> ResponseMatrix:
    entries = np.asarray(entries, dtype=float)
    return ResponseMatrix(
        entries,
        DetectorParams(1.0, 0.0),
        np.maximum(0.0, 1.0 - entries.sum(axis=0)),
    )


class TestProject:
    def test_clips_negatives(self):
        got = project(np.array([0.2, -0.1, 0.3]), ConstraintSet.nonnegative())
        assert got.tolist() == [0.2, 0.0, 0.3]

    def test_support_mask(self):
        got = project(
            np.array([0.2, 0.5]), ConstraintSet(np.array([True, False]))
        )
        assert got.tolist() == [0.2, 0.0]

    def test_feasible_point_unchanged(self):
        v = np.array([0.1, 0.0, 2.0])
        assert np.array_equal(project(v, ConstraintSet.nonnegative()), v)

    @given(
        st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=1, max_size=30
        )
    )
    def test_idempotent(self, values):
        v = np.array(values)
        mask = np.arange(v.size) % 2 == 0
        for constraints in (ConstraintSet.nonnegative(), ConstraintSet(mask)):
            once = project(v, constraints)
            assert np.array_equal(project(once, constraints), once)

    def test_mask_length_mismatch(self):
        with pytest.raises(ValueError):
            project(np.ones(3), ConstraintSet(np.array([True, False])))


class TestAutoChi:
    def test_identity(self):
        assert auto_chi(plain_matrix(np.eye(10))) == pytest.approx(
            1.0, rel=1e-6
        )

    def test_scaled_diagonal(self):
        assert auto_chi(plain_matrix(2.0 * np.eye(6))) == pytest.approx(
            0.25, rel=1e-6
        )

    def test_against_dense_svd_oracle(self):
        dist = thermal(30, 1e-10)
        params = DetectorParams(0.34, 0.30)
        m_max = suggest_m_max(params, dist.n_max, 1e-10)
        mat = build_response(params, dist.n_max, m_max)
        sigma_max = np.linalg.svd(mat.entries, compute_uv=False)[0]
        assert auto_chi(mat) == pytest.approx(1.0 / sigma_max**2, rel=1e-4)

    @pytest.mark.parametrize("name", ["thermal_fig1", "cat_fig4"])
    def test_run_windows_against_svd(self, name):
        # thermal_fig1 is wide (322 x 703), cat_fig4 tall (64 x 61)
        mat, _ = run_window(name)
        sigma_max = np.linalg.svd(mat.entries, compute_uv=False)[0]
        assert auto_chi(mat) == pytest.approx(1.0 / sigma_max**2, rel=1e-6)

    @pytest.mark.parametrize("name", ["thermal_fig1", "cat_fig4"])
    def test_solve_default_chi_is_auto_chi(self, name):
        mat, counts = run_window(name)
        report = solve(mat, counts, config=LandweberConfig(max_iterations=1))
        assert report.chi == auto_chi(mat)


class TestSolve:
    def test_identity_fixed_point(self):
        mat = plain_matrix(np.eye(4))
        counts = CountDistribution(np.array([0.1, 0.2, 0.3, 0.4]))
        report = solve(
            mat,
            counts,
            ConstraintSet.nonnegative(),
            LandweberConfig(chi=1.0),
        )
        assert np.array_equal(report.estimate, counts.probs)
        assert report.iterations_run <= 2
        assert report.stop_reason == "stagnation"

    def test_histories_cover_every_iteration(self):
        mat = plain_matrix(np.eye(3))
        counts = CountDistribution(np.array([0.5, 0.25, 0.25]))
        for config, reason in [
            (
                LandweberConfig(chi=0.5, max_iterations=7, stagnation_tol=0.0),
                "max_iterations",
            ),
            (LandweberConfig(chi=0.5, noise_level=0.01), "discrepancy"),
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
            CountDistribution(data),
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
            CountDistribution(data),
            constraints,
            LandweberConfig(max_iterations=25, stagnation_tol=0.0),
        )
        for j in range(25):
            p_j = solve(
                mat,
                CountDistribution(data),
                constraints,
                LandweberConfig(max_iterations=j + 1, stagnation_tol=0.0),
            ).estimate
            assert full.residual_history[j] == pytest.approx(
                np.linalg.norm(entries @ p_j - data), rel=1e-12
            )
            assert full.normalization_history[j] == p_j.sum()

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
        rng = np.random.default_rng(5)
        entries = rng.uniform(0.1, 1.0, size=(12, 8))
        entries /= entries.sum(axis=0)
        mat = plain_matrix(entries)
        truth = rng.uniform(0.5, 1.0, size=8)
        truth /= truth.sum()
        counts = CountDistribution(entries @ truth)
        report = solve(
            mat,
            counts,
            ConstraintSet.nonnegative(),
            LandweberConfig(max_iterations=400, stagnation_tol=0.0),
        )
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
        counts = CountDistribution(np.array([0.5, 0.3, 0.2]))
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

    @pytest.mark.parametrize(
        "field", ["chi", "discrepancy_tau", "noise_level", "stagnation_tol"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            LandweberConfig(**{field: value})

    def test_dimension_checks(self):
        mat = plain_matrix(np.eye(3))
        with pytest.raises(ValueError):
            solve(mat, CountDistribution(np.ones(5) / 5))
        with pytest.raises(ValueError):
            solve(
                mat,
                CountDistribution(np.ones(3) / 3),
                ConstraintSet(np.array([True])),
            )
