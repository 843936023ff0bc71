import math
import re

import numpy as np
import pytest

from pnrecon.detector import (
    DetectorParams,
    build_response,
    forward,
    suggest_m_max,
)
from pnrecon.metrics import (
    normalization_defect,
    relative_error,
    relative_residual,
)
from pnrecon.states import thermal


class TestRelativeError:
    def test_zero_for_identical(self):
        v = np.array([0.3, 0.7])
        assert relative_error(v, v) == 0.0

    def test_orthogonal_unit_vectors(self):
        assert relative_error([0, 1], [1, 0]) == pytest.approx(math.sqrt(2))

    def test_homogeneity(self):
        v = np.array([0.2, 0.5, 0.3])
        assert relative_error(2 * v, v) == pytest.approx(1.0)

    def test_zero_padding_of_unequal_lengths(self):
        assert relative_error([1.0], [1.0, 0.0, 0.0]) == 0.0
        assert relative_error([0.0, 1.0], [1.0]) == pytest.approx(
            math.sqrt(2)
        )

    def test_exchange_scaling_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.uniform(0.1, 1, 6)
            b = rng.uniform(0.1, 1, 6)
            lhs = relative_error(a, b) * np.linalg.norm(b)
            rhs = relative_error(b, a) * np.linalg.norm(a)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_zero_norm_truth_rejected(self):
        with pytest.raises(ValueError):
            relative_error([1.0], [0.0, 0.0])


class TestRelativeResidual:
    def _setup(self):
        dist = thermal(3, 1e-8)
        params = DetectorParams(0.8, 0.2)
        m_max = suggest_m_max(params, dist.n_max, 1e-8)
        mat = build_response(params, dist.n_max, m_max)
        return dist, mat, forward(mat, dist)

    def test_exact_solution_has_zero_residual(self):
        dist, mat, counts = self._setup()
        got = relative_residual(mat, dist.probs, counts)
        assert got <= 1e-12

    def test_zero_estimate_has_unit_residual(self):
        dist, mat, counts = self._setup()
        zero = np.zeros(dist.probs.size)
        assert relative_residual(mat, zero, counts) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        _, mat, counts = self._setup()
        with pytest.raises(ValueError):
            relative_residual(mat, np.ones(mat.n_max + 5), counts)

    @pytest.mark.parametrize(
        "bad", [np.full((2, 2), 0.25), np.float64(0.5)], ids=["2x2", "0-d"]
    )
    def test_vectors_must_be_1d(self, bad):
        dist, mat, counts = self._setup()
        for name, args in [("estimate", (bad, counts)), ("measured vector", (dist.probs, bad))]:
            with pytest.raises(ValueError, match=re.escape(
                    f"{name} must be a 1-d vector, got shape {np.shape(bad)}")):
                relative_residual(mat, *args)

    def test_zero_norm_measurement_rejected(self):
        _, mat, _ = self._setup()
        zero = np.zeros(mat.m_max + 1)
        with pytest.raises(ValueError):
            relative_residual(mat, np.ones(mat.n_max + 1), zero)


def test_normalization_defect():
    assert normalization_defect([0.5, 0.5]) == 0.0
    assert normalization_defect([0.5, 0.3]) == pytest.approx(-0.2)
