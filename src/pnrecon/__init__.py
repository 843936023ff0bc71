"""Reconstruction of photon-number distributions from photocounting data.

Photocounting statistics recorded with a lossy detector in the presence of
dark counts and background radiation differ from the underlying photon-
number statistics. This package models the detector response, simulates
sampled measurements, and inverts the response either through the unstable
analytic series (as a baseline) or through projected Landweber iteration
with nonnegativity and optional support constraints.
"""

__version__ = "0.1.0"

from .detector import (
    DetectorParams,
    ResponseMatrix,
    build_response,
    forward,
    response_entry,
    suggest_m_max,
)
from .inversion import (
    InversionOverflowError,
    build_inverse,
    direct_reconstruct,
    inverse_entry,
)
from .landweber import (
    ConstraintSet,
    LandweberConfig,
    RelaxationBoundError,
    SolveReport,
    solve,
)
from .metrics import normalization_defect, relative_error, relative_residual
from .sampling import SamplingConfig, expected_sampling_error, sample_counts
from .states import PhotonDistribution, even_cat, fock, from_file, spats, thermal

__all__ = [
    "__version__",
    "DetectorParams",
    "ResponseMatrix",
    "build_response",
    "forward",
    "response_entry",
    "suggest_m_max",
    "InversionOverflowError",
    "build_inverse",
    "direct_reconstruct",
    "inverse_entry",
    "ConstraintSet",
    "LandweberConfig",
    "RelaxationBoundError",
    "SolveReport",
    "solve",
    "normalization_defect",
    "relative_error",
    "relative_residual",
    "SamplingConfig",
    "expected_sampling_error",
    "sample_counts",
    "PhotonDistribution",
    "even_cat",
    "fock",
    "from_file",
    "spats",
    "thermal",
]
