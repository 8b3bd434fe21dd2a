"""Randomized generalized singular values for comparative analysis of
matrix pairs: the GSV spectrum of one solve, the comparative quantities
read off it, and a-posteriori error certificates for both."""

from .analysis import (
    ComparativeReport,
    angular_distances,
    compare,
    eigenexpression_fractions,
    relative_significance,
    shannon_entropy,
)
from .bounds import (
    BoundCertificate,
    perturbation_bound,
    projector_bound,
    quantity_error_bounds,
)
from .core import (
    QrFactors,
    SvdFactors,
    as_matrix,
    frobenius_norm,
    gaussian_matrix,
    reduced_qr,
    svd,
)
from .engine import (
    GmpPair,
    GsvOptions,
    GsvRun,
    GsvSpectrum,
    classify_spectrum,
    compute_gsv,
    run,
)
from .errors import (
    ConvergenceError,
    DegenerateSpectrumError,
    DimensionError,
    GsvError,
    InfeasibleRankError,
    ParseError,
    RankDeficiencyError,
    ValidationError,
)
from .io import read_matrix, report_to_dict, write_matrix, write_report
from .rangefinder import BasisResult, ExtractionConfig, extract_basis, residual_norm
from .synthetic import SynthResult, SynthSpec, synth_gmp

__version__ = "0.1.0"

__all__ = [
    "BasisResult",
    "BoundCertificate",
    "ComparativeReport",
    "ConvergenceError",
    "DegenerateSpectrumError",
    "DimensionError",
    "ExtractionConfig",
    "GmpPair",
    "GsvError",
    "GsvOptions",
    "GsvRun",
    "GsvSpectrum",
    "InfeasibleRankError",
    "ParseError",
    "QrFactors",
    "RankDeficiencyError",
    "SvdFactors",
    "SynthResult",
    "SynthSpec",
    "ValidationError",
    "angular_distances",
    "as_matrix",
    "classify_spectrum",
    "compare",
    "compute_gsv",
    "eigenexpression_fractions",
    "extract_basis",
    "frobenius_norm",
    "gaussian_matrix",
    "perturbation_bound",
    "projector_bound",
    "quantity_error_bounds",
    "read_matrix",
    "reduced_qr",
    "relative_significance",
    "report_to_dict",
    "residual_norm",
    "run",
    "shannon_entropy",
    "svd",
    "synth_gmp",
    "write_matrix",
    "write_report",
]
