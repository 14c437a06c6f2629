"""Frequency-domain ANOVA-simultaneous component analysis.

Multi-sample separations signals (chromatogram-like traces) are analyzed
as matrices of Fourier coefficients: a complex-valued general linear model
partitions the data by experimental factor, permutation tests assess each
factor's significance, and per-effect component models are transformed
back to the time domain for inspection.
"""

from .design import DesignMatrix, DesignSpec, Factor, encode, is_balanced, permute_rows
from .errors import (
    ConfigInvalid,
    DataError,
    DegenerateFactor,
    DimensionMismatch,
    DomainError,
    EmptySeries,
    EmptySignal,
    FftascaError,
    IdMismatch,
    InvalidTerm,
    NonConvergence,
    NonFiniteResult,
    NumericError,
    ParseError,
    RaggedRows,
    RankExceeded,
    RankWarning,
    UnknownTerm,
    ZeroResidual,
)
from .glm import (
    AnovaTable,
    GlmDecomposition,
    f_ratio,
    fit,
    impute_cell_means,
    pcmr_permutation_test,
    permutation_test,
    zeros_to_missing,
)
from .linalg import hermitian, mean_center_columns, pinv, ssq, svd
from .plots import emit_svg
from .sca import (
    ScaModel,
    TimeDomainView,
    default_components,
    effect_to_time,
    loadings_to_time,
    real_scores,
    sca_fit,
)
from .spectral import (
    dft_forward,
    dft_inverse,
    inverse_rows,
    parseval_check,
    transform_rows,
)
from .synth import SynthConfig, SynthDataset, generate, jitter_experiment, p_to_z

__version__ = "0.1.0"

__all__ = [
    "AnovaTable",
    "ConfigInvalid",
    "DataError",
    "DegenerateFactor",
    "DesignMatrix",
    "DesignSpec",
    "DimensionMismatch",
    "DomainError",
    "EmptySeries",
    "EmptySignal",
    "Factor",
    "FftascaError",
    "GlmDecomposition",
    "IdMismatch",
    "InvalidTerm",
    "NonConvergence",
    "NonFiniteResult",
    "NumericError",
    "ParseError",
    "RaggedRows",
    "RankExceeded",
    "RankWarning",
    "ScaModel",
    "SynthConfig",
    "SynthDataset",
    "TimeDomainView",
    "UnknownTerm",
    "ZeroResidual",
    "default_components",
    "dft_forward",
    "dft_inverse",
    "effect_to_time",
    "emit_svg",
    "encode",
    "f_ratio",
    "fit",
    "generate",
    "hermitian",
    "impute_cell_means",
    "inverse_rows",
    "is_balanced",
    "jitter_experiment",
    "loadings_to_time",
    "mean_center_columns",
    "p_to_z",
    "parseval_check",
    "pcmr_permutation_test",
    "permutation_test",
    "permute_rows",
    "pinv",
    "real_scores",
    "sca_fit",
    "ssq",
    "svd",
    "transform_rows",
    "zeros_to_missing",
]
