"""Frequency-domain ANOVA-simultaneous component analysis.

Multi-sample separations signals (chromatogram-like traces) are analyzed
as matrices of Fourier coefficients: a complex-valued general linear model
partitions the data by experimental factor, permutation tests assess each
factor's significance, and per-effect component models are transformed
back to the time domain for inspection.

Submodules load on first use (PEP 562), so ``import fftasca`` alone
imports no numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "design": "DesignMatrix DesignSpec Factor encode is_balanced permute_rows",
    "errors": "ConfigInvalid DataError DegenerateFactor DimensionMismatch DomainError "
              "EmptySeries EmptySignal FftascaError IdMismatch InvalidTerm NonConvergence "
              "NonFiniteResult NumericError ParseError RaggedRows RankExceeded RankWarning "
              "UnknownTerm ZeroResidual",
    "glm": "AnovaTable GlmDecomposition f_ratio fit impute_cell_means pcmr_permutation_test "
           "permutation_test zeros_to_missing",
    "linalg": "hermitian mean_center_columns pinv ssq svd",
    "plots": "emit_svg",
    "sca": "ScaModel TimeDomainView default_components effect_to_time loadings_to_time "
           "real_scores sca_fit",
    "spectral": "dft_forward dft_inverse inverse_rows parseval_check transform_rows",
    "synth": "SynthConfig SynthDataset generate jitter_experiment p_to_z",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli", "io"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
