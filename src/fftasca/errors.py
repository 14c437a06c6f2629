"""Exception and warning types shared across the package.

The base class of an error is its exit category on the command line:
``ConfigInvalid`` 2, ``DataError`` 3, ``NumericError`` 4.
"""


class FftascaError(Exception):
    """Base class for all errors raised by this package."""


class DataError(FftascaError):
    """The input data or design cannot be analyzed as given."""


class NumericError(FftascaError):
    """A computation on valid input failed or left its numeric range."""


class DimensionMismatch(DataError):
    """Operands have incompatible shapes."""


class NonConvergence(NumericError):
    """A matrix decomposition failed to converge."""


class EmptySignal(DataError):
    """A transform was requested on a zero-length signal."""


class DegenerateFactor(DataError):
    """A design factor has fewer than two observed levels."""


class InvalidTerm(DataError):
    """A factor name or interaction pair cannot name a model term of its own."""


class ZeroResidual(NumericError):
    """No residual to test against: the model is saturated, or its residual
    sum of squares rounds to zero against the fitted part."""


class NonFiniteResult(NumericError, ValueError):
    """A matrix, sum of squares, spectrum or imputed value, a plotted value
    or a value to be written to a table of floats is inf or nan, or a
    table's total sum of squares lies below the normal range.

    Input files hold finite values only, so inside the package a non-finite
    value is an overflow.  Also a ``ValueError``, which non-finite
    arguments raised before this class existed.
    """


class UnknownTerm(DataError):
    """A term name does not exist in the fitted model."""


class RankExceeded(NumericError):
    """More components were requested than the matrix rank supports."""


class ConfigInvalid(FftascaError):
    """A generator or pipeline configuration violates its constraints."""


class DomainError(NumericError):
    """A numeric argument lies outside the function's domain."""


class ParseError(DataError):
    """A data file could not be parsed.

    Carries the 1-based line and column of the offending token.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class IdMismatch(DataError):
    """Sample ids of two files do not agree; lists the offenders."""

    def __init__(self, message, missing_in_metadata=(), missing_in_data=()):
        super().__init__(message)
        self.missing_in_metadata = tuple(missing_in_metadata)
        self.missing_in_data = tuple(missing_in_data)


class RaggedRows(DataError):
    """Rows of a data file have unequal lengths."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class EmptySeries(NumericError):
    """A plot was requested with no data series."""


class RankWarning(UserWarning):
    """The design matrix is column-rank deficient; the fit uses a pseudoinverse."""


class UnbalancedDesignWarning(UserWarning):
    """The design is unbalanced; sums of squares need not partition additively."""


class EmptyCellWarning(UserWarning):
    """A design cell had no observed value for some variable during imputation."""
