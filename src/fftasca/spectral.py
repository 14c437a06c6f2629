"""Row-wise discrete Fourier transforms with a fixed normalization.

The convention is pinned throughout the package: the forward transform is
unnormalized and the inverse carries the ``1/M`` factor, so the transform
is orthogonal but not orthonormal and the Parseval constant is ``M``:

    ``sum(|x_k|^2) == M * sum(x_m^2)``

for any real signal of length ``M``.  The full spectrum (all ``M`` bins)
is retained; for real inputs the bins are conjugate-symmetric and the two
redundant halves contribute equal sums of squares, so nothing statistical
is gained or lost relative to a half-spectrum representation, while exact
invertibility is kept.
"""

import numpy as np

from .errors import EmptySignal
from .linalg import as_complex_matrix, ssq

__all__ = [
    "dft_forward",
    "dft_inverse",
    "transform_rows",
    "inverse_rows",
    "parseval_check",
    "reversed_conjugate",
]


def dft_forward(x):
    """Unnormalized forward DFT of a 1-D real or complex signal."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise EmptySignal(f"expected a 1-D signal, got shape {x.shape}")
    if x.size == 0:
        raise EmptySignal("cannot transform an empty signal")
    return transform_rows(x[None, :])[0]


def dft_inverse(spectrum):
    """Inverse DFT carrying the 1/M normalization."""
    spectrum = np.asarray(spectrum)
    if spectrum.ndim != 1:
        raise EmptySignal(f"expected a 1-D spectrum, got shape {spectrum.shape}")
    if spectrum.size == 0:
        raise EmptySignal("cannot invert an empty spectrum")
    return inverse_rows(spectrum[None, :])[0]


def _rows(fft, x, name, out_name, verb):
    """``fft`` of every row of ``x``; both ``x`` and the result must be finite."""
    x = as_complex_matrix(x, name)
    if x.shape[1] == 0:
        raise EmptySignal(f"cannot {verb} zero-length rows")
    # a finite signal can overflow; as_complex_matrix rejects that as NonFiniteResult
    with np.errstate(over="ignore", invalid="ignore"):
        out = fft(x, axis=1)
    return as_complex_matrix(out, out_name)


def transform_rows(x):
    """Forward-transform every row of an N x M matrix; returns the N x M
    complex spectrum, all M bins of each row."""
    return _rows(np.fft.fft, x, "matrix", "spectrum", "transform")


def inverse_rows(spectrum):
    """Inverse-transform every row of an N x M spectrum; returns the N x M
    complex matrix."""
    return _rows(np.fft.ifft, spectrum, "spectrum", "inverse transform", "invert")


def parseval_check(x):
    """Return ``(sum(x_m^2), sum(|x_k|^2) / M)`` for a real signal.

    The two values agree to within floating-point accumulation error under
    the fixed normalization; callers assert the tolerance they need.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise EmptySignal("parseval_check expects a non-empty 1-D real signal")
    row = x[None, :]
    return ssq(row), ssq(transform_rows(row)) / x.size


def reversed_conjugate(v):
    """Map ``v[k]`` to ``conj(v[(-k) mod M])``.

    A spectrum equals its reversed conjugate exactly when its inverse
    transform is real; the component-analysis phase fixing uses this to
    detect spectra of real signals.
    """
    v = np.asarray(v, dtype=np.complex128)
    return np.conj(np.roll(v[::-1], 1))
