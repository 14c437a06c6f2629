"""Dense complex matrix core.

All higher-level machinery operates on ``numpy`` arrays of dtype
``complex128``; real data embeds as the zero-imaginary-part special case.
This module pins down the handful of operations whose exact semantics the
rest of the package relies on: the Hermitian transpose, the real-valued sum
of squares computed through the trace of ``X X^H``, a thin SVD with a fixed
orientation, and a pseudoinverse with an explicit singular-value cutoff.

Every function is pure; inputs are never mutated.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonConvergence, NonFiniteResult

__all__ = [
    "SvdResult",
    "as_complex_matrix",
    "hermitian",
    "ssq",
    "svd",
    "pinv",
    "mean_center_columns",
]

# Relative singular-value cutoff: values at or below
# 1e-12 * max(rows, cols) * s_max are treated as exact zeros.
DEFAULT_RANK_TOL_SCALE = 1e-12


def as_complex_matrix(a, name="matrix"):
    """Validate and return ``a`` as a dense 2-D complex128 array.

    Raises
    ------
    DimensionMismatch
        If ``a`` is not two-dimensional.
    NonFiniteResult
        If any entry is NaN or infinite (a ``ValueError`` too).
    """
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    arr = arr.astype(np.complex128, copy=False)
    if not np.isfinite(arr).all():
        raise NonFiniteResult(f"{name} contains non-finite entries")
    return arr


def hermitian(x):
    """Conjugate transpose: ``result[j, i] == conj(x[i, j])``."""
    x = as_complex_matrix(x)
    return x.conj().T.copy()


def _ssq(x):
    """``Tr(X X^H)`` of a validated matrix; each ``x * conj(x)`` is real."""
    return float(np.einsum("ij,ij->", x, x.conj()).real)


def ssq(x):
    """Real-valued sum of squares ``Tr(X X^H) = sum(|x_ij|^2)`` of a
    complex matrix.  A NaN or inf entry, or a sum that overflows, raises
    :class:`NonFiniteResult`."""
    total = _ssq(as_complex_matrix(x))
    if not np.isfinite(total):
        raise NonFiniteResult("the sum of squares overflows the floating-point range")
    return total


@dataclass(frozen=True)
class SvdResult:
    """Thin singular value decomposition ``X = U diag(S) V^H``.

    ``u`` is n-by-r, ``s`` a descending nonnegative real vector of length
    ``r = min(n, m)``, and ``v`` is m-by-r with orthonormal columns.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def reconstruct(self):
        return (self.u * self.s) @ self.v.conj().T


def svd(x):
    """Thin SVD of a complex matrix.

    Raises
    ------
    NonConvergence
        If the underlying iteration fails to converge.
    """
    x = as_complex_matrix(x)
    try:
        u, s, vh = np.linalg.svd(x, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"SVD did not converge for shape {x.shape}") from exc
    return SvdResult(u=u, s=s, v=vh.conj().T)


def numerical_rank(x):
    """Rank of ``x`` with singular values at or below
    ``1e-12 * max(rows, cols) * s_max`` counted as zero."""
    x = as_complex_matrix(x)
    return rank_from_singular_values(svd(x).s, x.shape)


def rank_from_singular_values(s, shape):
    """:func:`numerical_rank` of a matrix of ``shape`` whose descending
    singular values ``s`` are already known."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    tol = DEFAULT_RANK_TOL_SCALE * max(shape)
    return int(np.count_nonzero(s > tol * s[0]))


def pinv(x):
    """Moore-Penrose pseudoinverse via SVD, with the singular values that
    :func:`numerical_rank` counts as zero treated as zero."""
    x = as_complex_matrix(x)
    return pinv_from_svd(svd(x), x.shape)


def pinv_from_svd(res, shape):
    """:func:`pinv` of a matrix of ``shape`` whose SVD ``res`` is already
    known."""
    # the singular values descend, so those the rank counts lead
    r = rank_from_singular_values(res.s, shape)
    u, s, v = res.u[:, :r], res.s[:r], res.v[:, :r]
    return (v / s) @ u.conj().T


def mean_center_columns(x):
    """Subtract the column mean from every column.

    Column means of the result are zero to within accumulation error; the
    operation is idempotent.
    """
    x = as_complex_matrix(x)
    # a mean of finite values can overflow; as_complex_matrix rejects that
    with np.errstate(over="ignore", invalid="ignore"):
        centered = x - x.mean(axis=0, keepdims=True)
    return as_complex_matrix(centered, "centered matrix")
