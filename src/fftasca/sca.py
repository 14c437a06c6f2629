"""Simultaneous component analysis of effect matrices.

Each effect matrix factorizes through its thin SVD into scores ``T`` and
orthonormal loadings ``P`` with ``T @ P^H`` reconstructing the effect, and
the residual-augmented scores are the projection ``(effect + residuals) @ P``.

Complex singular vectors are only defined up to a unit phase per component,
so loadings are canonicalized: if a loading column equals its reversed
conjugate up to a phase (the signature of a spectrum whose inverse
transform is real), the phase restoring that symmetry exactly is applied,
keeping back-transformed loadings real; otherwise the entry of largest
modulus is rotated to the positive real axis.  The remaining sign freedom
is fixed by the real part of the largest-modulus entry.  Scores carry the
same phase so reconstructions are untouched.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, LengthMismatch, RankExceeded
from .linalg import as_complex_matrix, rank_from_singular_values, svd
from .spectral import SpectrumMatrix, dft_inverse, inverse_rows, reversed_conjugate

__all__ = [
    "ScaModel",
    "TimeDomainView",
    "sca_fit",
    "default_components",
    "loadings_to_time",
    "effect_to_time",
    "real_scores",
]

_SYMMETRY_RTOL = 1e-8


@dataclass(frozen=True)
class ScaModel:
    """Component model of one effect matrix.

    ``scores`` (N x R) carry the effect variance, ``projected_scores``
    add the residual projection, ``loadings`` (M x R) are orthonormal and
    ``explained_ssq`` holds the squared singular values, descending.
    """

    term: str
    n_components: int
    scores: np.ndarray
    projected_scores: np.ndarray
    loadings: np.ndarray
    explained_ssq: np.ndarray


@dataclass(frozen=True)
class TimeDomainView:
    """Real-valued back-transform of frequency-domain quantities.

    Exactly one of ``loadings_time`` (M x R) and ``effect_time`` (N x M) is
    set, depending on which object was transformed.  ``imag_residue`` is
    the largest imaginary magnitude discarded when taking the real part;
    for models built from spectra of real signals it is at noise level.
    """

    loadings_time: np.ndarray = None
    effect_time: np.ndarray = None
    imag_residue: float = 0.0


def _canonical_phase(column):
    """Unit phase making a loading column reproducible and, when possible,
    exactly equal to its reversed conjugate."""
    norm_sq = np.vdot(column, column).real
    if norm_sq == 0.0:
        return 1.0 + 0.0j
    mirrored = reversed_conjugate(column)
    coeff = np.vdot(column, mirrored) / norm_sq
    symmetric = (
        abs(abs(coeff) - 1.0) <= _SYMMETRY_RTOL
        and np.linalg.norm(mirrored - coeff * column)
        <= _SYMMETRY_RTOL * np.sqrt(norm_sq)
    )
    if symmetric:
        phase = np.exp(1j * np.angle(coeff) / 2.0)
    else:
        pivot = column[np.argmax(np.abs(column))]
        phase = np.conj(pivot) / abs(pivot)
    rotated_pivot = (phase * column)[np.argmax(np.abs(column))]
    if rotated_pivot.real < 0 or (rotated_pivot.real == 0 and rotated_pivot.imag < 0):
        phase = -phase
    return phase


def sca_fit(effect, residuals, n_components=None, term="", cap=None):
    """Fit a component model of an effect matrix.

    ``n_components`` must lie in ``1..rank(effect)``.  ``None`` picks the
    count :func:`default_components` would pick with the given ``cap``,
    from the same SVD the fit uses.  With zero residuals the projected
    scores equal the scores exactly.
    """
    effect = as_complex_matrix(effect, "effect")
    residuals = as_complex_matrix(residuals, "residuals")
    if effect.shape != residuals.shape:
        raise DimensionMismatch(
            f"effect {effect.shape} and residuals {residuals.shape} differ"
        )
    res = svd(effect)
    rank = rank_from_singular_values(res.s, effect.shape)
    if n_components is None:
        n_components = _component_count(res.s, rank, rank if cap is None else cap)
    if n_components < 1:
        raise RankExceeded("need at least one component")
    if n_components > rank:
        raise RankExceeded(
            f"{n_components} components requested but the effect has rank {rank}"
        )
    loadings = res.v[:, :n_components].copy()
    scores = (res.u[:, :n_components] * res.s[:n_components]).copy()
    for r in range(n_components):
        phase = _canonical_phase(loadings[:, r])
        loadings[:, r] *= phase
        scores[:, r] *= phase
    projected = (effect + residuals) @ loadings
    return ScaModel(
        term=term,
        n_components=n_components,
        scores=scores,
        projected_scores=projected,
        loadings=loadings,
        explained_ssq=(res.s[:n_components] ** 2).copy(),
    )


def default_components(effect, cap, threshold=0.95):
    """Smallest component count explaining ``threshold`` of the effect ssq,
    capped at ``cap`` and at the matrix rank."""
    effect = as_complex_matrix(effect, "effect")
    s = svd(effect).s
    return _component_count(s, rank_from_singular_values(s, effect.shape), cap, threshold)


def _component_count(s, rank, cap, threshold=0.95):
    if rank == 0:
        raise RankExceeded("effect matrix is zero; nothing to decompose")
    energy = np.cumsum(s[:rank] ** 2) / np.sum(s[:rank] ** 2)
    wanted = int(np.searchsorted(energy, threshold) + 1)
    return max(1, min(wanted, cap, rank))


def loadings_to_time(model, source_length):
    """Back-transform the loadings of a frequency-domain model.

    Row ``r`` of the conjugate-transposed loadings is what multiplies the
    scores in the data reconstruction, so that row is passed through the
    inverse transform; the result therefore has the same orientation as
    the time profiles present in the data rows.
    """
    if model.loadings.shape[0] != source_length:
        raise LengthMismatch(
            f"loadings have {model.loadings.shape[0]} bins, expected {source_length}"
        )
    time = np.empty((source_length, model.n_components), dtype=np.complex128)
    for r in range(model.n_components):
        time[:, r] = dft_inverse(np.conj(model.loadings[:, r]))
    residue = float(np.max(np.abs(time.imag))) if time.size else 0.0
    return TimeDomainView(loadings_time=time.real.copy(), imag_residue=residue)


def effect_to_time(decomp, term, include_mean=False):
    """Inverse-transform one fitted effect matrix back to the time domain.

    With ``include_mean`` the grand-mean row is added to every sample row
    first, which places the level traces on the original intensity scale.
    """
    effect = decomp.effect(term)
    values = effect
    if include_mean:
        values = effect + decomp.grand_mean_row
    time = inverse_rows(SpectrumMatrix(values=values, source_length=values.shape[1]))
    residue = float(np.max(np.abs(time.imag))) if time.size else 0.0
    return TimeDomainView(effect_time=time.real.copy(), imag_residue=residue)


def real_scores(model):
    """Real part of the projected scores, for plotting.

    The discarded imaginary magnitudes remain available as
    ``abs(model.projected_scores.imag)``; for models of conjugate-symmetric
    spectra they are small relative to the score scale.
    """
    return model.projected_scores.real.copy()
