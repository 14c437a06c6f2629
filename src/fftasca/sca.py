"""Simultaneous component analysis of effect matrices.

Each effect matrix factorizes through its thin SVD into scores ``T`` and
orthonormal loadings ``P`` with ``T @ P^H`` reconstructing the effect, and
the residual-augmented scores are the projection ``(effect + residuals) @ P``,
computed as ``T + residuals @ P`` because ``effect @ P = T``.

The SVD is taken in level space.  A term's effect ``D_t theta_t`` repeats
a row wherever the coding rows ``D_t`` repeat, so it is ``G Phi`` for its
U distinct rows ``Phi`` (one per factor level, at most one per cell for an
interaction) and the N x U indicator ``G`` with ``G^T G = diag(c)`` for
the row counts ``c``.  If ``diag(sqrt(c)) Phi = U' S V'^H``, then the
effect is ``(G diag(c)^-1/2 U') S V'^H`` with orthonormal left factor: the
loadings are ``V'``, the scores ``G diag(c)^-1/2 U' S``, and the singular
values those of the effect, at the cost of a U x M SVD instead of an
N x M one (Smilde et al. 2005; Jansen et al. 2005).  The rank tolerance
still uses the full N x M shape.  The two factorizations agree in exact
arithmetic only, so scores and loadings can differ from those of the full
SVD in the last bits; the components, their order and their phases do not
change.  With a distinct-row index, :func:`sca_fit` and
:func:`default_components` take the effect as its U distinct rows ``Phi``,
which is how :func:`~fftasca.glm.fit` holds it, so the N x M effect is
never built.  A matrix passed without an index is taken to have no
repeated rows, which is the same computation with ``c = 1``.

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

from .design import DistinctRows
from .errors import DimensionMismatch, RankExceeded
from .linalg import as_complex_matrix, rank_from_singular_values, svd
from .spectral import inverse_rows, reversed_conjugate

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
    """Real part of a back-transform to the time domain.

    ``values`` holds the loadings (M x R) or the effect's distinct rows
    (U x M) in the time domain.  ``imag_residue`` is the largest imaginary
    magnitude discarded when taking the real part; for models built from
    spectra of real signals it is at noise level.
    """

    values: np.ndarray
    imag_residue: float


def _real_part(time):
    """``time.real`` and the largest imaginary magnitude it discards."""
    return time.real, float(np.max(np.abs(time.imag))) if time.size else 0.0


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


def _rows_of(effect, rows):
    """``rows``, or every row of ``effect`` distinct; ``effect`` must hold
    one row per distinct row."""
    if rows is None:
        return DistinctRows.all_distinct(effect.shape[0])
    if effect.shape[0] != rows.first.size:
        raise DimensionMismatch(
            f"the effect has {effect.shape[0]} rows, not the {rows.first.size} distinct "
            f"rows of its index")
    return rows


def _level_svd(effect, rows):
    """SVD of ``diag(sqrt(c)) Phi`` for the distinct rows ``Phi = effect``
    and their counts ``c``, with those square roots and the rank of the
    N x M effect."""
    weights = np.sqrt(rows.counts)
    res = svd(effect * weights[:, None])
    return res, weights, rank_from_singular_values(res.s, (rows.inverse.size, effect.shape[1]))


def sca_fit(effect, residuals, n_components=None, term="", cap=None, rows=None):
    """Fit a component model of an effect matrix.

    ``n_components`` must lie in ``1..rank(effect)``.  ``None`` picks the
    count :func:`default_components` would pick with the given ``cap``,
    from the same SVD the fit uses.  ``rows`` is the effect's
    :class:`~fftasca.design.DistinctRows`, as
    ``GlmDecomposition.distinct_rows(term)`` gives it, and ``effect`` is
    then the effect's ``rows.first.size`` distinct rows, as
    ``GlmDecomposition.levels[term]`` holds them; an N x M effect passed
    with ``rows`` raises :class:`DimensionMismatch`, except for a saturated
    term (one distinct row per sample), whose rows are taken in the order
    of ``rows.first``.  ``None`` takes every row of an N x M effect as
    distinct.  ``residuals`` is N x M.  With zero residuals the projected
    scores equal the scores exactly.
    """
    effect = as_complex_matrix(effect, "effect")
    residuals = as_complex_matrix(residuals, "residuals")
    rows = _rows_of(effect, rows)
    shape = (rows.inverse.size, effect.shape[1])
    if residuals.shape != shape:
        raise DimensionMismatch(f"effect {shape} and residuals {residuals.shape} differ")
    res, weights, rank = _level_svd(effect, rows)
    if n_components is None:
        n_components = _component_count(res.s, rank, rank if cap is None else cap)
    if n_components < 1:
        raise RankExceeded("need at least one component")
    if n_components > rank:
        raise RankExceeded(
            f"{n_components} components requested but the effect has rank {rank}"
        )
    loadings = res.v[:, :n_components].copy()
    level_scores = res.u[:, :n_components] * res.s[:n_components] / weights[:, None]
    for r in range(n_components):
        phase = _canonical_phase(loadings[:, r])
        loadings[:, r] *= phase
        level_scores[:, r] *= phase
    scores = level_scores[rows.inverse]
    return ScaModel(
        term=term,
        n_components=n_components,
        scores=scores,
        projected_scores=scores + residuals @ loadings,
        loadings=loadings,
        explained_ssq=(res.s[:n_components] ** 2).copy(),
    )


def default_components(effect, cap, rows=None):
    """Smallest component count explaining 95 % of the effect ssq, capped
    at ``cap`` and at the matrix rank.  ``effect`` and ``rows`` are as for
    :func:`sca_fit`."""
    effect = as_complex_matrix(effect, "effect")
    res, _, rank = _level_svd(effect, _rows_of(effect, rows))
    return _component_count(res.s, rank, cap)


def _component_count(s, rank, cap):
    if rank == 0:
        raise RankExceeded("effect matrix is zero; nothing to decompose")
    energy = np.cumsum(s[:rank] ** 2) / np.sum(s[:rank] ** 2)
    wanted = int(np.searchsorted(energy, 0.95) + 1)
    return max(1, min(wanted, cap, rank))


def loadings_to_time(model):
    """Back-transform the loadings of a frequency-domain model.

    Row ``r`` of the conjugate-transposed loadings is what multiplies the
    scores in the data reconstruction, so that row is passed through the
    inverse transform; the result therefore has the same orientation as
    the time profiles present in the data rows.
    """
    time = inverse_rows(np.conj(model.loadings).T).T
    return TimeDomainView(*_real_part(time))


def effect_to_time(decomp, term, include_mean=False):
    """Inverse-transform the distinct rows of one fitted effect back to the
    time domain.

    The view holds one row per distinct row of the effect, in the order of
    ``decomp.levels[term]``; sample ``i`` has row
    ``decomp.distinct_rows(term).inverse[i]``.  With ``include_mean`` the
    grand-mean row is added to every row first, which places the level
    traces on the original intensity scale.
    """
    decomp.distinct_rows(term)  # an unknown term raises UnknownTerm
    values = decomp.levels[term]
    if include_mean:
        values = values + decomp.grand_mean_row
    return TimeDomainView(*_real_part(inverse_rows(values)))


def real_scores(model):
    """Real part of the projected scores, for plotting.

    The discarded imaginary magnitudes remain available as
    ``abs(model.projected_scores.imag)``; for models of conjugate-symmetric
    spectra they are small relative to the score scale.
    """
    return model.projected_scores.real.copy()
