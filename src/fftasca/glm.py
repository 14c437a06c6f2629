"""Complex-valued general linear model with permutation inference.

The model is ``X = D @ theta + E`` fitted by least squares through the
pseudoinverse of the encoded design.  Effect matrices are reconstructed
per term from that term's coding columns, one row per distinct coding row
(expanded to all N rows only on request), sums of squares are the real
traces ``Tr(A A^H)``, and the F-ratio for a term is its mean square over
the residual mean square.  Significance comes from permuting whole rows of
the response against the fixed design and counting permuted F-ratios at or
above the nominal one:

    ``p = (#{F_perm >= F_nominal} + 1) / (n_perms + 1)``

Ties within 1e-12 relative count toward the numerator.  When the requested
permutation count covers all ``n! - 1`` non-identity permutations, the
engine enumerates them exactly instead of sampling.

Permuted F-ratios are not refitted one by one.  The columns of ``pinv(D)``
are equal within a design cell, so ``theta = q mu`` for the C x M cell
means ``mu`` and the F x C cell sums ``q`` of those columns, and a term's
sum of squares ``Tr(theta_t^H G_t theta_t)``, with the Gram ``G_t = D_t^T
D_t`` that the direct fit reads too, is ``<q_t^T G_t q_t, Re(mu mu^H)>``
(``q^T D^T D q`` for the fitted part).  One scorer, set up once per test,
reads each permutation's sums of squares off its permuted cell means, whose
sums and counts one matrix product gives for a chunk of permutations.  Dense
data are first replaced by the real N x N factor ``L`` of the kernel
``K = Re(X X^H) = L L^T``, which has the same permuted sums of squares
(the distance-matrix form of PERMANOVA, McArdle & Anderson 2001), so a
permutation costs O(C N^2) whatever the signal length.  A permutation
counts toward a term when its scored sums of squares give a margin
``ss nu2 - F_nominal nu1 resid >= 0``, which is ``F >= F_nominal`` with no
division.  Scorer and refit agree to within an error of order ``eps *
total``, not bit for bit, so a permutation whose margin for some term lies
within ``KERNEL_TIE_REL * total * (nu2 + F_nominal nu1)`` of zero is
re-decided by a direct refit; the counts, and hence the p-values, are
those of refitting every permutation.  The nominal row always comes from
the direct fit.

Missing values in peak tables are handled by permutational cell-mean
replacement: every missing entry is imputed with the mean of the observed
entries that currently share its design cell, and the imputation is redone
inside every permutation iteration because the mask travels with the data
rows while the design stays fixed.  Imputation leaves each cell mean at the
mean of the cell's observed entries (the grand mean where the cell
observes nothing), so the same scorer serves, and near-ties are
re-imputed before their refit.  An all-false mask scores as dense data.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .design import MEAN_TERM, DistinctRows, _test_permutations
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    EmptyCellWarning,
    NonFiniteResult,
    UnknownTerm,
    ZeroResidual,
)
from .linalg import _ssq, as_complex_matrix, ssq

__all__ = [
    "GlmDecomposition",
    "AnovaRow",
    "AnovaTable",
    "fit",
    "f_ratio",
    "permutation_test",
    "pcmr_permutation_test",
    "impute_cell_means",
    "zeros_to_missing",
]

# relative window within which two F values count as tied
F_TIE_REL = 1e-12

# relative error, against the total, allowed for scored sums of squares; a
# permutation whose margin to the nominal F is within reach of that error
# is re-decided by a direct refit.  It stays apart from F_TIE_REL, which
# compares two direct fits and decides which F tie, so widening that moves
# p-values; the scorer's error (its kernel factor, its cell sums) is larger,
# and widening this window costs refits, never counts
KERNEL_TIE_REL = 1e-9

# bytes of per-chunk working set of the scorer; larger chunks raise
# peak memory and gain no speed
_CELL_CHUNK_BYTES = 1 << 18


@dataclass(frozen=True)
class GlmDecomposition:
    """Fitted model: coefficients, per-term effect levels and residuals.

    ``levels`` maps a term to the U x M distinct rows of its effect, and
    ``term_rows`` maps it to their :class:`~fftasca.design.DistinctRows`,
    as :func:`fit` takes them from the design; :meth:`effect` expands them
    to the N x M effect.  A term without a recorded index counts every row
    of its ``levels`` entry as distinct.
    """

    theta_hat: np.ndarray
    levels: dict
    residuals: np.ndarray
    dof: dict
    residual_dof: int
    grand_mean_row: np.ndarray
    term_rows: dict = field(default_factory=dict, repr=False)

    def effect(self, term):
        """The N x M effect of one term, expanded from its levels on each call."""
        rows = self.distinct_rows(term)
        return self.levels[term][rows.inverse]

    def distinct_rows(self, term):
        """Distinct-row index of one term's ``levels``."""
        if term not in self.levels:
            raise UnknownTerm(f"no term '{term}' in this fit")
        return self.term_rows.get(term) or DistinctRows.all_distinct(len(self.levels[term]))


def _check_rows(x, dmatrix):
    """Reject data whose row count is not the design's sample count."""
    if x.shape[0] != dmatrix.n_samples:
        raise DimensionMismatch(f"data has {x.shape[0]} rows, which do not match the design "
                                f"of {dmatrix.n_samples} samples")


def fit(x, dmatrix):
    """Least-squares fit of ``x`` (N x M) against an encoded design.

    Returns a GlmDecomposition whose parts satisfy the exact identity
    ``ones*mu + sum(effects) + residuals == x``, each effect held as its
    distinct rows.
    """
    x = as_complex_matrix(x)
    _check_rows(x, dmatrix)
    d = dmatrix.matrix
    theta = dmatrix.pinv @ x
    spans, rows = dmatrix.column_spans, dmatrix.distinct_rows
    levels = {t: d[rows[t].first, spans[t]] @ theta[spans[t]] for t in dmatrix.terms}
    residuals = d @ theta
    np.subtract(x, residuals, out=residuals)
    return GlmDecomposition(
        theta_hat=theta,
        levels=levels,
        residuals=residuals,
        dof={t: dmatrix.dof[t] for t in dmatrix.terms},
        residual_dof=x.shape[0] - dmatrix.rank,
        grand_mean_row=theta[spans[MEAN_TERM]].copy(),
        term_rows=rows,
    )


def f_ratio(decomp, term):
    """F-ratio of one term: (effect ssq / nu1) / (residual ssq / nu2)."""
    ss = ssq(decomp.effect(term))
    return float(_f_ratios(ss, decomp.dof[term], ssq(decomp.residuals), decomp.residual_dof))


def _f_ratios(ss, nu1, resid, nu2):
    """F-ratios ``ss / nu1 / (resid / nu2)`` of one fit; raise
    :class:`ZeroResidual` unless there is a residual to test against, and
    :class:`NonFiniteResult` for an F past the floating-point range."""
    if nu2 == 0:
        raise ZeroResidual("no residual sum of squares or degrees of freedom (saturated model)")
    if resid == 0.0:
        raise ZeroResidual(f"the residual sum of squares rounds to zero against the fitted "
                           f"part, although {nu2} residual degrees of freedom remain")
    # a subnormal residual over nu2 can round to zero
    with np.errstate(over="ignore", divide="ignore"):
        f = np.asarray(ss, dtype=float) / nu1 / (resid / nu2)
    if not np.isfinite(f).all():
        raise NonFiniteResult("the sums of squares overflow the floating-point range")
    return f


@dataclass(frozen=True)
class AnovaRow:
    term: str
    sum_sq: float
    perc_sum_sq: float
    df: int
    mean_sq: float
    f: float = None
    p_value: float = None


@dataclass(frozen=True)
class AnovaTable:
    """Rows: Mean, one per model term, Residuals, Total.

    F and p are absent on the Mean, Residuals and Total rows.
    """

    rows: tuple
    n_permutations: int

    COLUMNS = ("term", "SumSq", "PercSumSq", "df", "MeanSq", "F", "Pvalue")

    def row(self, term):
        for r in self.rows:
            if r.term == term:
                return r
        raise UnknownTerm(f"no row '{term}' in this table")

    def to_text(self):
        cells = [list(self.COLUMNS)]
        for r in self.rows:
            cells.append([
                r.term,
                f"{r.sum_sq:.4g}",
                f"{r.perc_sum_sq:.3g}",
                str(r.df),
                f"{r.mean_sq:.4g}",
                "--" if r.f is None else f"{r.f:.4g}",
                "--" if r.p_value is None else f"{r.p_value:.4g}",
            ])
        widths = [max(len(row[j]) for row in cells) for j in range(len(self.COLUMNS))]
        lines = []
        for i, row in enumerate(cells):
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
            if i == 0:
                lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
        return "\n".join(lines) + "\n"


def zeros_to_missing(x):
    """Split a real peak table into (values, mask); mask is True at zeros."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D peak table, got shape {x.shape}")
    return x, x == 0.0


def _check_mask(x, mask):
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.shape:
        raise DimensionMismatch(
            f"mask shape {mask.shape} does not match data shape {x.shape}"
        )
    return mask


# sums of finite values can overflow; the callers' finiteness checks raise
# NonFiniteResult on what that leaves
@np.errstate(over="ignore", invalid="ignore")
def _grand_means(x, mask):
    """Per-variable mean over observed entries; 0 where nothing is observed."""
    counts = (~mask).sum(axis=0)
    sums = np.where(mask, 0.0, x).sum(axis=0)
    return np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)


def _cell_sums(cells, values):
    """Per-cell sums of the rows of ``values``, row ``i`` in cell ``cells[i]``,
    added in row order; booleans are counted, as intp."""
    sums = np.zeros((int(cells.max()) + 1, *values.shape[1:]),
                    dtype=np.result_type(values, np.intp))
    np.add.at(sums, cells, values)
    return sums


@np.errstate(over="ignore", invalid="ignore")
def _impute(x, mask, cells, grand_means):
    """Replace masked entries with their current design-cell means."""
    sums = _cell_sums(cells, np.where(mask, 0.0, x))
    counts = _cell_sums(cells, ~mask)
    means = np.divide(sums, counts, out=np.broadcast_to(grand_means, sums.shape).astype(x.dtype),
                      where=counts > 0)
    return np.where(mask, means[cells], x)


def impute_cell_means(x, mask, dmatrix, warn_empty=True):
    """One-shot cell-mean imputation against the unpermuted design.

    A cell with no observed value for some variable falls back to that
    variable's grand mean over all observed entries (and to zero if the
    variable is never observed); a warning is emitted unless suppressed.
    """
    x = as_complex_matrix(x)
    mask = _check_mask(x, mask)
    _check_rows(x, dmatrix)
    if warn_empty:
        _warn_empty_cells(mask, dmatrix, stacklevel=2)
    # cell means of finite values can overflow; that raises NonFiniteResult
    return as_complex_matrix(_impute(x, mask, dmatrix.cell_ids, _grand_means(x, mask)),
                             "imputed table")


def _warn_empty_cells(mask, dmatrix, stacklevel):
    """Warn for each cell that imputes a variable it never observes,
    ``stacklevel`` frames up as for :func:`warnings.warn`."""
    # a cell holds at least one row, so a variable it never observes is masked there
    empty = _cell_sums(dmatrix.cell_ids, ~mask) == 0
    for c in np.flatnonzero(empty.any(axis=1)):
        warnings.warn(
            f"cell {c} has no observed value for variable(s) "
            f"{np.flatnonzero(empty[c]).tolist()[:5]}; using the grand mean",
            EmptyCellWarning,
            stacklevel=stacklevel + 1,
        )


def _gram_ssq(theta, gram, span=slice(None)):
    """ssq of ``D[:, span] @ theta[span]`` as Tr(theta^H G theta), G the span's block of D^T D."""
    theta = theta[span]
    val = np.einsum("rm,rs,sm->", theta.conj(), gram[span, span], theta)
    return float(val.real)


def _cell_hats(dmatrix):
    """Stacked C x C cell hats ``q_t^T G_t q_t`` of every model term, then
    ``q^T D^T D q`` of the fitted part (see the module docstring)."""
    q = _cell_sums(dmatrix.cell_ids, dmatrix.pinv.real.T).T
    spans = [dmatrix.column_spans[t] for t in dmatrix.terms] + [slice(None)]
    return np.stack([q[s].T @ dmatrix.gram[s, s] @ q[s] for s in spans])


def _cell_scorer(x, mask, dmatrix):
    """Set up, once per test, the scorer of every model term's sum of
    squares under row permutations, read off the permuted cell means with
    the C x C cell hats ``q_t^T G_t q_t`` of :func:`_cell_hats` (see the
    module docstring) and cell-mean replacement of the masked entries.

    The total is ``sum |observed|^2 + sum (n_c - K) |mu|^2`` for the
    observed count ``K`` of each cell and variable.  With ``mask=None`` the
    data are replaced by the kernel factor ``L`` and nothing is masked: for
    the C x N cell-averaging matrix ``A_p`` of a permutation, the permuted
    cell-mean Gram ``A_p K A_p^T`` is ``(A_p L)(A_p L)^T``, and the total
    is ``Tr K = |L|^2``.  ``score(perms)`` returns the (b, n_terms) term
    sums of squares and the residual and total sums of squares of a (b, N)
    chunk; the residual is the total less the fitted part, so it can round
    below zero on an exact fit.
    """
    if mask is None:
        v = np.ascontiguousarray(x).view(np.float64)  # re/im interleaved: Re(X X^H) = v v^T
        w, v = np.linalg.eigh(v @ v.T)
        x = v * np.sqrt(np.maximum(w, 0.0))
        mask = np.zeros(x.shape, dtype=bool)
    n, m = x.shape
    cells = dmatrix.cell_ids
    sizes = np.bincount(cells)[:, None]
    n_cells = len(sizes)
    hats = _cell_hats(dmatrix).reshape(-1, n_cells * n_cells)
    observed = np.where(mask, 0.0, x)
    parts = [observed.real, observed.imag] if observed.imag.any() else [observed.real]
    k = len(parts)
    fixed = np.hstack(parts + [(~mask).astype(float)])
    grand = _grand_means(x, mask)
    grand_parts = np.stack([grand.real, grand.imag][:k])
    observed_ssq = _ssq(observed)
    # per permutation: the assignment, cell sums and counts, means, and
    # the imputed counts and squared means that weight them
    step = max(1, _CELL_CHUNK_BYTES // (8 * n_cells * (n + (3 * k + 2) * m)))

    def score(perms):
        ss = np.empty((perms.shape[0], hats.shape[0]))
        total = np.empty(perms.shape[0])
        for start in range(0, perms.shape[0], step):
            p = perms[start:start + step]
            b = p.shape[0]
            assign = np.zeros((b, n_cells, n))
            assign[np.arange(b)[:, None], cells, p] = 1.0
            sums = (assign.reshape(b * n_cells, n) @ fixed).reshape(b, n_cells, k + 1, m)
            counts = sums[:, :, k:]
            mu = np.broadcast_to(grand_parts, (b, n_cells, k, m)).copy()
            np.divide(sums[:, :, :k], counts, out=mu, where=counts > 0)
            total[start:start + b] = observed_ssq + np.einsum(
                "bcm,bckm->b", sizes - counts[:, :, 0], mu * mu)
            mu = mu.reshape(b, n_cells, k * m)
            ss[start:start + b] = (mu @ mu.transpose(0, 2, 1)).reshape(b, -1) @ hats.T
        return ss[:, :-1], total - ss[:, -1], total

    return score


def _permutation_engine(x, dmatrix, n_permutations, seed, mask):
    x = as_complex_matrix(x)
    _check_rows(x, dmatrix)
    n = x.shape[0]
    if n_permutations < 1:
        raise ConfigInvalid(f"need at least one permutation, got {n_permutations}")

    nu1 = np.array([dmatrix.dof[t] for t in dmatrix.terms], dtype=float)
    nu2 = n - dmatrix.rank
    proj, spans, gram = dmatrix.pinv, dmatrix.column_spans, dmatrix.gram

    if mask is not None:
        mask = _check_mask(x, mask)
        if not mask.any():
            mask = None
    # the rows the fit of permutation p sees; the nominal fit's p is slice(None), a view
    if mask is None:
        def rows_of(p):
            return x[p]
    else:
        _warn_empty_cells(mask, dmatrix, stacklevel=3)
        grand = _grand_means(x, mask)

        def rows_of(p):
            return _impute(x[p], mask[p], dmatrix.cell_ids, grand)

    def stats(xv):
        theta = proj @ xv
        total = _ssq(xv)
        fitted = _gram_ssq(theta, gram)
        resid = max(total - fitted, 0.0)
        ss = np.array([_gram_ssq(theta, gram, spans[t]) for t in dmatrix.terms])
        mean_ssq = _gram_ssq(theta, gram, spans[MEAN_TERM])
        return total, mean_ssq, ss, resid

    x0 = rows_of(slice(None))
    # a fit of finite values can overflow; the checks below raise on what that leaves
    with np.errstate(over="ignore", invalid="ignore"):
        total0, mean0, ss0, resid0 = stats(x0)
        # every sum of the table, percentages included, is finite if these are
        overflow = not np.isfinite(100.0 * np.array([total0, mean0, resid0, *ss0])).all()
    # a saturated design is decided first, then overflow, underflow and a zero residual
    if nu2 > 0 and overflow:
        raise NonFiniteResult("the sums of squares overflow the floating-point range")
    if nu2 > 0 and total0 < np.finfo(float).tiny and x0.any():
        raise NonFiniteResult("the sums of squares underflow the floating-point range")
    f_nom = _f_ratios(ss0, nu1, resid0, nu2)

    score = _cell_scorer(x, mask, dmatrix)
    counts = np.zeros(len(nu1), dtype=np.int64)
    n_eff = 0
    # F >= F_nom exactly when ss nu2 - F_nom nu1 resid >= 0; taken over
    # nu1 total, that margin moves by at most the window when ss and resid
    # move by KERNEL_TIE_REL total, whatever the scored F
    window = KERNEL_TIE_REL * (nu2 / nu1 + f_nom)
    for perms in _test_permutations(n, n_permutations, seed):
        ss_perm, resid, total = score(perms)
        margin = ss_perm / total[:, None] * (nu2 / nu1) - f_nom * (resid / total)[:, None]
        above = margin >= 0.0
        for i in np.flatnonzero((np.abs(margin) <= window).any(axis=1)):
            _, _, ss, r = stats(rows_of(perms[i]))
            f = np.inf if r <= 0.0 else ss / nu1 / (r / nu2)
            above[i] = f - f_nom >= -F_TIE_REL * np.maximum(np.abs(f), np.abs(f_nom))
        counts += np.count_nonzero(above, axis=0)
        n_eff += perms.shape[0]
    p_values = (counts + 1) / (n_eff + 1)

    rows = [AnovaRow("Mean", mean0, 100.0 * mean0 / total0, 1, mean0)]
    for t, s, f, p in zip(dmatrix.terms, ss0.tolist(), f_nom.tolist(), p_values.tolist()):
        df = dmatrix.dof[t]
        rows.append(AnovaRow(t, s, 100.0 * s / total0, df, s / df, f=f, p_value=p))
    rows.append(AnovaRow("Residuals", resid0, 100.0 * resid0 / total0, nu2, resid0 / nu2))
    rows.append(AnovaRow("Total", total0, 100.0, n, total0 / n))
    return AnovaTable(rows=tuple(rows), n_permutations=n_eff)


def permutation_test(x, dmatrix, n_permutations=1000, seed=0):
    """Row-permutation F-tests for every model term.

    Each term's permuted F is compared against its nominal value.
    The permuted sums of squares are read off the permuted cell means of a
    factor of the row kernel ``Re(X X^H)`` (see the module docstring) and give
    the counts of a full refit under every permutation.  Enumeration replaces sampling whenever
    ``n_permutations`` covers all non-identity permutations of the rows.
    """
    return _permutation_engine(x, dmatrix, n_permutations, seed, mask=None)


def pcmr_permutation_test(x, mask, dmatrix, n_permutations=1000, seed=0):
    """Permutation F-tests of every model term with cell-mean replacement
    of missing entries.

    The mask travels with the permuted rows while the design stays fixed,
    so every iteration re-imputes each missing entry with the mean of the
    observed entries currently occupying its design cell.  The permuted
    sums of squares are read off the permuted cell means (see the module
    docstring) and give the counts of re-imputing and refitting
    every permutation.  With an all-false mask the result is identical to
    :func:`permutation_test`.
    """
    return _permutation_engine(x, dmatrix, n_permutations, seed, mask=mask)
