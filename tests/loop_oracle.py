"""Reference permutation engine: one full refit per permutation.

This is the straightforward loop the kernel engine in ``fftasca.glm``
replaced, kept as a test oracle.  Every permutation refits the whole model
through the pseudoinverse and recomputes every sum of squares from the
permuted data, so its counts define the p-values the kernel engine must
reproduce exactly.
"""

import itertools
import math
import warnings

import numpy as np

from fftasca.design import MEAN_TERM, permute_rows
from fftasca.errors import RankWarning, ZeroResidual
from fftasca.glm import AnovaRow, AnovaTable, impute_cell_means
from fftasca.linalg import as_complex_matrix, numerical_rank, pinv, ssq

F_TIE_REL = 1e-12


def _gram_ssq(theta, gram):
    val = np.einsum("rm,rs,sm->", theta.conj(), gram, theta)
    return float(val.real)


def _impute(x, mask, cell_rows, grand_means):
    out = x.copy()
    observed = np.where(mask, 0.0, x)
    for rows in cell_rows:
        cell_mask = mask[rows]
        if not cell_mask.any():
            continue
        counts = (~cell_mask).sum(axis=0)
        sums = observed[rows].sum(axis=0)
        means = np.divide(sums, counts, out=grand_means.astype(x.dtype, copy=True),
                          where=counts > 0)
        block = out[rows]
        block[cell_mask] = np.broadcast_to(means, block.shape)[cell_mask]
        out[rows] = block
    return out


def _grand_means(x, mask):
    counts = (~mask).sum(axis=0)
    sums = np.where(mask, 0.0, x).sum(axis=0)
    return np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)


def loop_permutation_test(x, dmatrix, n_permutations=1000, seed=0, mask=None):
    """Row-permutation F-tests by refitting under every permutation."""
    x = as_complex_matrix(x)
    n = x.shape[0]
    d = dmatrix.matrix
    all_terms = dmatrix.terms

    rank = numerical_rank(d)
    if rank < d.shape[1]:
        warnings.warn("design matrix is column-rank deficient", RankWarning)
    nu2 = n - rank
    proj = pinv(d)
    spans = dmatrix.column_spans
    gram_full = d.T @ d
    grams = {t: d[:, spans[t]].T @ d[:, spans[t]] for t in spans}

    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        cell_rows = [np.flatnonzero(dmatrix.cell_ids == c)
                     for c in range(int(dmatrix.cell_ids.max()) + 1)]
        grand = _grand_means(x, mask)

    def stats(xv):
        # the engine's product, so its theta bit for bit: another order of
        # the same sums can differ in the last bit
        theta = proj @ xv
        total = ssq(xv)
        fitted = _gram_ssq(theta, gram_full)
        resid = max(total - fitted, 0.0)
        per_term = {t: _gram_ssq(theta[spans[t]], grams[t]) for t in all_terms}
        mean_ssq = _gram_ssq(theta[spans[MEAN_TERM]], grams[MEAN_TERM])
        return total, mean_ssq, per_term, resid

    x0 = x if mask is None else impute_cell_means(x, mask, dmatrix, warn_empty=True)
    total0, mean0, term_ssq0, resid0 = stats(x0)
    if resid0 == 0.0:
        raise ZeroResidual("residual sum of squares is zero (saturated model)")
    f_nominal = {
        t: (term_ssq0[t] / dmatrix.dof[t]) / (resid0 / nu2) for t in all_terms
    }

    if math.factorial(n) - 1 <= n_permutations:
        # every permutation but the identity, which itertools yields first; enumerated
        # here, not by the engine, so that a fault in its enumeration is not repeated
        perms = np.array(list(itertools.permutations(range(n)))[1:], dtype=np.intp)
    else:
        perms = permute_rows(n, n_permutations, seed=seed)
    n_eff = perms.shape[0]

    f_perm = np.empty((n_eff, len(all_terms)))
    for i in range(n_eff):
        xp = x[perms[i]]
        if mask is not None:
            xp = _impute(xp, mask[perms[i]], cell_rows, grand)
        _, _, per_term, resid = stats(xp)
        for j, t in enumerate(all_terms):
            f_perm[i, j] = (per_term[t] / dmatrix.dof[t]) / (resid / nu2) \
                if resid > 0.0 else np.inf

    p_values = {}
    for j, t in enumerate(all_terms):
        f_nom = f_nominal[t]
        tie = F_TIE_REL * np.maximum(np.abs(f_perm[:, j]), abs(f_nom))
        count = int(np.count_nonzero(f_perm[:, j] - f_nom >= -tie))
        p_values[t] = (count + 1) / (n_eff + 1)

    rows = [AnovaRow("Mean", mean0, 100.0 * mean0 / total0, 1, mean0)]
    for t in all_terms:
        s = term_ssq0[t]
        nu1 = dmatrix.dof[t]
        rows.append(AnovaRow(t, s, 100.0 * s / total0, nu1, s / nu1,
                             f=f_nominal[t], p_value=p_values[t]))
    rows.append(AnovaRow("Residuals", resid0, 100.0 * resid0 / total0,
                         nu2, resid0 / nu2 if nu2 > 0 else 0.0))
    rows.append(AnovaRow("Total", total0, 100.0, n, total0 / n))
    return AnovaTable(rows=tuple(rows), n_permutations=n_eff)
