"""Experimental design encoding and permutation streams.

Factors are categorical with integer level labels.  Encoding uses
sum-to-zero coding: an L-level factor contributes L-1 columns, column j
holding +1 for level j, -1 for the last level and 0 otherwise.  Interaction
columns are the row-wise (face-splitting) products of the parent factors'
coding columns.  For balanced designs the column blocks of distinct terms
are mutually orthogonal, which is what makes the effect sums of squares
partition additively.
"""

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFactor, DimensionMismatch, UnbalancedDesignWarning
from .linalg import pinv_from_svd, rank_from_singular_values, svd

__all__ = [
    "Factor",
    "DesignSpec",
    "DesignMatrix",
    "DistinctRows",
    "encode",
    "is_balanced",
    "permute_rows",
    "interaction_name",
]

MEAN_TERM = "mean"


@dataclass(frozen=True)
class Factor:
    """A named categorical factor with one integer level label per sample.

    ``level_names`` optionally maps label values to display strings (used
    for plot legends); it plays no role in the encoding.
    """

    name: str
    labels: tuple
    level_names: dict = None

    @staticmethod
    def from_labels(name, labels, level_names=None):
        return Factor(name=name, labels=tuple(int(v) for v in labels),
                      level_names=level_names)

    @property
    def n_samples(self):
        return len(self.labels)

    def observed_levels(self):
        return sorted(set(self.labels))


@dataclass(frozen=True)
class DesignSpec:
    """Declared factors plus the interaction pairs to model.

    Interactions are pairs of 0-based factor indices.
    """

    factors: tuple
    interactions: tuple = ()

    def __post_init__(self):
        if not self.factors:
            raise DegenerateFactor("a design needs at least one factor")
        n = self.factors[0].n_samples
        for f in self.factors:
            if f.n_samples != n:
                raise DimensionMismatch(
                    f"factor '{f.name}' has {f.n_samples} samples, expected {n}"
                )
        for i, j in self.interactions:
            if i == j:
                raise DimensionMismatch("interaction pairs must name two distinct factors")
            if not (0 <= i < len(self.factors) and 0 <= j < len(self.factors)):
                raise DimensionMismatch(f"interaction ({i}, {j}) references a missing factor")

    @property
    def n_samples(self):
        return self.factors[0].n_samples

    def factor_index(self, name):
        for k, f in enumerate(self.factors):
            if f.name == name:
                return k
        raise KeyError(name)


def interaction_name(spec, pair):
    i, j = pair
    return f"{spec.factors[i].name}:{spec.factors[j].name}"


def _coding_columns(labels):
    """Sum-to-zero coding columns for one factor (n x (L-1))."""
    labels = np.asarray(labels)
    levels = np.unique(labels)
    cols = np.zeros((labels.size, levels.size - 1))
    for j, lev in enumerate(levels[:-1]):
        cols[labels == lev, j] = 1.0
    cols[labels == levels[-1], :] = -1.0
    return cols


@dataclass(frozen=True)
class DistinctRows:
    """Distinct-row index of an N-row matrix with U distinct rows.

    Row ``i`` equals distinct row ``inverse[i]``; distinct row ``k`` first
    occurs at row ``first[k]`` and occurs ``counts[k]`` times.  With the
    N x U indicator ``G`` of ``inverse`` the matrix is ``G @ matrix[first]``
    and ``G^T G = diag(counts)``.
    """

    first: np.ndarray
    inverse: np.ndarray
    counts: np.ndarray

    @staticmethod
    def of(matrix):
        """Index of the exactly equal rows of ``matrix``."""
        _, first, inverse, counts = np.unique(
            matrix, axis=0, return_index=True, return_inverse=True, return_counts=True)
        return DistinctRows(first=first, inverse=inverse.reshape(-1), counts=counts)

    @staticmethod
    def all_distinct(n):
        """Index of an n-row matrix taken as having no repeated rows."""
        rows = np.arange(n)
        return DistinctRows(first=rows, inverse=rows, counts=np.ones(n, dtype=np.intp))


@dataclass(frozen=True)
class DesignMatrix:
    """Encoded design: the N x F coding matrix plus term bookkeeping.

    ``column_spans`` maps each term name (``"mean"``, a factor name, or
    ``"a:b"`` for an interaction) to its contiguous column range in
    ``matrix``; ``dof`` holds each term's degrees of freedom.  ``cell_ids``
    assigns every sample the index of its cell in the full factor cross,
    which drives both the balance check and cell-mean imputation.
    """

    matrix: np.ndarray
    column_spans: dict
    dof: dict
    cell_ids: np.ndarray
    spec: DesignSpec = field(repr=False, default=None)

    @property
    def n_samples(self):
        return self.matrix.shape[0]

    @property
    def terms(self):
        """Model terms in order, excluding the mean."""
        return [t for t in self.column_spans if t != MEAN_TERM]

    def columns_for(self, term):
        span = self.column_spans[term]
        return self.matrix[:, span]

    # derived once per design and cached; ``rank`` and ``pinv`` share this SVD
    @functools.cached_property
    def _svd(self):
        return svd(self.matrix)

    @functools.cached_property
    def rank(self):
        """Numerical rank of ``matrix``, as :func:`linalg.numerical_rank`."""
        return rank_from_singular_values(self._svd.s, self.matrix.shape)

    @functools.cached_property
    def pinv(self):
        """Pseudoinverse of ``matrix``, as :func:`linalg.pinv`."""
        return pinv_from_svd(self._svd, self.matrix.shape)

    @functools.cached_property
    def cell_rows(self):
        """Row indices of each cell, indexed by cell id."""
        return tuple(np.flatnonzero(self.cell_ids == c)
                     for c in range(int(self.cell_ids.max()) + 1))

    @functools.cached_property
    def distinct_rows(self):
        """:class:`DistinctRows` of each term's coding columns, by term.

        A term's effect ``D_t theta_t`` repeats a row wherever ``D_t``
        does, so the index describes the effect as well: one distinct row
        per level for a factor, at most one per cell for an interaction.
        """
        return {t: DistinctRows.of(self.columns_for(t)) for t in self.terms}


def encode(spec):
    """Encode a DesignSpec into its sum-to-zero coding matrix.

    Raises
    ------
    DegenerateFactor
        If any factor has a single observed level.
    """
    n = spec.n_samples
    blocks = [np.ones((n, 1))]
    spans = {MEAN_TERM: slice(0, 1)}
    dof = {MEAN_TERM: 1}
    start = 1

    factor_blocks = []
    for f in spec.factors:
        levels = f.observed_levels()
        if len(levels) < 2:
            raise DegenerateFactor(f"factor '{f.name}' has a single observed level")
        cols = _coding_columns(f.labels)
        factor_blocks.append(cols)
        blocks.append(cols)
        spans[f.name] = slice(start, start + cols.shape[1])
        dof[f.name] = cols.shape[1]
        start += cols.shape[1]

    for pair in spec.interactions:
        a, b = factor_blocks[pair[0]], factor_blocks[pair[1]]
        # face-splitting product: every pairwise elementwise product of the
        # parent coding columns
        cols = (a[:, :, None] * b[:, None, :]).reshape(n, -1)
        name = interaction_name(spec, pair)
        blocks.append(cols)
        spans[name] = slice(start, start + cols.shape[1])
        dof[name] = cols.shape[1]
        start += cols.shape[1]

    level_matrix = np.array([f.labels for f in spec.factors]).T
    _, cell_ids = np.unique(level_matrix, axis=0, return_inverse=True)

    if not is_balanced(spec):
        warnings.warn(
            "design is unbalanced; effect sums of squares will not partition "
            "additively and the fit relies on the pseudoinverse",
            UnbalancedDesignWarning,
            stacklevel=2,
        )

    return DesignMatrix(
        matrix=np.hstack(blocks),
        column_spans=spans,
        dof=dof,
        cell_ids=cell_ids.astype(np.intp),
        spec=spec,
    )


def is_balanced(spec):
    """True iff every cell of the full factor cross has the same count."""
    level_matrix = np.array([f.labels for f in spec.factors]).T
    _, counts = np.unique(level_matrix, axis=0, return_counts=True)
    # every combination that occurs must occur equally often, and the full
    # cross must be present
    n_cells_full = math.prod(len(f.observed_levels()) for f in spec.factors)
    return counts.size == n_cells_full and bool(np.all(counts == counts[0]))


def _rng_for(seed, index):
    """Independent generator for permutation ``index`` of a seeded stream."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.PCG64(ss))


def permute_rows(n, count, seed=0, exhaustive=False):
    """Permutations of ``range(n)`` as a (count, n) integer array.

    With ``exhaustive=True`` all ``n!`` permutations are returned exactly
    once (``count`` and ``seed`` are ignored).  Otherwise ``count``
    uniformly random permutations are drawn; permutation ``i`` depends only
    on ``(seed, i)``, so any element of the stream can be regenerated
    without the preceding ones.
    """
    if n < 1:
        raise DimensionMismatch("need at least one row to permute")
    if exhaustive:
        return np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    out = np.empty((count, n), dtype=np.intp)
    for i in range(count):
        out[i] = _rng_for(seed, i).permutation(n)
    return out
