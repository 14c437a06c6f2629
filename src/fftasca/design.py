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

from .errors import (
    ConfigInvalid,
    DegenerateFactor,
    DimensionMismatch,
    InvalidTerm,
    RankWarning,
    UnbalancedDesignWarning,
)
from .linalg import pinv_from_svd, rank_from_singular_values, svd

__all__ = [
    "Factor",
    "DesignSpec",
    "DesignMatrix",
    "DistinctRows",
    "encode",
    "is_balanced",
    "permute_rows",
    "MAX_PERMUTATIONS",
    "interaction_name",
    "term_filename",
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

    Interactions are pairs of 0-based factor indices.  Each factor name
    names a term of its own: it is non-empty and unique, it is not
    ``mean`` or a row of the ANOVA table, and it holds no ``:`` (which
    joins the names of an interaction) and no ``/``, ``\\`` or NUL (it
    is part of artifact file names).  It is at most 100 UTF-8 bytes long,
    so that the longest artifact name, ``loadings_time_<a>_x_<b>.svg``,
    stays within the 255-byte file-name limit.  No pair is given twice,
    in either order, and no two terms share a :func:`term_filename`.
    """

    factors: tuple
    interactions: tuple = ()

    def __post_init__(self):
        if not self.factors:
            raise DegenerateFactor("a design needs at least one factor")
        n = self.factors[0].n_samples
        seen = set()
        for f in self.factors:
            if f.n_samples != n:
                raise DimensionMismatch(
                    f"factor '{f.name}' has {f.n_samples} samples, expected {n}"
                )
            bad = sorted(set(f.name) & set(":/\\\0"))
            problem = ("is empty" if not f.name
                       else "is repeated" if f.name in seen
                       else "is reserved" if f.name in (MEAN_TERM, "Mean", "Residuals", "Total")
                       else f"contains {bad[0]!r}" if bad
                       else "is longer than 100 UTF-8 bytes" if len(f.name.encode()) > 100
                       else None)
            if problem:
                raise InvalidTerm(f"factor name {f.name!r} {problem}")
            seen.add(f.name)
        pairs = set()
        for i, j in self.interactions:
            if i == j:
                raise DimensionMismatch("interaction pairs must name two distinct factors")
            if not (0 <= i < len(self.factors) and 0 <= j < len(self.factors)):
                raise DimensionMismatch(f"interaction ({i}, {j}) references a missing factor")
            if frozenset((i, j)) in pairs:
                raise InvalidTerm(f"interaction {interaction_name(self, (i, j))!r} is repeated")
            pairs.add(frozenset((i, j)))
        stems = {}
        for term in self.term_factors:
            stem = term_filename(term)
            if stems.setdefault(stem, term) != term:
                raise InvalidTerm(f"terms {stems[stem]!r} and {term!r} would both name "
                                  f"their artifact files {stem!r}")

    @property
    def n_samples(self):
        return self.factors[0].n_samples

    @functools.cached_property
    def cells(self):
        """:class:`DistinctRows` of the samples' cells in the full factor cross."""
        return DistinctRows.of(np.array([f.labels for f in self.factors]).T)

    @functools.cached_property
    def term_factors(self):
        """Factor indices of each model term, in column order: ``(k,)`` for
        the main effect of factor ``k``, ``(i, j)`` for an interaction."""
        terms = {f.name: (k,) for k, f in enumerate(self.factors)}
        terms.update((interaction_name(self, pair), tuple(pair)) for pair in self.interactions)
        return terms

    def factor_index(self, name):
        for k, f in enumerate(self.factors):
            if f.name == name:
                return k
        raise KeyError(name)


def interaction_name(spec, pair):
    i, j = pair
    return f"{spec.factors[i].name}:{spec.factors[j].name}"


def term_filename(term):
    """The stem of a term's artifact file names: ``a:b`` becomes ``a_x_b``."""
    return term.replace(":", "_x_")


def _coding_columns(factor):
    """Sum-to-zero coding columns for one factor (n x (L-1))."""
    labels = np.asarray(factor.labels)
    # not np.unique: its 1-D path imports numpy.ma, which nothing else loads
    levels = factor.observed_levels()
    if len(levels) < 2:
        raise DegenerateFactor(f"factor '{factor.name}' has a single observed level")
    cols = np.zeros((labels.size, len(levels) - 1))
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
    assigns every sample the index of its cell in the full factor cross
    (the ``inverse`` of ``spec.cells``), which drives cell-mean imputation.
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
    def gram(self):
        """``D^T D``, whose diagonal blocks are the terms' Grams ``D_t^T D_t``."""
        return self.matrix.T @ self.matrix

    @functools.cached_property
    def distinct_rows(self):
        """:class:`DistinctRows` of each term's coding columns, by term.

        A term's effect ``D_t theta_t`` repeats a row wherever ``D_t``
        does, so the index describes the effect as well: one distinct row
        per level for a factor, at most one per cell for an interaction.
        """
        return {t: DistinctRows.of(self.columns_for(t)) for t in self.terms}


def encode(spec):
    """Encode a DesignSpec into its sum-to-zero coding matrix, warning once
    if the design is unbalanced and once if it is column-rank deficient.

    Raises
    ------
    DegenerateFactor
        If any factor has a single observed level.
    """
    n = spec.n_samples
    blocks = [np.ones((n, 1))]
    spans = {MEAN_TERM: slice(0, 1)}
    start = 1
    coding = [_coding_columns(f) for f in spec.factors]
    for term, parents in spec.term_factors.items():
        cols = coding[parents[0]]
        for k in parents[1:]:
            # face-splitting product: every pairwise elementwise product of
            # the parent coding columns
            cols = (cols[:, :, None] * coding[k][:, None, :]).reshape(n, -1)
        blocks.append(cols)
        spans[term] = slice(start, start + cols.shape[1])
        start += cols.shape[1]

    dmatrix = DesignMatrix(
        matrix=np.hstack(blocks),
        column_spans=spans,
        dof={t: span.stop - span.start for t, span in spans.items()},
        cell_ids=spec.cells.inverse,
        spec=spec,
    )
    if not is_balanced(spec):
        warnings.warn(
            "design is unbalanced; effect sums of squares will not partition "
            "additively and the fit relies on the pseudoinverse",
            UnbalancedDesignWarning,
            stacklevel=2,
        )
    if dmatrix.rank < dmatrix.matrix.shape[1]:
        warnings.warn("design matrix is column-rank deficient; fitting by pseudoinverse",
                      RankWarning, stacklevel=2)
    return dmatrix


def is_balanced(spec):
    """True iff every cell of the full factor cross has the same count."""
    counts = spec.cells.counts
    # every combination that occurs must occur equally often, and the full
    # cross must be present
    n_cells_full = math.prod(len(f.observed_levels()) for f in spec.factors)
    return counts.size == n_cells_full and bool(np.all(counts == counts[0]))


# SeedSequence's hash constants (numpy.random.bit_generator) and PCG64's
# 128-bit LCG multiplier (O'Neill 2014, HMC-CS-2014-0905)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1

# permutation i is seeded with the spawn key (i,), one 32-bit word per index
MAX_PERMUTATIONS = _MASK32
_SEED_CHUNK = 4096


def _hash32(values, hash_const, mult):
    """SeedSequence's hash of the 32-bit ``values`` (held in uint64, where
    the product of two 32-bit words is exact), and the advanced constant."""
    values = values ^ np.uint64(hash_const)
    hash_const = hash_const * mult & _MASK32
    values = values * np.uint64(hash_const) & np.uint64(_MASK32)
    return values ^ (values >> np.uint64(16)), hash_const


def _pcg64_seeds(seed, start, stop):
    """``generate_state(4, uint64)`` of ``SeedSequence(seed, spawn_key=(i,))``
    for every ``i`` in ``range(start, stop)``, as an array of 4-word rows.

    The pool after mixing the seed words is the pool of
    ``SeedSequence(seed)``, and the hash constant has then advanced once per
    mix: 16 times, plus 4 times per seed word beyond the fourth.  Mixing in
    the one spawn word and drawing the state are vectorized over ``i``.
    """
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)
    words = max(1, -(-seed.bit_length() // 32))
    hash_const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - 4), 1 << 32) & _MASK32
    index = np.arange(start, stop, dtype=np.uint64)
    mixer = []
    for word in pool:
        hashed, hash_const = _hash32(index, hash_const, _MULT_A)
        mixed = (np.uint64(_MIX_L) * word - np.uint64(_MIX_R) * hashed) & np.uint64(_MASK32)
        mixer.append(mixed ^ (mixed >> np.uint64(16)))
    state, hash_const = [], _INIT_B
    for j in range(8):
        hashed, hash_const = _hash32(mixer[j % 4], hash_const, _MULT_B)
        state.append(hashed)
    return np.stack([state[k] | (state[k + 1] << np.uint64(32)) for k in range(0, 8, 2)],
                    axis=1)


def _draw_stream(n, count, seed):
    """``Generator(PCG64(SeedSequence(seed, spawn_key=(i,)))).permutation(n)``
    for every ``i < count``, drawn by one reused generator and yielded in
    chunks of at most ``_SEED_CHUNK`` rows.

    PCG64 seeds itself from the words ``(s_hi, s_lo, i_hi, i_lo)`` by
    ``srandom``: ``inc = 2 * (i_hi:i_lo) + 1`` and two LCG steps from 0
    with ``s_hi:s_lo`` added between them.  Setting that state, and
    shuffling a row that holds ``range(n)``, draws the permutation of a
    freshly seeded generator.
    """
    if not 0 <= count <= MAX_PERMUTATIONS:
        raise ConfigInvalid(f"permutation count must lie in [0, {MAX_PERMUTATIONS}], got {count}")
    gen = np.random.Generator(np.random.PCG64())
    bit_generator = gen.bit_generator
    for start in range(0, count, _SEED_CHUNK):
        rows = np.tile(np.arange(n, dtype=np.intp), (min(_SEED_CHUNK, count - start), 1))
        seeds = _pcg64_seeds(int(seed), start, start + rows.shape[0]).tolist()
        for row, (s_hi, s_lo, i_hi, i_lo) in zip(rows, seeds):
            inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
            bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
            gen.shuffle(row)
        yield rows


def _test_permutations(n, count, seed):
    """The permutations that a test of ``count`` permutations of
    ``range(n)`` scores, in chunks of at most ``_SEED_CHUNK`` rows: every
    non-identity permutation once, in ``itertools.permutations`` order,
    when ``count`` covers all ``n! - 1``; else :func:`_draw_stream`'s.
    """
    if math.factorial(n) - 1 <= count:
        entries = itertools.chain.from_iterable(
            itertools.islice(itertools.permutations(range(n)), 1, None))
        while (chunk := np.fromiter(itertools.islice(entries, _SEED_CHUNK * n), np.intp)).size:
            yield chunk.reshape(-1, n)
    else:
        yield from _draw_stream(n, count, seed)


def permute_rows(n, count, seed=0, exhaustive=False):
    """Permutations of ``range(n)`` as a (count, n) integer array.

    With ``exhaustive=True`` all ``n!`` permutations are returned exactly
    once, in ``itertools.permutations`` order (``count`` and ``seed`` are
    ignored).  Otherwise ``count`` uniformly random permutations are
    drawn: permutation ``i`` is that of
    ``Generator(PCG64(SeedSequence(seed, spawn_key=(i,))))``, so it depends
    only on ``(seed, i)`` and any element of the stream can be regenerated
    without the preceding ones.  ``count`` must lie in
    ``[0, MAX_PERMUTATIONS]``.  The array is allocated once and filled a
    chunk at a time, so an oversized request fails at that allocation.
    """
    if n < 1:
        raise DimensionMismatch("need at least one row to permute")
    if exhaustive:
        count = math.factorial(n)
        chunks = itertools.chain([np.arange(n)[None]], _test_permutations(n, count - 1, seed))
    elif 0 <= count <= MAX_PERMUTATIONS:
        chunks = _draw_stream(n, count, seed)
    else:
        raise ConfigInvalid(f"permutation count must lie in [0, {MAX_PERMUTATIONS}], got {count}")
    out = np.empty((count, n), dtype=np.intp)
    start = 0
    for chunk in chunks:
        out[start:start + len(chunk)] = chunk
        start += len(chunk)
    return out
