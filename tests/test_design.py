import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fftasca import design
from fftasca.design import (
    MAX_PERMUTATIONS,
    DesignSpec,
    Factor,
    encode,
    is_balanced,
    permute_rows,
)
from fftasca.errors import (
    ConfigInvalid,
    DegenerateFactor,
    DimensionMismatch,
    InvalidTerm,
    UnbalancedDesignWarning,
)
from fftasca.linalg import numerical_rank, pinv
from stream_oracle import permutation_stream


def two_by_two(reps=3, interaction=True):
    n = 4 * reps
    a = Factor.from_labels("a", [0] * (2 * reps) + [1] * (2 * reps))
    b = Factor.from_labels("b", ([0] * reps + [1] * reps) * 2)
    inter = ((0, 1),) if interaction else ()
    return DesignSpec(factors=(a, b), interactions=inter), n


class TestEncode:
    def test_two_level_factor_balanced(self):
        f = Factor.from_labels("g", [0, 0, 1, 1])
        dm = encode(DesignSpec(factors=(f,)))
        expected = np.array([[1, 1], [1, 1], [1, -1], [1, -1]], dtype=float)
        assert np.array_equal(dm.matrix, expected)
        assert dm.dof == {"mean": 1, "g": 1}
        assert list(dm.column_spans) == ["mean", "g"]

    def test_design_without_factors_is_rejected(self):
        with pytest.raises(DegenerateFactor, match="at least one factor"):
            DesignSpec(factors=())

    def test_first_column_is_intercept(self):
        spec, _ = two_by_two()
        dm = encode(spec)
        assert np.array_equal(dm.matrix[:, 0], np.ones(dm.n_samples))

    def test_interaction_is_elementwise_product_and_orthogonal(self):
        spec, _ = two_by_two(reps=2)
        dm = encode(spec)
        col_a = dm.columns_for("a")[:, 0]
        col_b = dm.columns_for("b")[:, 0]
        col_ab = dm.columns_for("a:b")[:, 0]
        assert np.array_equal(col_ab, col_a * col_b)
        gram = dm.matrix.T @ dm.matrix
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-12

    def test_three_level_factor_coding(self):
        f = Factor.from_labels("t", [0, 0, 1, 1, 2, 2])
        dm = encode(DesignSpec(factors=(f,)))
        cols = dm.columns_for("t")
        assert cols.shape == (6, 2)
        assert np.allclose(cols.sum(axis=0), 0.0, atol=1e-12)
        assert np.linalg.matrix_rank(cols) == 2
        assert dm.dof["t"] == 2

    def test_interaction_dof(self):
        a = Factor.from_labels("a", [0, 0, 1, 1, 2, 2] * 2)
        b = Factor.from_labels("b", [0] * 6 + [1] * 6)
        dm = encode(DesignSpec(factors=(a, b), interactions=((0, 1),)))
        assert dm.dof["a:b"] == 2  # (3-1)*(2-1)

    def test_single_level_factor_rejected(self):
        f = Factor.from_labels("g", [0, 0, 0])
        with pytest.raises(DegenerateFactor):
            encode(DesignSpec(factors=(f,)))

    def test_mismatched_sample_counts_rejected(self):
        a = Factor.from_labels("a", [0, 1])
        b = Factor.from_labels("b", [0, 1, 0])
        with pytest.raises(DimensionMismatch):
            DesignSpec(factors=(a, b))

    def test_bad_interaction_pair_rejected(self):
        a = Factor.from_labels("a", [0, 1])
        with pytest.raises(DimensionMismatch):
            DesignSpec(factors=(a,), interactions=((0, 0),))
        with pytest.raises(DimensionMismatch):
            DesignSpec(factors=(a,), interactions=((0, 3),))

    @pytest.mark.parametrize("names, message", [
        (("a", "a"), "'a' is repeated"), (("",), "'' is empty"), (("mean",), "'mean' is reserved"),
        (("Mean",), "'Mean' is reserved"), (("Residuals",), "'Residuals' is reserved"),
        (("Total",), "'Total' is reserved"), (("a:b",), "'a:b' contains ':'"),
        (("a/x",), "'a/x' contains '/'"), (("a\\x",), "contains '\\\\'"),
        (("a\0",), "contains '\\x00'"),
    ])
    def test_factor_name_that_cannot_name_a_term_rejected(self, names, message):
        factors = tuple(Factor.from_labels(name, [0, 1]) for name in names)
        with pytest.raises(InvalidTerm, match=re.escape(message)):
            DesignSpec(factors=factors)

    @pytest.mark.parametrize("name, ok", [
        ("a" * 100, True), ("a" * 101, False),
        ("é" * 50, True), ("é" * 50 + "a", False), ("é" * 51, False),
    ], ids=["100 bytes", "101 bytes", "100 bytes in 50 chars", "101 bytes in 51 chars",
            "102 bytes in 51 chars"])
    def test_factor_name_bound_counts_utf8_bytes(self, name, ok):
        factors = (Factor.from_labels(name, [0, 1]),)
        if ok:
            assert DesignSpec(factors=factors).factors[0].name == name
        else:
            with pytest.raises(InvalidTerm, match="is longer than 100 UTF-8 bytes"):
                DesignSpec(factors=factors)

    @pytest.mark.parametrize("pairs", [((0, 1), (0, 1)), ((0, 1), (1, 0))])
    def test_repeated_interaction_rejected(self, pairs):
        a, b = Factor.from_labels("a", [0, 1]), Factor.from_labels("b", [0, 1])
        with pytest.raises(InvalidTerm, match="interaction '(a:b|b:a)' is repeated"):
            DesignSpec(factors=(a, b), interactions=pairs)

    @pytest.mark.parametrize("names, pairs, message", [
        (("a", "b", "a_x_b"), ((0, 1),), "terms 'a_x_b' and 'a:b' would both name"),
        (("a", "b_x_c", "a_x_b", "c"), ((0, 1), (2, 3)),
         "terms 'a:b_x_c' and 'a_x_b:c' would both name their artifact files 'a_x_b_x_c'"),
    ])
    def test_terms_sharing_a_file_name_stem_rejected(self, names, pairs, message):
        factors = tuple(Factor.from_labels(name, [0, 1]) for name in names)
        assert DesignSpec(factors=factors).term_factors
        with pytest.raises(InvalidTerm, match=re.escape(message)):
            DesignSpec(factors=factors, interactions=pairs)

    def test_term_factors_follow_the_column_order(self):
        a = Factor.from_labels("a", [0, 0, 1, 1, 2, 2] * 2)
        b = Factor.from_labels("b", [0] * 6 + [1] * 6)
        c = Factor.from_labels("c", [0, 1] * 6)
        spec = DesignSpec(factors=(a, b, c), interactions=((2, 0), (0, 1)))
        assert spec.term_factors == {"a": (0,), "b": (1,), "c": (2,), "c:a": (2, 0),
                                     "a:b": (0, 1)}
        dm = encode(spec)
        assert dm.terms == list(spec.term_factors)
        assert np.array_equal(dm.columns_for("c:a")[:, 0],
                              dm.columns_for("c")[:, 0] * dm.columns_for("a")[:, 0])

    def test_balanced_blocks_mutually_orthogonal(self):
        spec, _ = two_by_two(reps=3)
        dm = encode(spec)
        terms = ["mean", "a", "b", "a:b"]
        for t1, t2 in itertools.combinations(terms, 2):
            cross = dm.matrix[:, dm.column_spans[t1]].T @ dm.matrix[:, dm.column_spans[t2]]
            assert np.max(np.abs(cross)) < 1e-12

    def test_relabeling_preserves_column_spaces(self):
        labels = [0, 0, 1, 1, 2, 2, 0, 1, 2]
        relabeled = [7, 7, 3, 3, 5, 5, 7, 3, 5]  # same partition, new ids
        dm1 = encode(DesignSpec(factors=(Factor.from_labels("t", labels),)))
        dm2 = encode(DesignSpec(factors=(Factor.from_labels("t", relabeled),)))
        for dm_pair in ((dm1, dm2),):
            b1 = dm_pair[0].columns_for("t").astype(complex)
            b2 = dm_pair[1].columns_for("t").astype(complex)
            p1 = b1 @ pinv(b1)
            p2 = b2 @ pinv(b2)
            assert np.max(np.abs(p1 - p2)) < 1e-10

    def test_cell_ids_index_full_cross(self):
        spec, n = two_by_two(reps=3)
        dm = encode(spec)
        assert dm.cell_ids.shape == (n,)
        assert len(set(dm.cell_ids.tolist())) == 4


def _unbalanced_with_interaction():
    a = Factor.from_labels("a", [0, 0, 0, 0, 1, 1, 1, 2, 2, 2])
    b = Factor.from_labels("b", [0, 1, 0, 1, 0, 1, 1, 0, 1, 1])
    return DesignSpec(factors=(a, b), interactions=((0, 1),))


def _rank_deficient():
    a = Factor.from_labels("a", [0, 0, 1, 1, 0, 1])
    b = Factor.from_labels("b", [0, 0, 1, 1, 0, 1])  # duplicates a
    return DesignSpec(factors=(a, b), interactions=((0, 1),))


class TestPreparedDesign:
    @pytest.mark.parametrize("make_spec", [
        lambda: two_by_two(reps=3)[0], _unbalanced_with_interaction, _rank_deficient,
    ])
    def test_rank_pinv_and_cells_match_the_direct_computation(self, make_spec):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnbalancedDesignWarning)
            dm = encode(make_spec())
        assert dm.rank == numerical_rank(dm.matrix)
        expected = pinv(dm.matrix)
        assert (dm.pinv.dtype, dm.pinv.shape) == (expected.dtype, expected.shape)
        assert dm.pinv.tobytes() == expected.tobytes()
        levels = np.array([f.labels for f in dm.spec.factors]).T
        _, cells = np.unique(levels, axis=0, return_inverse=True)
        assert dm.cell_ids.dtype == np.intp
        assert dm.cell_ids.tolist() == cells.reshape(-1).tolist()

    @pytest.mark.parametrize("make_spec", [
        lambda: two_by_two(reps=3)[0], _unbalanced_with_interaction, _rank_deficient,
    ])
    def test_gram_is_computed_once_and_holds_every_term_gram(self, make_spec):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnbalancedDesignWarning)
            dm = encode(make_spec())
        d = dm.matrix
        assert dm.gram is dm.gram
        assert dm.gram.tobytes() == (d.T @ d).tobytes()
        for span in dm.column_spans.values():
            block = np.ascontiguousarray(dm.gram[span, span])
            assert block.tobytes() == (d[:, span].T @ d[:, span]).tobytes()


class TestIsBalanced:
    def test_balanced_two_by_two(self):
        spec, _ = two_by_two(reps=3)
        assert is_balanced(spec)

    def test_uneven_cells(self):
        a = Factor.from_labels("a", [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
        b = Factor.from_labels("b", [0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1])
        assert not is_balanced(DesignSpec(factors=(a, b)))

    def test_single_factor_unequal_levels(self):
        f = Factor.from_labels("g", [0, 0, 0, 1, 1])
        assert not is_balanced(DesignSpec(factors=(f,)))

    def test_missing_cell_of_the_full_cross(self):
        # 3 of the 4 cells of the 2 x 2 cross, two samples each
        a = Factor.from_labels("a", [0, 0, 0, 0, 1, 1])
        b = Factor.from_labels("b", [0, 0, 1, 1, 0, 0])
        spec = DesignSpec(factors=(a, b))
        assert not is_balanced(spec)
        with pytest.warns(UnbalancedDesignWarning):
            encode(spec)


class TestPermuteRows:
    def test_exhaustive_lists_every_permutation_once(self):
        for n in (1, 3, 5):
            perms = permute_rows(n, 0, exhaustive=True)
            assert perms.shape == (math.factorial(n), n)
            assert [tuple(p) for p in perms] == list(itertools.permutations(range(n)))

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_no_rows_is_rejected(self, exhaustive):
        with pytest.raises(DimensionMismatch, match="at least one row"):
            permute_rows(0, 5, exhaustive=exhaustive)

    def test_deterministic_for_fixed_seed(self):
        p1 = permute_rows(10, 50, seed=123)
        p2 = permute_rows(10, 50, seed=123)
        assert np.array_equal(p1, p2)
        p3 = permute_rows(10, 50, seed=124)
        assert not np.array_equal(p1, p3)

    def test_stream_splittable(self):
        # element i of the stream is recoverable without elements 0..i-1
        full = permute_rows(8, 20, seed=7)
        tail = permute_rows(8, 14, seed=7)[13]
        assert np.array_equal(full[13], tail)

    def test_position_value_frequencies_near_uniform(self):
        n, count = 10, 10000
        perms = permute_rows(n, count, seed=99)
        expected = count / n
        sigma = np.sqrt(count * (1 / n) * (1 - 1 / n))
        for pos in range(n):
            freq = np.bincount(perms[:, pos], minlength=n)
            assert np.max(np.abs(freq - expected)) < 4 * sigma

    def test_rows_are_permutations(self):
        perms = permute_rows(6, 25, seed=1)
        for p in perms:
            assert sorted(p.tolist()) == list(range(6))


# seeds of one 32-bit word, of several words, and beyond PCG64's 128-bit state
stream_seeds = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**128),
                         st.integers(2**128 + 1, 2**200))


class TestPermutationStream:
    """``permute_rows`` against one freshly seeded generator per permutation."""

    @settings(max_examples=60, deadline=None)
    @given(seed=stream_seeds, n=st.integers(1, 100), count=st.integers(1, 300))
    def test_equals_the_per_permutation_generators(self, seed, n, count):
        assert np.array_equal(permute_rows(n, count, seed=seed),
                              permutation_stream(n, count, seed))

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3, 12345678901234567890, 2**130 + 5])
    def test_fixed_seeds(self, seed):
        for n in (2, 5, 48, 93):
            assert np.array_equal(permute_rows(n, 500, seed=seed),
                                  permutation_stream(n, 500, seed))

    def test_seed_chunks_join_seamlessly(self, monkeypatch, stream_draws):
        monkeypatch.setattr(design, "_SEED_CHUNK", 7)
        assert np.array_equal(permute_rows(5, 50, seed=3), permutation_stream(5, 50, 3))
        assert stream_draws == [(5, 50, 3)]

    @pytest.mark.parametrize("seed", [0, 2**130 + 5])
    def test_seed_words_at_the_top_of_the_index_range(self, seed):
        start = MAX_PERMUTATIONS - 2
        words = design._pcg64_seeds(seed, start, MAX_PERMUTATIONS + 1)
        for row, index in zip(words, range(start, MAX_PERMUTATIONS + 1)):
            ss = np.random.SeedSequence(seed, spawn_key=(index,))
            assert np.array_equal(row, ss.generate_state(4, np.uint64))

    @pytest.mark.parametrize("chunk", [7, 4096])
    def test_scored_permutations_come_in_bounded_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(design, "_SEED_CHUNK", chunk)
        for n in (1, 2, 3, 5, 6):
            others = math.factorial(n) - 1
            for count in (others, others + 1, 10**13):
                chunks = list(design._test_permutations(n, count, 4))
                assert all(c.shape[0] <= chunk for c in chunks)
                rows = [tuple(p) for c in chunks for p in c]
                assert rows == list(itertools.permutations(range(n)))[1:]
            if others > 1:  # too few to enumerate: the stream
                chunks = list(design._test_permutations(n, others - 1, 4))
                assert all(c.shape[0] <= chunk for c in chunks)
                assert np.array_equal(np.concatenate(chunks), permutation_stream(n, others - 1, 4))

    @pytest.mark.parametrize("count", [-1, MAX_PERMUTATIONS + 1, 10**13])
    def test_count_outside_the_index_range_is_rejected(self, count):
        # raised before anything is allocated
        with pytest.raises(ConfigInvalid):
            permute_rows(25, count, seed=0)
