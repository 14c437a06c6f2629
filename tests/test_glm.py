import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fftasca import design, linalg
from fftasca.design import DesignSpec, Factor, encode, permute_rows
from fftasca.errors import (
    DimensionMismatch,
    EmptyCellWarning,
    NonFiniteResult,
    RankWarning,
    UnbalancedDesignWarning,
    UnknownTerm,
    ZeroResidual,
)
from fftasca.glm import (
    GlmDecomposition,
    f_ratio,
    fit,
    impute_cell_means,
    pcmr_permutation_test,
    permutation_test,
    zeros_to_missing,
)
from fftasca.glm import _cell_scorer, _grand_means, _impute
from fftasca.linalg import ssq
from fftasca.spectral import transform_rows


def balanced_2x2(reps=3):
    a = Factor.from_labels("a", [0] * (2 * reps) + [1] * (2 * reps))
    b = Factor.from_labels("b", ([0] * reps + [1] * reps) * 2)
    return encode(DesignSpec(factors=(a, b), interactions=((0, 1),)))


def one_factor(n_per_level, name="g"):
    labels = [0] * n_per_level + [1] * n_per_level
    return encode(DesignSpec(factors=(Factor.from_labels(name, labels),)))


class TestFit:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(0)
        dm = one_factor(3)
        theta = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
        x = dm.matrix @ theta
        dec = fit(x, dm)
        assert np.max(np.abs(dec.residuals)) < 1e-10
        expected_effect = dm.columns_for("g") @ theta[1:2]
        assert np.max(np.abs(dec.effects["g"] - expected_effect)) < 1e-10

    def test_cell_means_oracle_balanced_two_level(self):
        rng = np.random.default_rng(1)
        dm = one_factor(4)
        x = rng.normal(size=(8, 6)) + 1j * rng.normal(size=(8, 6))
        dec = fit(x, dm)
        grand = x.mean(axis=0)
        for rows in (slice(0, 4), slice(4, 8)):
            cell_effect = x[rows].mean(axis=0) - grand
            assert np.max(np.abs(dec.effects["g"][rows] - cell_effect)) < 1e-10

    def test_intercept_only(self):
        rng = np.random.default_rng(2)
        f = Factor.from_labels("g", [0, 0, 1, 1])
        dm = encode(DesignSpec(factors=(f,)))
        # restrict to the intercept by fitting a one-column design
        intercept_only = type(dm)(
            matrix=dm.matrix[:, :1],
            column_spans={"mean": slice(0, 1)},
            dof={"mean": 1},
            cell_ids=dm.cell_ids,
            spec=dm.spec,
        )
        x = rng.normal(size=(4, 7)).astype(complex)
        dec = fit(x, intercept_only)
        assert dec.effects == {}
        assert np.allclose(dec.grand_mean_row[0], x.mean(axis=0), atol=1e-12)
        assert np.allclose(dec.residuals, x - x.mean(axis=0), atol=1e-12)

    def test_identity_holds_even_unbalanced(self):
        rng = np.random.default_rng(3)
        a = Factor.from_labels("a", [0, 0, 0, 0, 1, 1, 1])
        b = Factor.from_labels("b", [0, 0, 1, 1, 0, 1, 1])
        dm = encode(DesignSpec(factors=(a, b)))
        x = rng.normal(size=(7, 9)).astype(complex)
        dec = fit(x, dm)
        total = np.ones((7, 1)) @ dec.grand_mean_row \
            + sum(dec.effects.values()) + dec.residuals
        assert np.max(np.abs(total - x)) < 1e-8 * np.max(np.abs(x))

    def test_balanced_partition(self):
        rng = np.random.default_rng(4)
        dm = balanced_2x2(reps=3)
        x = rng.normal(size=(12, 20)).astype(complex)
        dec = fit(x, dm)
        parts = ssq(np.ones((12, 1)) @ dec.grand_mean_row) \
            + sum(ssq(e) for e in dec.effects.values()) + ssq(dec.residuals)
        assert parts == pytest.approx(ssq(x), rel=1e-8)

    def test_row_mismatch(self):
        dm = one_factor(3)
        with pytest.raises(DimensionMismatch):
            fit(np.zeros((4, 2), dtype=complex), dm)

    def test_rank_deficient_design_warns(self):
        a = Factor.from_labels("a", [0, 0, 1, 1])
        b = Factor.from_labels("b", [0, 0, 1, 1])  # duplicates a
        dm = encode(DesignSpec(factors=(a, b)))
        x = np.random.default_rng(5).normal(size=(4, 3)).astype(complex)
        with pytest.warns(RankWarning):
            dec = fit(x, dm)
        assert dec.residual_dof == 4 - 2  # numerical rank, not column count


def _rank_deficient_design():
    a = Factor.from_labels("a", [0, 0, 1, 1, 0, 1])
    b = Factor.from_labels("b", [0, 0, 1, 1, 0, 1])  # duplicates a
    with pytest.warns(UnbalancedDesignWarning):
        return encode(DesignSpec(factors=(a, b)))


def _pcmr_test(x, dm, **kwargs):
    mask = np.zeros(x.shape, dtype=bool)
    mask[0, 1] = True
    return pcmr_permutation_test(x, mask, dm, **kwargs)


class TestPreparedDesignUse:
    def test_permutation_test_and_fit_share_one_svd(self, monkeypatch):
        calls = []

        def counting_svd(x, _svd=linalg.svd):
            calls.append(np.shape(x))
            return _svd(x)

        # every module that can reach the SVD of a design
        monkeypatch.setattr(linalg, "svd", counting_svd)
        monkeypatch.setattr(design, "svd", counting_svd)
        dm = balanced_2x2(reps=3)
        x = np.random.default_rng(4).normal(size=(12, 5)).astype(complex)
        permutation_test(x, dm, n_permutations=19, seed=1)
        fit(x, dm)
        assert calls == [dm.matrix.shape]

    @pytest.mark.parametrize("call", [
        lambda x, dm: fit(x, dm),
        lambda x, dm: permutation_test(x, dm, n_permutations=9, seed=0),
        lambda x, dm: _pcmr_test(x, dm, n_permutations=9, seed=0),
    ], ids=["fit", "permutation_test", "pcmr_permutation_test"])
    def test_rank_warning_points_at_the_caller(self, call):
        dm = _rank_deficient_design()
        x = np.random.default_rng(5).normal(size=(6, 3)).astype(complex)
        with pytest.warns(RankWarning) as record:
            call(x, dm)
        rank_warnings = [w for w in record if issubclass(w.category, RankWarning)]
        assert [w.filename for w in rank_warnings] == [__file__]

    @pytest.mark.parametrize("call", [
        lambda x, mask, dm: impute_cell_means(x, mask, dm),
        lambda x, mask, dm: pcmr_permutation_test(x, mask, dm, n_permutations=9, seed=0),
    ], ids=["impute_cell_means", "pcmr_permutation_test"])
    def test_empty_cell_warning_points_at_the_caller(self, call):
        dm = one_factor(3)
        x = np.random.default_rng(6).normal(size=(6, 3)) + 5.0
        mask = np.zeros(x.shape, dtype=bool)
        mask[:3, 1] = True  # cell 0 observes nothing in column 1
        with pytest.warns(EmptyCellWarning) as record:
            call(x, mask, dm)
        empty_warnings = [w for w in record if issubclass(w.category, EmptyCellWarning)]
        assert [w.filename for w in empty_warnings] == [__file__]


def manual_decomposition(effect_ssq, nu1, resid_ssq, nu2):
    effect = np.zeros((1, 1), dtype=complex)
    effect[0, 0] = math.sqrt(effect_ssq)
    resid = np.zeros((1, 1), dtype=complex)
    resid[0, 0] = math.sqrt(resid_ssq)
    return GlmDecomposition(
        theta_hat=np.zeros((1, 1), dtype=complex),
        effects={"g": effect},
        residuals=resid,
        dof={"g": nu1},
        residual_dof=nu2,
        grand_mean_row=np.zeros((1, 1), dtype=complex),
    )


class TestFRatio:
    def test_direct_arithmetic(self):
        dec = manual_decomposition(100.0, 2, 400.0, 80)
        assert f_ratio(dec, "g") == pytest.approx(10.0, rel=1e-14)

    def test_zero_effect_gives_zero(self):
        dec = manual_decomposition(0.0, 1, 5.0, 3)
        assert f_ratio(dec, "g") == 0.0

    def test_zero_residual_raises(self):
        dm = one_factor(2)
        dec = fit(np.zeros((4, 3), dtype=complex), dm)
        with pytest.raises(ZeroResidual):
            f_ratio(dec, "g")

    def test_no_residual_dof_raises(self):
        # one sample per level: the residual is rounding, with nu2 = 0
        x = np.random.default_rng(0).normal(size=(2, 5)) + 3.0
        dm = one_factor(1)
        with pytest.raises(ZeroResidual):
            f_ratio(fit(x, dm), "g")

    def test_unknown_term(self):
        dec = manual_decomposition(1.0, 1, 1.0, 1)
        with pytest.raises(UnknownTerm):
            f_ratio(dec, "nope")

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        dm = one_factor(3)
        x = rng.normal(size=(6, 11)).astype(complex)
        f1 = f_ratio(fit(x, dm), "g")
        f2 = f_ratio(fit(3.7 * x, dm), "g")
        assert f2 == pytest.approx(f1, rel=1e-10)

    def test_frequency_equals_time_domain(self):
        rng = np.random.default_rng(7)
        dm = balanced_2x2(reps=3)
        x = rng.normal(size=(12, 64))
        dec_t = fit(x.astype(complex), dm)
        dec_f = fit(transform_rows(x.astype(complex)), dm)
        for term in ("a", "b", "a:b"):
            assert f_ratio(dec_f, term) == pytest.approx(
                f_ratio(dec_t, term), rel=1e-9)


def oracle_f_two_level(x, labels, nu2=None):
    """Independent F computation from group means (no shared code)."""
    labels = np.asarray(labels)
    grand = x.mean(axis=0)
    effect = np.zeros_like(x)
    for lev in np.unique(labels):
        rows = labels == lev
        effect[rows] = x[rows].mean(axis=0) - grand
    resid = x - grand - effect
    nu2 = (x.shape[0] - 2) if nu2 is None else nu2
    num = np.sum(np.abs(effect) ** 2) / 1.0
    den = np.sum(np.abs(resid) ** 2) / nu2
    return num / den


class TestPermutationTest:
    @pytest.mark.parametrize("masked", [False, True])
    def test_no_residual_dof_in_permutation_test_raises(self, masked):
        x = np.random.default_rng(0).normal(size=(2, 5)) + 3.0
        dm = one_factor(1)
        with pytest.raises(ZeroResidual):
            if masked:
                pcmr_permutation_test(x, x < 2.5, dm, n_permutations=5)
            else:
                permutation_test(x, dm, n_permutations=5)

    @pytest.mark.parametrize("masked", [False, True])
    def test_overflowing_table_raises(self, masked):
        # the total, 1.3e307, is finite; 100 times the Mean row's 6.25e306 is not
        x = np.array([[3e153, 1.0], [2e153, 0.0], [1.0, 1.0], [1.0, 2.0]])
        with pytest.raises(NonFiniteResult):
            if masked:
                pcmr_permutation_test(x, x == 0.0, one_factor(2), n_permutations=5)
            else:
                permutation_test(x, one_factor(2), n_permutations=5)

    @pytest.mark.parametrize("masked", [False, True])
    def test_underflowing_table_raises(self, masked):
        # an 8 x 40 table at 1e-158: the total, about 7e-314, is subnormal
        x = 1e-158 * np.random.default_rng(1).uniform(1.0, 2.0, size=(8, 40))
        x[0, 0] = 0.0
        with pytest.raises(NonFiniteResult, match="underflow"):
            if masked:
                pcmr_permutation_test(x, x == 0.0, one_factor(4), n_permutations=5)
            else:
                permutation_test(x, one_factor(4), n_permutations=5)

    def test_determinism(self):
        rng = np.random.default_rng(8)
        dm = one_factor(4)
        x = rng.normal(size=(8, 5)).astype(complex)
        t1 = permutation_test(x, dm, n_permutations=99, seed=21)
        t2 = permutation_test(x, dm, n_permutations=99, seed=21)
        assert t1 == t2

    def test_p_floor_reached_for_strong_effect(self):
        rng = np.random.default_rng(9)
        dm = one_factor(10)  # N=20: partition-preserving draws are ~1e-5/perm
        x = rng.normal(size=(20, 30))
        x[10:] += 5.0
        table = permutation_test(x.astype(complex), dm,
                                 n_permutations=1000, seed=0)
        assert table.row("g").p_value == pytest.approx(1 / 1001, abs=1e-12)

    def test_p_never_below_floor(self):
        rng = np.random.default_rng(10)
        dm = one_factor(3)
        x = rng.normal(size=(6, 4)).astype(complex)
        table = permutation_test(x, dm, n_permutations=200, seed=3)
        p = table.row("g").p_value
        assert 1 / 201 <= p <= 1.0

    def test_exhaustive_matches_independent_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        labels = [0, 0, 0, 1, 1, 1]
        dm = one_factor(3)
        x = rng.normal(size=(6, 4))
        x[3:] += 1.0
        table = permutation_test(x.astype(complex), dm,
                                 n_permutations=719, seed=5)
        assert table.n_permutations == 719

        f_nom = oracle_f_two_level(x, labels)
        count = 0
        for perm in itertools.permutations(range(6)):
            if perm == tuple(range(6)):
                continue
            f_pi = oracle_f_two_level(x[list(perm)], labels)
            if f_pi >= f_nom - 1e-12 * max(abs(f_pi), abs(f_nom)):
                count += 1
        assert table.row("g").p_value == pytest.approx((count + 1) / 720, abs=1e-12)

    def test_full_coverage_monte_carlo_equals_exhaustive(self):
        rng = np.random.default_rng(12)
        dm = one_factor(3)
        x = rng.normal(size=(6, 4)).astype(complex)
        p_a = permutation_test(x, dm, n_permutations=719, seed=1).row("g").p_value
        p_b = permutation_test(x, dm, n_permutations=719, seed=999).row("g").p_value
        assert p_a == p_b  # both enumerate; the seed is irrelevant

    def test_common_circular_shift_leaves_frequency_results_unchanged(self):
        rng = np.random.default_rng(14)
        dm = one_factor(4)
        x = rng.normal(size=(8, 120))
        x[4:] += 0.6
        shifted = np.roll(x, 31, axis=1)
        t1 = permutation_test(transform_rows(x.astype(complex)), dm,
                              n_permutations=99, seed=2)
        t2 = permutation_test(transform_rows(shifted.astype(complex)), dm,
                              n_permutations=99, seed=2)
        for term in ("g",):
            assert t2.row(term).f == pytest.approx(t1.row(term).f, rel=1e-9)
            assert t2.row(term).p_value == t1.row(term).p_value
        for row_name in ("Mean", "g", "Residuals", "Total"):
            assert t2.row(row_name).sum_sq == pytest.approx(
                t1.row(row_name).sum_sq, rel=1e-9)

    @pytest.mark.parametrize("masked", [False, True], ids=["dense", "masked"])
    def test_scorer_sums_match_refit_for_every_permutation(self, masked):
        rng = np.random.default_rng(23)
        a = Factor.from_labels("a", [0, 0, 0, 0, 1, 1, 1, 2, 2, 2])
        b = Factor.from_labels("b", [0, 1, 0, 1, 0, 1, 1, 0, 1, 1])
        with pytest.warns(UnbalancedDesignWarning):
            dm = encode(DesignSpec(factors=(a, b), interactions=((0, 1),)))
        # a large mean makes the scored residual a difference
        x = rng.normal(size=(10, 40)) + 1j * rng.normal(size=(10, 40)) + 3.0
        mask = None
        if masked:
            mask = rng.random(size=x.shape) < 0.3
            mask[:, 7] = True  # a variable observed nowhere
            mask[dm.cell_rows[0], 5] = True  # a cell with nothing observed
        perms = permute_rows(10, 200, seed=6)
        ss, resid, total = _cell_scorer(x, mask, dm)(perms)
        for p, row, r, tot in zip(perms, ss, resid, total):
            y = x[p] if mask is None else _impute(x[p], mask[p], dm.cell_rows,
                                                   _grand_means(x, mask))
            dec = fit(y, dm)
            # the refit window of the engine rests on an error of order eps * total
            bound = 1e-12 * ssq(y)
            assert np.abs(row - [ssq(dec.effect(t)) for t in dm.terms]).max() <= bound
            assert abs(r - ssq(dec.residuals)) <= bound
            assert abs(tot - ssq(y)) <= bound

    def test_table_schema_and_percentages(self):
        rng = np.random.default_rng(15)
        dm = balanced_2x2(reps=3)
        x = rng.normal(size=(12, 10)).astype(complex)
        table = permutation_test(x, dm, n_permutations=49, seed=7)
        names = [r.term for r in table.rows]
        assert names == ["Mean", "a", "b", "a:b", "Residuals", "Total"]
        body = [r for r in table.rows if r.term != "Total"]
        assert sum(r.perc_sum_sq for r in body) == pytest.approx(100.0, abs=0.1)
        total = table.row("Total")
        assert total.sum_sq == pytest.approx(sum(r.sum_sq for r in body), rel=1e-8)
        assert total.df == 12
        for name in ("Mean", "Residuals", "Total"):
            assert table.row(name).f is None
            assert table.row(name).p_value is None
        for name in ("a", "b", "a:b"):
            p = table.row(name).p_value
            assert 1 / 50 <= p <= 1.0


class TestZerosToMissing:
    def test_no_zeros(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        _, mask = zeros_to_missing(x)
        assert not mask.any()

    def test_pattern(self):
        x = np.array([[0.0, 1.0], [2.0, 0.0]])
        _, mask = zeros_to_missing(x)
        assert np.array_equal(mask, [[True, False], [False, True]])

    def test_density_counting(self):
        rng = np.random.default_rng(16)
        x = rng.uniform(1.0, 2.0, size=(20, 50))
        drop = rng.random(size=x.shape) < 0.1
        x[drop] = 0.0
        _, mask = zeros_to_missing(x)
        assert mask.sum() == drop.sum()


def oracle_pcmr_impute(x, mask, labels):
    """Independent cell-mean imputation for a single-factor design."""
    out = x.copy()
    labels = np.asarray(labels)
    grand = np.array([x[~mask[:, j], j].mean() if (~mask[:, j]).any() else 0.0
                      for j in range(x.shape[1])])
    for lev in np.unique(labels):
        rows = np.flatnonzero(labels == lev)
        for j in range(x.shape[1]):
            miss = [r for r in rows if mask[r, j]]
            if not miss:
                continue
            obs = [x[r, j] for r in rows if not mask[r, j]]
            fill = np.mean(obs) if obs else grand[j]
            for r in miss:
                out[r, j] = fill
    return out


class TestPcmr:
    def test_mask_free_is_bit_identical_to_plain(self):
        rng = np.random.default_rng(17)
        dm = one_factor(4)
        x = rng.normal(size=(8, 6)).astype(complex)
        mask = np.zeros((8, 6), dtype=bool)
        plain = permutation_test(x, dm, n_permutations=99, seed=13)
        pcmr = pcmr_permutation_test(x, mask, dm, n_permutations=99, seed=13)
        assert plain == pcmr

    def test_single_missing_entry_gets_cell_mean(self):
        x = np.array([[2.0, 1.0], [4.0, 1.0], [0.0, 1.0],
                      [7.0, 2.0], [8.0, 2.0], [9.0, 2.0]])
        dm = one_factor(3)
        values, mask = zeros_to_missing(x)
        imputed = impute_cell_means(values.astype(complex), mask, dm)
        assert imputed[2, 0].real == pytest.approx(3.0)  # mean of {2, 4}

    def test_exhaustive_matches_brute_force_oracle(self):
        rng = np.random.default_rng(18)
        labels = [0, 0, 0, 0, 1, 1, 1, 1]
        dm = one_factor(4)
        x = rng.normal(size=(8, 3))
        x[4:] += 1.2
        mask = np.zeros((8, 3), dtype=bool)
        mask[1, 0] = True
        mask[6, 2] = True

        table = pcmr_permutation_test(x.astype(complex), mask, dm,
                                      n_permutations=math.factorial(8) - 1,
                                      seed=0)
        assert table.n_permutations == math.factorial(8) - 1

        x0 = oracle_pcmr_impute(x, mask, labels)
        f_nom = oracle_f_two_level(x0, labels)
        count = 0
        identity = tuple(range(8))
        for perm in itertools.permutations(range(8)):
            if perm == identity:
                continue
            idx = list(perm)
            xp = oracle_pcmr_impute(x[idx], mask[idx], labels)
            f_pi = oracle_f_two_level(xp, labels)
            if f_pi >= f_nom - 1e-12 * max(abs(f_pi), abs(f_nom)):
                count += 1
        expected_p = (count + 1) / math.factorial(8)
        assert table.row("g").p_value == pytest.approx(expected_p, abs=1e-12)

    def test_empty_cell_falls_back_to_grand_mean_with_warning(self):
        x = np.array([[0.0, 5.0], [0.0, 5.0], [2.0, 5.0], [4.0, 7.0]])
        dm = one_factor(2)
        values, mask = zeros_to_missing(x)
        with pytest.warns(UserWarning, match="grand mean"):
            imputed = impute_cell_means(values.astype(complex), mask, dm)
        assert imputed[0, 0].real == pytest.approx(3.0)  # mean of {2, 4}

    def test_mask_shape_must_match(self):
        dm = one_factor(2)
        x = np.zeros((4, 3), dtype=complex)
        with pytest.raises(DimensionMismatch):
            pcmr_permutation_test(x, np.zeros((3, 3), dtype=bool), dm,
                                  n_permutations=5)


class TestSerialization:
    def test_csv_layout(self):
        rng = np.random.default_rng(19)
        dm = one_factor(3)
        x = rng.normal(size=(6, 4)).astype(complex)
        table = permutation_test(x, dm, n_permutations=19, seed=0)
        text = table.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "term,SumSq,PercSumSq,df,MeanSq,F,Pvalue"
        assert len(lines) == 1 + 4  # Mean, g, Residuals, Total
        mean_cells = lines[1].split(",")
        assert mean_cells[0] == "Mean"
        assert mean_cells[5] == "" and mean_cells[6] == ""

    def test_text_layout(self):
        rng = np.random.default_rng(20)
        dm = one_factor(3)
        x = rng.normal(size=(6, 4)).astype(complex)
        table = permutation_test(x, dm, n_permutations=19, seed=0)
        text = table.to_text()
        header = text.splitlines()[0].split()
        assert header == list(table.COLUMNS)
        assert "--" in text  # blanks rendered for Mean/Residuals/Total


@st.composite
def random_designs(draw):
    """(encoded design, data): one or two factors, unbalanced, optionally
    with their interaction, real or complex data."""
    n = draw(st.integers(4, 9))
    labels = st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(
        lambda v: len(set(v)) >= 2)
    factors = [Factor.from_labels("a", draw(labels))]
    interactions = ()
    if draw(st.booleans()):
        factors.append(Factor.from_labels("b", draw(labels)))
        interactions = ((0, 1),) if draw(st.booleans()) else ()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, draw(st.integers(1, 5))))
    if draw(st.booleans()):
        x = x + 1j * rng.normal(size=x.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return encode(DesignSpec(factors=tuple(factors), interactions=interactions)), x


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(case=random_designs())
    def test_fit_parts_add_up_to_the_data(self, case):
        dm, x = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dec = fit(x, dm)
        parts = np.ones((x.shape[0], 1)) @ dec.grand_mean_row + dec.residuals
        parts = parts + sum(dec.effects.values())
        assert np.allclose(parts, x, rtol=0, atol=1e-12 * (1.0 + np.max(np.abs(x))))

    @settings(max_examples=40, deadline=None)
    @given(case=random_designs(), n_perm=st.integers(1, 40), seed=st.integers(0, 10**6),
           masked=st.booleans(), density=st.floats(0.0, 0.5))
    def test_p_lies_between_the_floor_and_one(self, case, n_perm, seed, masked, density):
        dm, x = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                if masked:
                    mask = np.random.default_rng(seed).random(x.shape) < density
                    table = pcmr_permutation_test(x, mask, dm, n_permutations=n_perm,
                                                  seed=seed)
                else:
                    table = permutation_test(x, dm, n_permutations=n_perm, seed=seed)
            except ZeroResidual:
                return
        b = table.n_permutations
        assert 1 <= b <= n_perm
        for term in dm.terms:
            p = table.row(term).p_value
            assert 1 / (b + 1) <= p <= 1
