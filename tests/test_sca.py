import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fftasca.design import DesignSpec, DistinctRows, Factor, encode
from fftasca.errors import DimensionMismatch, RankExceeded, UnknownTerm
from fftasca.glm import fit
from fftasca.linalg import ssq
from fftasca.sca import (
    default_components,
    effect_to_time,
    loadings_to_time,
    real_scores,
    sca_fit,
)
from fftasca.spectral import dft_inverse, inverse_rows, transform_rows
from sca_oracle import full_effect_to_time, full_sca_fit


def rank_k_complex(rng, n, m, k):
    a = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    b = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
    return a @ b


def gaussian_profile(m, center, sigma):
    t = np.arange(m, dtype=float)
    return np.exp(-((t - center) ** 2) / (2 * sigma**2))


def two_level_dataset(m=256, reps=4, seed=0, noise=0.0):
    """Real time-domain rows: shared baseline peak +/- half an effect peak."""
    rng = np.random.default_rng(seed)
    base = 6.0 * gaussian_profile(m, m // 3, 5.0)
    eff = 1.5 * gaussian_profile(m, 2 * m // 3, 5.0)
    labels = [0] * reps + [1] * reps
    x = np.empty((2 * reps, m))
    for i, lab in enumerate(labels):
        x[i] = base + (0.5 if lab else -0.5) * eff
        if noise:
            x[i] += noise * rng.normal(size=m)
    spec = DesignSpec(factors=(Factor.from_labels("g", labels),))
    return x, encode(spec), eff


class TestScaFit:
    def test_zero_residual_makes_projected_equal_scores(self):
        rng = np.random.default_rng(1)
        xa = rank_k_complex(rng, 6, 9, 2)
        model = sca_fit(xa, np.zeros_like(xa), 2)
        assert np.max(np.abs(model.projected_scores - model.scores)) < 1e-10

    def test_effect_and_residual_shapes_must_agree(self):
        xa = rank_k_complex(np.random.default_rng(1), 6, 9, 2)
        with pytest.raises(DimensionMismatch, match="differ"):
            sca_fit(xa, np.zeros((6, 8)), 2)

    def test_rank_one_exact_recovery(self):
        rng = np.random.default_rng(2)
        xa = rank_k_complex(rng, 8, 12, 1)
        model = sca_fit(xa, np.zeros_like(xa), 1)
        recon = model.scores @ model.loadings.conj().T
        assert np.max(np.abs(recon - xa)) < 1e-9 * np.max(np.abs(xa))

    def test_truncation_keeps_top_singular_energy(self):
        rng = np.random.default_rng(3)
        xa = rank_k_complex(rng, 10, 14, 3)
        s = np.linalg.svd(xa, compute_uv=False)
        full = sca_fit(xa, np.zeros_like(xa), 3)
        recon_full = full.scores @ full.loadings.conj().T
        assert np.max(np.abs(recon_full - xa)) < 1e-9 * np.max(np.abs(xa))
        two = sca_fit(xa, np.zeros_like(xa), 2)
        recon_two = two.scores @ two.loadings.conj().T
        assert ssq(recon_two) == pytest.approx(float(s[0] ** 2 + s[1] ** 2),
                                               rel=1e-9)

    def test_orthonormal_loadings_and_descending_energy(self):
        rng = np.random.default_rng(4)
        xa = rank_k_complex(rng, 9, 13, 3)
        model = sca_fit(xa, np.zeros_like(xa), 3)
        gram = model.loadings.conj().T @ model.loadings
        assert np.max(np.abs(gram - np.eye(3))) < 1e-9
        assert np.all(np.diff(model.explained_ssq) <= 0)

    def test_scores_carry_all_effect_variance(self):
        rng = np.random.default_rng(5)
        xa = rank_k_complex(rng, 7, 11, 3)
        model = sca_fit(xa, np.zeros_like(xa), 3)
        assert ssq(model.scores) == pytest.approx(ssq(xa), rel=1e-9)

    def test_projection_consistency(self):
        rng = np.random.default_rng(6)
        xa = rank_k_complex(rng, 8, 10, 2)
        e = 0.1 * rank_k_complex(rng, 8, 10, 8)
        model = sca_fit(xa, e, 2)
        assert np.max(np.abs(model.projected_scores - model.scores
                             - e @ model.loadings)) < 1e-10

    def test_rank_exceeded(self):
        rng = np.random.default_rng(7)
        xa = rank_k_complex(rng, 6, 8, 2)
        with pytest.raises(RankExceeded):
            sca_fit(xa, np.zeros_like(xa), 3)
        with pytest.raises(RankExceeded):
            sca_fit(xa, np.zeros_like(xa), 0)

    def test_canonicalization_is_phase_invariant(self):
        rng = np.random.default_rng(8)
        xa = rank_k_complex(rng, 6, 9, 2)
        m1 = sca_fit(xa, np.zeros_like(xa), 2)
        m2 = sca_fit(np.exp(0.7j) * xa, np.zeros_like(xa), 2)
        assert np.max(np.abs(m1.loadings - m2.loadings)) < 1e-9

    def test_repeat_call_is_deterministic(self):
        rng = np.random.default_rng(9)
        xa = rank_k_complex(rng, 6, 9, 2)
        m1 = sca_fit(xa, np.zeros_like(xa), 2)
        m2 = sca_fit(xa, np.zeros_like(xa), 2)
        assert np.array_equal(m1.loadings, m2.loadings)
        assert np.array_equal(m1.scores, m2.scores)


class TestDefaultComponents:
    def test_rank_one_effect_needs_one(self):
        rng = np.random.default_rng(10)
        xa = rank_k_complex(rng, 6, 9, 1)
        assert default_components(xa, cap=5) == 1

    def test_cap_applies(self):
        rng = np.random.default_rng(11)
        xa = rank_k_complex(rng, 8, 9, 5)
        assert default_components(xa, cap=2) <= 2

    def test_zero_effect_raises(self):
        with pytest.raises(RankExceeded):
            default_components(np.zeros((4, 5), dtype=complex), cap=2)
        with pytest.raises(RankExceeded):
            sca_fit(np.zeros((4, 5), dtype=complex), np.zeros((4, 5), dtype=complex))

    @pytest.mark.parametrize("cap", [1, 2, 5])
    def test_fit_without_count_uses_the_default(self, cap):
        rng = np.random.default_rng(12)
        xa = rank_k_complex(rng, 8, 9, 4)
        e = 0.1 * rng.normal(size=xa.shape)
        chosen = sca_fit(xa, e, cap=cap)
        count = default_components(xa, cap=cap)
        assert chosen.n_components == count
        explicit = sca_fit(xa, e, count)
        assert np.array_equal(chosen.loadings, explicit.loadings)
        assert np.array_equal(chosen.projected_scores, explicit.projected_scores)


class TestLoadingsToTime:
    def test_dc_only_loading_gives_constant(self):
        m = 32
        xa = np.zeros((4, m), dtype=complex)
        xa[:2, 0] = 4.0
        xa[2:, 0] = -4.0
        model = sca_fit(xa, np.zeros_like(xa), 1)
        view = loadings_to_time(model)
        col = view.values[:, 0]
        assert np.max(np.abs(col - col[0])) < 1e-12
        assert view.imag_residue < 1e-12

    def test_recovers_gaussian_profile_unmirrored(self):
        m = 300
        g = gaussian_profile(m, 190, 6.0)  # asymmetric placement
        rows = np.array([0.5, 0.5, -0.5, -0.5])
        x_time = np.outer(rows, g)
        xa = transform_rows(x_time.astype(complex))
        model = sca_fit(xa, np.zeros_like(xa), 1)
        view = loadings_to_time(model)
        got = view.values[:, 0]
        want = g / np.linalg.norm(g)
        got = got / np.linalg.norm(got)
        if got[np.argmax(np.abs(got))] < 0:
            got = -got
        assert np.max(np.abs(got - want)) < 1e-9

    def test_real_synthetic_has_tiny_imaginary_residue(self):
        x, dm, _ = two_level_dataset(noise=0.01, seed=12)
        dec = fit(transform_rows(x.astype(complex)), dm)
        model = sca_fit(dec.effect("g"), dec.residuals, 1)
        view = loadings_to_time(model)
        assert view.imag_residue < 1e-8 * np.max(np.abs(view.values))

    def test_variance_bridge(self):
        x, dm, _ = two_level_dataset(noise=0.02, seed=14)
        m = x.shape[1]
        dec = fit(transform_rows(x.astype(complex)), dm)
        model = sca_fit(dec.effect("g"), dec.residuals, 1)
        view = loadings_to_time(model)
        freq_ssq = float(np.sum(np.abs(model.loadings[:, 0]) ** 2))
        time_ssq = float(np.sum(view.values[:, 0] ** 2))
        assert freq_ssq == pytest.approx(m * time_ssq, rel=1e-9)


    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 600), n_components=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_batched_inverse_equals_per_column_inverse(self, m, n_components, seed):
        assume(n_components <= m)
        rng = np.random.default_rng(seed)
        effect = rng.normal(size=(5, m)) + 1j * rng.normal(size=(5, m))
        model = sca_fit(effect, np.zeros_like(effect), n_components)
        view = loadings_to_time(model)
        for r in range(n_components):
            assert np.array_equal(view.values[:, r],
                                  dft_inverse(np.conj(model.loadings[:, r])).real)


class TestEffectToTime:
    def test_two_level_noiseless_ground_truth(self):
        x, dm, eff = two_level_dataset(noise=0.0, seed=15)
        dec = fit(transform_rows(x.astype(complex)), dm)
        values = effect_to_time(dec, "g").values[dec.distinct_rows("g").inverse]
        low = values[:4].mean(axis=0)
        high = values[4:].mean(axis=0)
        assert np.max(np.abs((high - low) - eff)) < 1e-8 * max(np.max(eff), 1.0)

    def test_null_effect_gives_flat_zero(self):
        m = 64
        x = np.tile(gaussian_profile(m, 20, 4.0), (6, 1))
        dm = encode(DesignSpec(factors=(Factor.from_labels("g", [0, 0, 0, 1, 1, 1]),)))
        dec = fit(transform_rows(x.astype(complex)), dm)
        view = effect_to_time(dec, "g")
        assert np.max(np.abs(view.values)) < 1e-10

    def test_jittered_peaks_stay_finite_and_real(self):
        rng = np.random.default_rng(16)
        m = 200
        x = np.empty((8, m))
        for i in range(8):
            center = 100 + rng.integers(0, 12)
            amp = 5.0 + (0.8 if i >= 4 else 0.0)
            x[i] = amp * gaussian_profile(m, center, 4.0) + 0.01 * rng.normal(size=m)
        dm = encode(DesignSpec(factors=(Factor.from_labels("g", [0] * 4 + [1] * 4),)))
        dec = fit(transform_rows(x.astype(complex)), dm)
        view = effect_to_time(dec, "g")
        assert np.all(np.isfinite(view.values))
        assert view.imag_residue < 1e-8 * np.max(np.abs(view.values))

    def test_include_mean_restores_intensity_scale(self):
        x, dm, _ = two_level_dataset(noise=0.0, seed=17)
        dec = fit(transform_rows(x.astype(complex)), dm)
        view = effect_to_time(dec, "g", include_mean=True)
        recon_mean = view.values[dec.distinct_rows("g").inverse].mean(axis=0)
        assert np.max(np.abs(recon_mean - x.mean(axis=0))) < 1e-8

    def test_unknown_term(self):
        x, dm, _ = two_level_dataset(seed=18)
        dec = fit(transform_rows(x.astype(complex)), dm)
        with pytest.raises(UnknownTerm):
            effect_to_time(dec, "nope")


class TestRealScores:
    def test_untransformed_real_data_has_zero_imag(self):
        x, dm, _ = two_level_dataset(noise=0.05, seed=19)
        dec = fit(x.astype(complex), dm)
        model = sca_fit(dec.effect("g"), dec.residuals, 1)
        assert np.max(np.abs(model.projected_scores.imag)) == 0.0
        scores = real_scores(model)
        assert scores.shape == (8, 1)

    def test_frequency_model_imag_small_relative_to_scores(self):
        x, dm, _ = two_level_dataset(noise=0.02, seed=20)
        dec = fit(transform_rows(x.astype(complex)), dm)
        model = sca_fit(dec.effect("g"), dec.residuals, 1)
        scores = real_scores(model)
        imag = np.max(np.abs(model.projected_scores.imag))
        assert imag < 1e-6 * np.max(np.abs(scores))


class TestFullPipelineIdentity:
    def test_back_transform_reproduces_time_matrix(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(12, 128))
        a = Factor.from_labels("a", [0] * 6 + [1] * 6)
        b = Factor.from_labels("b", [0, 0, 0, 1, 1, 1] * 2)
        dm = encode(DesignSpec(factors=(a, b), interactions=((0, 1),)))
        spec = transform_rows(x.astype(complex))
        dec = fit(spec, dm)
        total = np.ones((12, 1)) @ dec.grand_mean_row \
            + sum(dec.effect(t) for t in dec.levels) + dec.residuals
        back = inverse_rows(total)
        assert np.max(np.abs(back.real - x)) < 1e-8
        assert np.max(np.abs(back.imag)) < 1e-8


LEVEL_KINDS = ("one_way", "interaction", "two_by_two", "rank_deficient")


@st.composite
def level_cases(draw, kind):
    """(design spec, data) with repeated effect rows: unbalanced one-way,
    two-factor with interaction and possibly empty cells, a 2 x 2 whose
    interaction has fewer distinct rows than cells, and aliased factors."""
    if kind in ("interaction", "two_by_two"):
        la, lb = (2, 2) if kind == "two_by_two" else (draw(st.integers(2, 3)),
                                                      draw(st.integers(2, 3)))
        least = 1 if kind == "two_by_two" else 0
        counts = draw(st.lists(st.integers(least, 3), min_size=la * lb, max_size=la * lb))
        cells = [(i, j) for i in range(la) for j in range(lb)
                 for _ in range(counts[i * lb + j])]
        assume(len({i for i, _ in cells}) == la and len({j for _, j in cells}) == lb)
        cells = draw(st.permutations(cells))
        factors = (Factor.from_labels("a", [i for i, _ in cells]),
                   Factor.from_labels("b", [j for _, j in cells]))
        spec = DesignSpec(factors=factors, interactions=((0, 1),))
    else:
        counts = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
        a = draw(st.permutations([lev for lev, c in enumerate(counts) for _ in range(c)]))
        factors = (Factor.from_labels("a", a),)
        interactions = ()
        if kind == "rank_deficient":
            relabel = draw(st.permutations(range(len(counts))))
            factors += (Factor.from_labels("b", [relabel[v] for v in a]),)
            interactions = ((0, 1),) if draw(st.booleans()) else ()
        spec = DesignSpec(factors=factors, interactions=interactions)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (spec.n_samples, draw(st.integers(3, 8)))
    x = rng.normal(size=shape)
    form = draw(st.sampled_from(["real", "complex", "spectra"]))
    if form == "complex":
        x = x + 1j * rng.normal(size=shape)
    elif form == "spectra":
        x = np.fft.fft(x, axis=1)
    return spec, x


class TestLevelSpace:
    """The level-space fit against the full-matrix SVD of ``sca_oracle``."""

    @pytest.mark.parametrize("kind", LEVEL_KINDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_level_space_equals_full_svd_oracle(self, kind, data):
        spec, x = data.draw(level_cases(kind))
        include_mean = data.draw(st.booleans())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dm = encode(spec)
            decomp = fit(x, dm)
        for term in dm.terms:
            effect, rows = decomp.effect(term), decomp.distinct_rows(term)
            levels = decomp.levels[term]
            assert np.array_equal(effect, effect[rows.first][rows.inverse])
            assert np.array_equal(levels, effect[rows.first])

            view = effect_to_time(decomp, term, include_mean=include_mean)
            want, residue = full_effect_to_time(decomp, term, include_mean)
            assert view.values.shape == levels.shape
            assert np.array_equal(view.values[rows.inverse], want)
            assert view.imag_residue == residue

            cap = dm.dof[term]
            try:
                scores, projected, loadings, explained = full_sca_fit(
                    effect, decomp.residuals, cap=cap)
            except RankExceeded:
                with pytest.raises(RankExceeded):
                    sca_fit(levels, decomp.residuals, cap=cap, rows=rows)
                continue
            k = loadings.shape[1]
            # singular vectors are defined only where the singular values
            # are apart; the last kept one must also clear the next
            s = np.linalg.svd(effect, compute_uv=False)
            assume(np.all(s[:k] - np.append(s[1:], 0.0)[:k] > 1e-6 * s[0]))
            model = sca_fit(levels, decomp.residuals, cap=cap, rows=rows)
            assert model.n_components == k
            assert default_components(levels, cap, rows=rows) == k
            scale = s[0] + np.max(np.abs(decomp.residuals))
            assert np.allclose(model.explained_ssq, explained, rtol=0, atol=1e-12 * s[0] ** 2)
            assert np.allclose(model.loadings, loadings, rtol=0, atol=1e-8)
            assert np.allclose(model.scores, scores, rtol=0, atol=1e-8 * s[0])
            assert np.allclose(model.projected_scores, projected, rtol=0, atol=1e-8 * scale)

    def test_two_by_two_interaction_has_two_distinct_rows(self):
        a = Factor.from_labels("a", [0, 0, 0, 1, 1, 0, 1])
        b = Factor.from_labels("b", [0, 1, 1, 0, 1, 0, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dm = encode(DesignSpec(factors=(a, b), interactions=((0, 1),)))
        rows = dm.distinct_rows
        assert [rows[t].counts.tolist() for t in ("a", "b", "a:b")] == [[3, 4], [3, 4], [4, 3]]
        assert int(dm.cell_ids.max()) + 1 == 4
        for r in rows.values():
            assert np.array_equal(r.inverse[r.first], np.arange(r.first.size))

    def test_scores_repeat_within_a_level(self):
        x, dm, _ = two_level_dataset(noise=0.05, seed=22)
        dec = fit(transform_rows(x.astype(complex)), dm)
        model = sca_fit(dec.levels["g"], dec.residuals, 1, rows=dec.distinct_rows("g"))
        assert np.all(model.scores[:4] == model.scores[0])
        assert np.all(model.scores[4:] == model.scores[4])

    def test_index_must_cover_the_effect_rows(self):
        x, dm, _ = two_level_dataset(seed=23)
        dec = fit(x.astype(complex), dm)
        with pytest.raises(DimensionMismatch):
            sca_fit(dec.effect("g"), dec.residuals, 1, rows=DistinctRows.all_distinct(5))
        # levels that fit the index, which covers 5 samples, not the 8 residual rows
        five = DistinctRows.of(np.array([[0], [0], [1], [1], [1]]))
        with pytest.raises(DimensionMismatch, match="differ"):
            sca_fit(dec.levels["g"], dec.residuals, 1, rows=five)

    def test_full_effect_with_an_index_is_refused(self):
        x, dm, _ = two_level_dataset(seed=24)
        dec = fit(transform_rows(x.astype(complex)), dm)
        rows = dec.distinct_rows("g")
        with pytest.raises(DimensionMismatch, match="distinct rows"):
            sca_fit(dec.effect("g"), dec.residuals, 1, rows=rows)
        with pytest.raises(DimensionMismatch, match="distinct rows"):
            default_components(dec.effect("g"), 1, rows=rows)

    def test_saturated_term_takes_its_rows_in_index_order(self):
        # one sample per level: U = N, so the level rows are the effect's
        # rows in the order of rows.first, and the fit matches the full SVD
        rng = np.random.default_rng(25)
        x = rng.normal(size=(4, 16)) + 1j * rng.normal(size=(4, 16))
        dm = encode(DesignSpec(factors=(Factor.from_labels("g", [2, 0, 3, 1]),)))
        dec = fit(x, dm)
        rows = dec.distinct_rows("g")
        assert rows.first.size == 4 and not np.array_equal(rows.first, np.arange(4))
        effect = dec.effect("g")
        residuals = 1e-3 * (rng.normal(size=(4, 16)) + 1j * rng.normal(size=(4, 16)))
        model = sca_fit(dec.levels["g"], residuals, 2, rows=rows)
        scores, projected, loadings, _ = full_sca_fit(effect, residuals, 2)
        assert np.allclose(model.loadings, loadings, rtol=0, atol=1e-8)
        assert np.allclose(model.scores, scores, rtol=0, atol=1e-8)
        assert np.allclose(model.projected_scores, projected, rtol=0, atol=1e-8)
