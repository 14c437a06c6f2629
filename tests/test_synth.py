import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from fftasca import synth
from fftasca.design import encode
from fftasca.errors import ConfigInvalid, DomainError, NonFiniteResult
from fftasca.glm import permutation_test
from fftasca.synth import (
    SynthConfig,
    _ndtri,
    generate,
    jitter_experiment,
    p_to_z,
)


def small_config(**overrides):
    base = dict(n_acquisitions=1000, n_peaks=5, n_significant=3,
                effect_size=4.0, seed=0)
    base.update(overrides)
    return SynthConfig(**base)


class TestGenerate:
    def test_reproducible_bitwise(self):
        cfg = small_config(jitter_max=20, seed=42)
        d1 = generate(cfg)
        d2 = generate(cfg)
        assert np.array_equal(d1.x_time, d2.x_time)
        assert np.array_equal(d1.applied_jitter, d2.applied_jitter)

    def test_different_seed_differs(self):
        d1 = generate(small_config(seed=1))
        d2 = generate(small_config(seed=2))
        assert not np.array_equal(d1.x_time, d2.x_time)

    def test_degenerate_config_gives_identical_rows(self):
        cfg = small_config(jitter_max=0, noise_sd=0.0, effect_size=0.0)
        data = generate(cfg)
        assert np.max(np.abs(data.x_time - data.x_time[0])) == 0.0

    def test_strong_effect_hits_p_floor_at_zero_jitter(self):
        cfg = small_config(n_acquisitions=1200, replicates_per_level=10,
                           effect_size=10.0, seed=3)
        data = generate(cfg)
        table = permutation_test(data.x_time, encode(data.design),
                                 n_permutations=1000, seed=7)
        assert table.row("group").p_value == pytest.approx(1 / 1001, abs=1e-12)

    def test_noiseless_peak_integrals_match_quadrature(self):
        cfg = small_config(noise_sd=0.0, effect_size=0.0, jitter_max=0)
        data = generate(cfg)
        row = data.x_time[0]
        for peak in data.truth:
            half = int(8 * peak.sigma)
            window = slice(peak.center - half, peak.center + half + 1)
            area = np.trapezoid(row[window])
            expected = peak.level_means[0] * peak.sigma * math.sqrt(2 * math.pi)
            assert area == pytest.approx(expected, rel=0.01)

    def test_order_preserved_at_max_jitter(self):
        cfg = SynthConfig(n_acquisitions=3000, n_peaks=8, n_significant=4,
                          jitter_max=50, effect_size=2.0, seed=9)
        data = generate(cfg)
        centers = np.array([p.center for p in data.truth])
        shifted = centers[None, :] + data.applied_jitter
        assert np.all(np.diff(shifted, axis=1) > 0)
        assert data.applied_jitter.min() >= 0
        assert data.applied_jitter.max() <= 50

    @settings(max_examples=60, deadline=None)
    @given(sigma=st.floats(0.25, 8.0), n_peaks=st.integers(1, 12),
           jitter_max=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
    def test_order_preserved_at_the_spacing_limit(self, sigma, n_peaks, jitter_max, seed):
        # the fewest acquisitions that validate() accepts for these bands
        m = math.floor(2 * (4 * sigma + jitter_max) * (n_peaks + 1)) + 1
        if m / (n_peaks + 1) <= 2 * (4 * sigma + jitter_max):
            m += 1
        cfg = SynthConfig(n_acquisitions=m, n_peaks=n_peaks, n_significant=0,
                          peak_sigma=sigma, jitter_max=jitter_max,
                          replicates_per_level=3, seed=seed)
        data = generate(cfg)
        with pytest.raises(ConfigInvalid, match="peaks too dense"):
            replace(cfg, n_acquisitions=m - 1).validate()
        centers = np.array([p.center for p in data.truth])
        # no shift of at most jitter_max, not only the drawn one, reorders them
        assert np.all(np.diff(centers) > jitter_max)
        shifted = centers[None, :] + data.applied_jitter
        assert np.all(np.diff(shifted, axis=1) > 0)

    def test_truth_level_means_encode_the_shift(self):
        data = generate(small_config(effect_size=5.0, seed=4))
        for peak in data.truth:
            lo, hi = peak.level_means
            if peak.significant:
                assert hi > lo
            else:
                assert hi == lo

    def test_design_is_balanced_two_level(self):
        data = generate(small_config(replicates_per_level=3))
        labels = data.design.factors[0].labels
        assert labels == (0, 0, 0, 1, 1, 1)


class TestConfigValidation:
    def test_too_dense_rejected(self):
        with pytest.raises(ConfigInvalid):
            SynthConfig(n_acquisitions=200, n_peaks=10, seed=0).validate()

    def test_jitter_out_of_range_rejected(self):
        with pytest.raises(ConfigInvalid):
            small_config(jitter_max=60).validate()
        with pytest.raises(ConfigInvalid):
            small_config(jitter_max=-1).validate()

    def test_significant_count_bounded(self):
        with pytest.raises(ConfigInvalid):
            small_config(n_peaks=3, n_significant=4).validate()

    @pytest.mark.parametrize("setting, message", [
        ({"n_acquisitions": 0}, "n_acquisitions must be positive"),
        ({"replicates_per_level": 0}, "replicates_per_level must be positive"),
        ({"peak_sigma": 0.0}, "peak_sigma must be positive"),
        ({"peak_sigma": -1.0}, "peak_sigma must be positive"),
    ])
    def test_non_positive_sizes_rejected(self, setting, message):
        with pytest.raises(ConfigInvalid, match=message):
            small_config(**setting).validate()

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigInvalid):
            small_config(noise_sd=-0.5).validate()

    @pytest.mark.parametrize("setting", [{"effect_size": math.nan}, {"effect_size": -math.inf},
                                         {"noise_sd": math.nan}, {"noise_sd": math.inf}])
    def test_non_finite_settings_rejected(self, setting):
        with pytest.raises(ConfigInvalid, match="must be finite"):
            small_config(**setting).validate()

    @pytest.mark.parametrize("setting", [{"effect_size": 1e200}, {"noise_sd": 1e200},
                                         {"noise_sd": 1e308, "n_significant": 0}])
    def test_overflowing_settings_raise(self, setting):
        with pytest.raises(NonFiniteResult, match="past the floating-point range"):
            generate(small_config(**setting))

    def test_generate_validates(self):
        with pytest.raises(ConfigInvalid):
            generate(SynthConfig(n_acquisitions=100, n_peaks=10, seed=0))


class TestPToZ:
    def test_half_maps_to_zero(self):
        assert p_to_z(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_normal_table_value(self):
        assert p_to_z(0.0228) == pytest.approx(2.0, abs=1e-3)

    def test_permutation_floor_value(self):
        assert p_to_z(1 / 1001) == pytest.approx(3.09, abs=1e-2)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            p_to_z(0.0)
        with pytest.raises(DomainError):
            p_to_z(1.0001)
        with pytest.raises(DomainError):
            p_to_z(-0.2)

    def test_p_one_is_negative_infinity(self):
        assert p_to_z(1.0) == -math.inf


def same_bits(got, want):
    return float(got).hex() == float(want).hex()


class TestNdtriPort:
    """The Cephes ``ndtri`` port against ``scipy.special.ndtri``, bit for bit."""

    @settings(max_examples=500, deadline=None)
    @given(y=st.one_of(st.floats(0.0, 1.0),
                       st.floats(-745.0, 0.0).map(math.exp),
                       st.floats(-745.0, 0.0).map(lambda v: 1.0 - math.exp(v))))
    def test_equals_scipy(self, y):
        assert same_bits(_ndtri(y), ndtri(y))

    def test_permutation_lattices(self):
        for b in (1, 9, 19, 99, 199, 200, 999, 1000, 4999, 9999):
            lattice = np.arange(b + 2) / (b + 1)
            want = ndtri(lattice)
            assert all(same_bits(_ndtri(y), w) for y, w in zip(lattice.tolist(), want))

    @pytest.mark.parametrize("y", [math.exp(-2), 1 - math.exp(-2), math.exp(-32), 5e-324,
                                   1 - 2**-53, 0.5, 0.0, 1.0])
    def test_branch_edges(self, y):
        assert same_bits(_ndtri(y), ndtri(y))


class TestJitterExperiment:
    def test_rows_and_determinism(self):
        cfg = small_config(n_acquisitions=900, effect_size=6.0)
        rows1 = jitter_experiment(cfg, [0, 30], trials=2,
                                  n_permutations=49, seed=11)
        rows2 = jitter_experiment(cfg, [0, 30], trials=2,
                                  n_permutations=49, seed=11)
        assert rows1 == rows2
        assert [(r.jitter, r.trial) for r in rows1] == \
            [(0, 0), (0, 1), (30, 0), (30, 1)]
        for r in rows1:
            assert isinstance(r.z_time, float) and isinstance(r.z_freq, float)
            assert not math.isnan(r.z_time) and not math.isnan(r.z_freq)

    def test_trials_are_independent_of_grid(self):
        # the trial at a given (jitter, index) does not depend on which other
        # levels were requested
        cfg = small_config(n_acquisitions=900, effect_size=6.0)
        lone = jitter_experiment(cfg, [30], trials=1, n_permutations=49, seed=11)
        both = jitter_experiment(cfg, [0, 30], trials=1, n_permutations=49, seed=11)
        assert lone[0] == both[1]

    @pytest.mark.parametrize("levels, message", [
        ([0, 10, 60], "jitter_max must lie in"),
        ([0, 30], "peaks too dense"),  # spacing 1000/11 is not above 2 * (4 * 5 + 30)
    ])
    def test_every_level_is_checked_before_the_first_trial(self, monkeypatch, levels, message):
        def generate_called(cfg):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(synth, "generate", generate_called)
        with pytest.raises(ConfigInvalid, match=message):
            jitter_experiment(small_config(n_peaks=10), levels, trials=2, n_permutations=49)

    def test_design_is_encoded_once_per_call(self, monkeypatch):
        # every trial has the same two-level design
        calls = []
        monkeypatch.setattr(synth, "encode", lambda spec: calls.append(spec) or encode(spec))
        cfg = small_config(n_acquisitions=900, effect_size=6.0)
        rows = jitter_experiment(cfg, [0, 30], trials=2, n_permutations=49, seed=11)
        assert len(rows) == 4 and len(calls) == 1
        assert calls[0] == generate(cfg).design

    def test_one_permutation_stream_per_trial(self, stream_draws):
        # the time and the magnitude test of a trial share its stream
        cfg = small_config(n_acquisitions=900, effect_size=6.0)
        rows = jitter_experiment(cfg, [0, 30], trials=2, n_permutations=49, seed=11)
        assert len(stream_draws) == 2 * len(rows) == 8
        assert stream_draws[0::2] == stream_draws[1::2]
        assert len(set(stream_draws)) == 4
