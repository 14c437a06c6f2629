import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fftasca.errors import EmptySignal, NonFiniteResult
from fftasca.spectral import (
    dft_forward,
    dft_inverse,
    inverse_rows,
    parseval_check,
    reversed_conjugate,
    transform_rows,
)


def naive_dft(x):
    """O(M^2) reference transform with exact angle reduction."""
    x = np.asarray(x, dtype=np.complex128)
    m = x.size
    table = np.exp(-2j * np.pi * np.arange(m) / m)
    ks = np.arange(m)
    out = np.empty(m, dtype=np.complex128)
    for start in range(0, m, 256):
        blk = ks[start:start + 256]
        out[start:start + 256] = table[(blk[:, None] * ks[None, :]) % m] @ x
    return out


class TestForward:
    def test_constant_is_dc_only(self):
        x = np.full(16, 3.5)
        spec = dft_forward(x)
        assert spec[0] == pytest.approx(16 * 3.5)
        assert np.max(np.abs(spec[1:])) < 1e-12

    def test_impulse_is_flat(self):
        x = np.zeros(32)
        x[0] = 1.0
        assert np.allclose(dft_forward(x), np.ones(32), atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=300)
        ours = dft_forward(x)
        ref = naive_dft(x)
        assert np.max(np.abs(ours - ref)) / np.max(np.abs(ref)) < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(EmptySignal):
            dft_forward(np.array([]))
        with pytest.raises(EmptySignal, match="1-D signal"):
            dft_forward(np.ones((2, 4)))

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=128)
        y = rng.normal(size=128)
        a, b = 2.7, -1.3
        lhs = dft_forward(a * x + b * y)
        rhs = a * dft_forward(x) + b * dft_forward(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(lhs))


class TestInverse:
    def test_round_trip_long_random(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=1000)
        back = dft_inverse(dft_forward(x))
        assert np.max(np.abs(back - x)) < 1e-10

    def test_zero_spectrum(self):
        assert np.allclose(dft_inverse(np.zeros(8, dtype=complex)), 0.0, atol=0)

    def test_dc_spectrum_gives_ones(self):
        spec = np.zeros(12, dtype=complex)
        spec[0] = 12.0
        assert np.allclose(dft_inverse(spec), np.ones(12), atol=1e-13)

    def test_empty_rejected(self):
        with pytest.raises(EmptySignal):
            dft_inverse(np.array([], dtype=complex))
        with pytest.raises(EmptySignal, match="1-D spectrum"):
            dft_inverse(np.ones((2, 4), dtype=complex))


class TestRows:
    def test_single_row_matches_vector_op(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=50)
        mat = transform_rows(x[None, :].astype(complex))
        assert mat.shape == (1, 50)
        assert np.allclose(mat[0], dft_forward(x), atol=0)

    def test_real_rows_are_conjugate_symmetric(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 500))
        spec = transform_rows(x.astype(complex))
        for row in spec:
            mirrored = np.conj(row[(-np.arange(500)) % 500])
            assert np.max(np.abs(row - mirrored)) < 1e-9 * np.max(np.abs(row))

    def test_zero_length_rows_are_rejected(self):
        with pytest.raises(EmptySignal, match="zero-length rows"):
            transform_rows(np.ones((3, 0)))
        with pytest.raises(EmptySignal, match="zero-length rows"):
            inverse_rows(np.ones((3, 0), dtype=complex))

    def test_round_trip_matrix(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(20, 4096)).astype(complex)
        back = inverse_rows(transform_rows(x))
        assert np.max(np.abs(back - x)) < 1e-9


class TestParseval:
    def test_impulse(self):
        x = np.zeros(9)
        x[0] = 1.0
        assert parseval_check(x) == (1.0, pytest.approx(1.0, rel=1e-14))

    @pytest.mark.parametrize("x", [np.array([]), np.ones((2, 3))], ids=["empty", "2-D"])
    def test_signal_that_is_not_a_non_empty_1d_array_is_rejected(self, x):
        with pytest.raises(EmptySignal, match="non-empty 1-D"):
            parseval_check(x)

    def test_constant_times_four(self):
        t, f = parseval_check(np.full(4, 2.0))
        assert t == pytest.approx(16.0)
        assert f == pytest.approx(16.0, rel=1e-14)

    def test_random_odd_length(self):
        rng = np.random.default_rng(6)
        t, f = parseval_check(rng.normal(size=777))
        assert f == pytest.approx(t, rel=1e-10)

    def test_matrix_constant_is_source_length(self):
        rng = np.random.default_rng(7)
        for m in (33, 128, 501):
            x = rng.normal(size=(6, m))
            spec = transform_rows(x.astype(complex))
            freq = np.sum(np.abs(spec) ** 2)
            time = np.sum(x * x)
            assert freq == pytest.approx(m * time, rel=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(x=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 300)),
                    elements=st.floats(-1e6, 1e6)))
    def test_parseval_constant_is_m_for_any_real_rows(self, x):
        m = x.shape[1]
        freq = np.sum(np.abs(transform_rows(x)) ** 2)
        time = float(np.sum(x * x))
        assert freq == pytest.approx(m * time, rel=1e-9, abs=1e-300)
        for row in x:
            t, f = parseval_check(row)
            assert f == pytest.approx(t, rel=1e-9, abs=1e-300)


class TestNonFinite:
    """The 1-D forms and parseval_check refuse what the row forms refuse,
    without a numpy RuntimeWarning on the way."""

    @pytest.mark.parametrize("transform", [dft_forward, dft_inverse])
    @pytest.mark.parametrize("signal", [[np.nan, 1.0], [1.0, np.inf], np.full(4, 1e308)],
                             ids=["nan", "inf", "overflow"])
    def test_one_d_forms_raise(self, transform, signal):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteResult, match="non-finite entries"):
                transform(signal)

    @pytest.mark.parametrize("signal", [[np.nan, 1.0], np.full(4, 1e200)],
                             ids=["nan", "overflow"])
    def test_parseval_check_raises(self, signal):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteResult):
                parseval_check(signal)


class TestFastPathAgainstNaive:
    @pytest.mark.parametrize("m", [1, 2, 7, 64, 300, 5000])
    def test_composite_and_prime_lengths(self, m):
        rng = np.random.default_rng(m)
        x = rng.normal(size=m)
        ours = dft_forward(x)
        ref = naive_dft(x)
        scale = max(np.max(np.abs(ref)), 1e-300)
        assert np.max(np.abs(ours - ref)) / scale < 1e-9


class TestShiftPhase:
    def test_shift_rotates_phase_only(self):
        rng = np.random.default_rng(8)
        m, shift = 240, 17
        x = rng.normal(size=m)
        base = dft_forward(x)
        shifted = dft_forward(np.roll(x, shift))
        k = np.arange(m)
        assert np.allclose(shifted, base * np.exp(-2j * np.pi * k * shift / m),
                           atol=1e-10 * np.max(np.abs(base)))
        assert np.max(np.abs(np.abs(shifted) - np.abs(base))) \
            < 1e-10 * np.max(np.abs(base))


class TestReversedConjugate:
    def test_real_signal_spectrum_is_fixed_point(self):
        rng = np.random.default_rng(9)
        spec = dft_forward(rng.normal(size=64))
        assert np.max(np.abs(reversed_conjugate(spec) - spec)) \
            < 1e-12 * np.max(np.abs(spec))
