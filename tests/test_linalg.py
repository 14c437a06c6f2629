import numpy as np
import pytest

from fftasca.errors import DimensionMismatch, NonFiniteResult
from fftasca.linalg import (
    as_complex_matrix,
    hermitian,
    mean_center_columns,
    pinv,
    pinv_from_svd,
    ssq,
    svd,
)


def random_complex(rng, n, m):
    return rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))


class TestHermitian:
    def test_1x1_conjugate(self):
        out = hermitian(np.array([[1 + 2j]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == 1 - 2j

    def test_real_matrix_is_plain_transpose(self):
        a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert np.array_equal(hermitian(a), a.T)

    def test_involution(self):
        rng = np.random.default_rng(0)
        x = random_complex(rng, 3, 4)
        assert np.allclose(hermitian(hermitian(x)), x, atol=0)


class TestAsComplexMatrix:
    @pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2)])
    def test_array_that_is_not_2d_is_rejected(self, shape):
        with pytest.raises(DimensionMismatch, match="effect must be 2-D"):
            as_complex_matrix(np.ones(shape), "effect")

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(1.0, np.inf),
                                     complex(0.0, np.nan)])
    def test_non_finite_real_or_imaginary_part_is_rejected(self, bad):
        with pytest.raises(NonFiniteResult, match="effect contains non-finite entries"):
            as_complex_matrix(np.array([[1.0, bad]]), "effect")


class TestSsq:
    def test_single_entry(self):
        assert ssq(np.array([[1 + 1j]])) == pytest.approx(2.0, rel=1e-15)

    def test_zero_matrix(self):
        assert ssq(np.zeros((4, 3))) == 0.0

    def test_matches_elementwise_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = random_complex(rng, 5, 7)
        # independent oracle: explicit sum of re^2 + im^2
        expected = 0.0
        for i in range(5):
            for j in range(7):
                expected += x[i, j].real ** 2 + x[i, j].imag ** 2
        assert ssq(x) == pytest.approx(expected, rel=1e-12)

    def test_invariant_under_hermitian(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = random_complex(rng, 6, 3)
            assert ssq(x) == pytest.approx(ssq(hermitian(x)), rel=1e-12)

    @pytest.mark.parametrize("value", [1e200, 1e200 + 1e200j, -1e155j])
    def test_finite_matrix_whose_sum_overflows_is_refused(self, value):
        with pytest.raises(NonFiniteResult, match="sum of squares overflows"):
            ssq(np.full((2, 2), value))

    def test_additive_on_orthogonal_pair(self):
        # disjoint column support makes Tr(A B^H) = 0 exactly
        rng = np.random.default_rng(3)
        a = np.zeros((4, 6), dtype=complex)
        b = np.zeros((4, 6), dtype=complex)
        a[:, :3] = random_complex(rng, 4, 3)
        b[:, 3:] = random_complex(rng, 4, 3)
        assert ssq(a + b) == pytest.approx(ssq(a) + ssq(b), rel=1e-10)


class TestSvd:
    def test_identity(self):
        res = svd(np.eye(3))
        assert np.allclose(res.s, [1.0, 1.0, 1.0], atol=1e-12)

    def test_complex_diagonal_moduli(self):
        res = svd(np.array([[3.0, 0.0], [0.0, 2.0j]]))
        assert np.allclose(res.s, [3.0, 2.0], atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(4)
        x = random_complex(rng, 6, 4)
        res = svd(x)
        err = np.linalg.norm(res.reconstruct() - x) / np.linalg.norm(x)
        assert err < 1e-9

    def test_orthonormal_factors_and_order(self):
        rng = np.random.default_rng(5)
        x = random_complex(rng, 7, 5)
        res = svd(x)
        assert np.allclose(res.u.conj().T @ res.u, np.eye(5), atol=1e-10)
        assert np.allclose(res.v.conj().T @ res.v, np.eye(5), atol=1e-10)
        assert np.all(np.diff(res.s) <= 0)
        assert np.all(res.s >= 0)

    def test_real_vs_complex_embedding(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(6, 4))
        s_real = svd(a).s
        s_cplx = svd(a.astype(complex)).s
        assert np.allclose(s_real, s_cplx, atol=1e-10)


def rank_deficient(rng, n, m, rank):
    a = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    b = rng.normal(size=(rank, m)) + 1j * rng.normal(size=(rank, m))
    return a @ b


class TestPinv:
    def test_matches_closed_form_2x2(self):
        a = np.array([[3.0, 8.0], [4.0, 6.0]])
        det = 3.0 * 6.0 - 8.0 * 4.0
        expected = np.array([[6.0, -8.0], [-4.0, 3.0]]) / det
        assert np.allclose(pinv(a), expected, atol=1e-10)

    def test_rank_deficient_penrose(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        p = pinv(a)
        assert np.allclose(p @ a @ p, p, atol=1e-10)

    def test_left_inverse_of_full_column_rank(self):
        d = np.column_stack([np.ones(6), [1, 1, 1, -1, -1, -1]]).astype(float)
        assert np.allclose(pinv(d) @ d, np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("rank", [3, 4, 5])
    def test_all_four_penrose_conditions(self, rank):
        rng = np.random.default_rng(rank)
        a = rank_deficient(rng, 8, 5, rank)
        p = pinv(a)
        scale_ = np.linalg.norm(a)
        assert np.linalg.norm(a @ p @ a - a) < 1e-9 * scale_
        assert np.linalg.norm(p @ a @ p - p) < 1e-9 * np.linalg.norm(p)
        assert np.linalg.norm((a @ p).conj().T - a @ p) < 1e-9
        assert np.linalg.norm((p @ a).conj().T - p @ a) < 1e-9

    @pytest.mark.parametrize("shape", [(3, 5), (4, 2)])
    def test_zero_matrix_gives_complex_zeros_of_the_transposed_shape(self, shape):
        zero = np.zeros(shape)
        for p in (pinv(zero), pinv_from_svd(svd(zero), shape)):
            assert (p.dtype, p.shape) == (np.complex128, shape[::-1])
            assert not p.any()


class TestArithmetic:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            as_complex_matrix(np.array([[np.nan, 1.0]]))
        with pytest.raises(ValueError):
            as_complex_matrix(np.array([[np.inf + 0j, 1.0]]))


class TestMeanCenter:
    def test_constant_columns_become_zero(self):
        x = np.tile([[2.0, -1.0, 7.0]], (5, 1))
        assert np.allclose(mean_center_columns(x), 0.0, atol=1e-14)

    def test_column_means_zero(self):
        rng = np.random.default_rng(9)
        x = random_complex(rng, 8, 6)
        centered = mean_center_columns(x)
        assert np.max(np.abs(centered.mean(axis=0))) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(10)
        x = random_complex(rng, 8, 6)
        once = mean_center_columns(x)
        assert np.allclose(mean_center_columns(once), once, atol=1e-12)

    def test_overflowing_mean_is_non_finite(self):
        # the column sum passes -1.8e308
        x = np.array([[0.0], [-3.49272054168576e293], [-1.7976931348623123e308]])
        with pytest.raises(NonFiniteResult):
            mean_center_columns(x)
