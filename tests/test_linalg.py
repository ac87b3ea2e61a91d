import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slepbeam.linalg import (
    ConvergenceError,
    NotPositiveDefiniteError,
    cholesky,
    eigh_hermitian,
    eigh_symmetric,
    generalized_eigh,
    hermitize,
    quadratic_form,
)


def random_symmetric(order, seed):
    """Random matrix with its upper triangle mirrored onto the lower."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((order, order))
    return np.triu(a) + np.triu(a, 1).T


def random_hermitian(order, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
    return hermitize(a)


class TestEighSymmetric:
    def test_identity(self):
        dec = eigh_symmetric(np.eye(3))
        np.testing.assert_array_equal(dec.eigenvalues, [1.0, 1.0, 1.0])

    def test_analytic_2x2(self):
        dec = eigh_symmetric([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-14)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(
            np.abs(dec.eigenvectors),
            [[inv_sqrt2, inv_sqrt2], [inv_sqrt2, inv_sqrt2]],
            atol=1e-14,
        )
        # columns up to sign: [1, 1] and [1, -1]
        assert dec.eigenvectors[0, 0] * dec.eigenvectors[1, 0] > 0
        assert dec.eigenvectors[0, 1] * dec.eigenvectors[1, 1] < 0

    def test_random_reconstruction(self):
        s = random_symmetric(8, seed=1)
        dec = eigh_symmetric(s)
        residual = s @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
        assert np.max(np.abs(residual)) < 1e-10
        rebuilt = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
        np.testing.assert_allclose(rebuilt, s, atol=1e-12)

    def test_matches_numpy(self):
        s = random_symmetric(10, seed=2)
        ours = eigh_symmetric(s).eigenvalues
        theirs = np.linalg.eigvalsh(s)[::-1]
        np.testing.assert_allclose(ours, theirs, atol=1e-12)

    def test_descending_order_and_orthonormal(self):
        dec = eigh_symmetric(random_symmetric(7, seed=3))
        assert np.all(np.diff(dec.eigenvalues) <= 0)
        gram = dec.eigenvectors.T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(7))) < 1e-10

    def test_deterministic(self):
        s = random_symmetric(6, seed=4)
        first = eigh_symmetric(s)
        second = eigh_symmetric(s)
        np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
        np.testing.assert_array_equal(first.eigenvectors, second.eigenvectors)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigh_symmetric([[1.0, 2.0], [3.0, 4.0]])

    def test_zero_matrix(self):
        dec = eigh_symmetric(np.zeros((4, 4)))
        np.testing.assert_array_equal(dec.eigenvalues, np.zeros(4))

    def test_sign_convention(self):
        # largest-magnitude entry of every eigenvector has positive real part
        dec = eigh_symmetric(random_symmetric(9, seed=5))
        for k in range(9):
            col = dec.eigenvectors[:, k]
            assert col[np.argmax(np.abs(col))] > 0


class TestEighHermitian:
    def test_analytic_2x2(self):
        h = np.array([[1.0, 1j], [-1j, 1.0]])
        dec = eigh_hermitian(h)
        np.testing.assert_allclose(dec.eigenvalues, [2.0, 0.0], atol=1e-14)

    def test_real_diagonal(self):
        dec = eigh_hermitian(np.diag([3.0, -1.0, 5.0]).astype(complex))
        np.testing.assert_allclose(dec.eigenvalues, [5.0, 3.0, -1.0], atol=1e-14)

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        h = hermitize(np.outer(a, a.conj()))
        dec = eigh_hermitian(h)
        expected = np.zeros(5)
        expected[0] = np.linalg.norm(a) ** 2
        np.testing.assert_allclose(dec.eigenvalues, expected, atol=1e-12)

    def test_matches_numpy(self):
        h = random_hermitian(8, seed=7)
        ours = eigh_hermitian(h).eigenvalues
        theirs = np.linalg.eigvalsh(h)[::-1]
        np.testing.assert_allclose(ours, theirs, atol=1e-12)

    def test_orthonormal_and_residual(self):
        h = random_hermitian(9, seed=8)
        dec = eigh_hermitian(h)
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(9))) < 1e-10
        residual = h @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
        assert np.max(np.abs(residual)) < 1e-9 * np.linalg.norm(h, "fro")

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigh_hermitian([[1.0, 1j], [1j, 1.0]])


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_trace_equals_eigenvalue_sum(order, seed):
    s = random_symmetric(order, seed)
    values = eigh_symmetric(s).eigenvalues
    trace = float(np.trace(s))
    assert abs(math.fsum(values) - trace) <= 1e-9 * max(1.0, abs(trace))


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_hermitian_trace_identity(order, seed):
    h = random_hermitian(order, seed)
    values = eigh_hermitian(h).eigenvalues
    trace = float(np.trace(h).real)
    assert abs(math.fsum(values) - trace) <= 1e-9 * max(1.0, abs(trace))


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_hand_checkable_2x2(self):
        lower = cholesky([[4.0, 2.0], [2.0, 5.0]])
        np.testing.assert_allclose(lower, [[2.0, 0.0], [1.0, 2.0]], atol=1e-15)

    def test_reconstruction_complex(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        p = hermitize(a @ a.conj().T + 6 * np.eye(6))
        lower = cholesky(p)
        err = np.max(np.abs(lower @ lower.conj().T - p))
        assert err <= 1e-10 * np.max(np.abs(p))
        assert np.max(np.abs(np.triu(lower, 1))) == 0.0

    def test_out_of_band_energy_matrix_is_pd(self):
        # 2I - A(W) at half-wavelength spacing: out-of-band energy is positive
        from slepbeam.array_model import ArrayConfig
        from slepbeam.concentration import concentration_matrix, min_eigenvalue

        band = concentration_matrix(ArrayConfig(5, 0.5), 0.3)
        complement = 2.0 * np.eye(5) - band.entries
        cholesky(complement)  # must not raise
        assert min_eigenvalue(complement) > 0

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
            cholesky([[1.0, 2.0], [2.0, 1.0]])


def top_eigenpair(a, b):
    """The maximizer of (v A v^H) / (v B v^H) and its value."""
    values, vectors = generalized_eigh(a, b)
    return values[0], vectors[:, 0]


class TestGeneralizedMaxEigvec:
    def test_identity_denominator_reduces_to_top_eigenpair(self):
        a = random_hermitian(5, seed=10)
        value, vector = top_eigenpair(a, np.eye(5, dtype=complex))
        dec = eigh_hermitian(a)
        assert value == pytest.approx(dec.eigenvalues[0], abs=1e-12)
        assert abs(quadratic_form(vector, a)) == pytest.approx(value, abs=1e-12)

    def test_diagonal_analytic(self):
        value, vector = top_eigenpair(
            np.diag([3.0, 1.0]).astype(complex), np.diag([1.0, 1.0]).astype(complex)
        )
        assert value == pytest.approx(3.0, abs=1e-14)
        np.testing.assert_allclose(np.abs(vector), [1.0, 0.0], atol=1e-14)

    def test_dominates_random_sampling(self):
        rng = np.random.default_rng(11)
        a = random_hermitian(6, seed=12)
        root = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = hermitize(root @ root.conj().T + 6 * np.eye(6))
        value, vector = top_eigenpair(a, b)
        assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-12)
        # the returned value is achieved by the returned vector (row convention)
        achieved = quadratic_form(vector, a) / quadratic_form(vector, b)
        assert achieved == pytest.approx(value, rel=1e-10)
        samples = rng.standard_normal((100_000, 6)) + 1j * rng.standard_normal((100_000, 6))
        num = np.real(np.einsum("ij,jk,ik->i", samples, a, samples.conj()))
        den = np.real(np.einsum("ij,jk,ik->i", samples, b, samples.conj()))
        assert value >= np.max(num / den)

    def test_quotient_bound_property(self):
        rng = np.random.default_rng(13)
        a = random_hermitian(4, seed=14)
        b = hermitize(np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex))
        value, _ = top_eigenpair(a, b)
        for _ in range(1000):
            z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            z /= np.linalg.norm(z)
            assert value >= quadratic_form(z, a) / quadratic_form(z, b) - 1e-12

    def test_rejects_indefinite_denominator(self):
        a = random_hermitian(3, seed=15)
        with pytest.raises(NotPositiveDefiniteError):
            top_eigenpair(a, -np.eye(3, dtype=complex))

    def test_full_spectrum_descending(self):
        a = random_hermitian(5, seed=16)
        b = hermitize(random_hermitian(5, seed=17) @ random_hermitian(5, seed=17).conj().T + 5 * np.eye(5))
        values, vectors = generalized_eigh(a, b)
        assert np.all(np.diff(values) <= 1e-12)
        for k in range(5):
            v = vectors[:, k]
            assert quadratic_form(v, a) / quadratic_form(v, b) == pytest.approx(
                values[k], rel=1e-9, abs=1e-9
            )


class TestHelpers:
    def test_hermitize_exact(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = hermitize(a)
        assert np.array_equal(h, h.conj().T)
        assert np.all(h.diagonal().imag == 0.0)

    def test_quadratic_form_row_convention(self):
        # v A v^H with v as a row vector, weights unconjugated on the left
        a = np.array([[0.0, 1j], [-1j, 0.0]])
        v = np.array([1.0, 1j]) / math.sqrt(2.0)
        assert quadratic_form(v, a) == pytest.approx(1.0, abs=1e-15)

    def test_convergence_error_exists(self):
        assert issubclass(ConvergenceError, RuntimeError)
