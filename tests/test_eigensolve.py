"""Tests for the channel eigenvalues: squared singular values of H, checked
against the eigenvalues of the Gram matrix H H* and exact constructions."""

import numpy as np
import pytest

from reflectmimo import raw_eigenvalues


def _random_matrix(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _random_unitary(n, seed):
    q, _ = np.linalg.qr(_random_matrix(n, seed))
    return q


def _sylvester_hadamard(n):
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


class TestAgainstReference:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_eigenvalues_match_reference(self, n):
        a = _random_matrix(n, seed=100 + n)
        values = raw_eigenvalues(a)
        # general (non-Hermitian) LAPACK solver on the Gram matrix: independent of the SVD
        reference = np.sort(np.linalg.eigvals(a @ a.conj().T).real)[::-1]
        scale = max(1.0, float(np.max(np.abs(reference))))
        assert np.max(np.abs(values - reference)) <= 1e-10 * scale

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_eigenpair_residuals(self, n):
        a = _random_matrix(n, seed=200 + n)
        gram = a @ a.conj().T
        scale = max(1.0, float(np.linalg.norm(gram)))
        for value in raw_eigenvalues(a):
            shifted = gram - value * np.eye(n)
            assert np.min(np.abs(np.linalg.eigvals(shifted))) <= 1e-9 * scale

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_vectors_unitary(self, n):
        a = _random_matrix(n, seed=300 + n)
        left, right = _random_unitary(n, seed=310 + n), _random_unitary(n, seed=320 + n)
        base = raw_eigenvalues(a)
        rotated = raw_eigenvalues(left @ a @ right)
        assert np.max(np.abs(rotated - base)) <= 1e-10

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_reconstruction(self, n):
        a = _random_matrix(n, seed=400 + n)
        values = raw_eigenvalues(a)
        power = np.linalg.norm(a, "fro") ** 2
        assert abs(values.sum() - power) <= 1e-9 * power
        determinant = abs(np.linalg.det(a)) ** 2
        assert abs(np.prod(values) - determinant) <= 1e-9 * determinant

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_small_singular_values_exact(self, n):
        """H = Q diag(phases) diag(sigma) Q^T with Q = H_n / sqrt(n) a
        Sylvester-Hadamard matrix, exactly orthogonal in binary, so the
        singular values of H are sigma down to 1e-7 of the largest."""
        q = _sylvester_hadamard(n) / np.sqrt(n)
        sigma = np.logspace(0.0, -7.0, n)
        phases = np.exp(1j * np.random.default_rng(500 + n).uniform(0.0, 2.0 * np.pi, n))
        h = (q * (phases * sigma)[np.newaxis, :]) @ q.T
        error = np.max(np.abs(np.sqrt(raw_eigenvalues(h)) - sigma))
        assert error <= 4 * n * np.finfo(float).eps * sigma[0]


class TestStructure:
    def test_values_sorted_descending(self):
        values = raw_eigenvalues(_random_matrix(9, seed=7))
        assert np.all(np.diff(values) <= 0.0)

    def test_gram_input_gives_nonnegative_values(self):
        assert np.all(raw_eigenvalues(_random_matrix(7, seed=11)) >= 0.0)

    def test_diagonal_input(self):
        matrix = np.diag([3.0, -1.0, 5.0, 0.0]).astype(complex)
        assert raw_eigenvalues(matrix) == pytest.approx([25.0, 9.0, 1.0, 0.0])

    def test_single_entry(self):
        assert raw_eigenvalues(np.array([[4.5 + 0.0j]])) == pytest.approx([20.25])

    def test_real_symmetric_input(self):
        matrix = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert raw_eigenvalues(matrix) == pytest.approx([9.0, 1.0], rel=1e-12)


class TestValidation:
    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            raw_eigenvalues(np.zeros((2, 2, 2), dtype=complex))
