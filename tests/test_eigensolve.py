"""Tests for the validated LAPACK Hermitian eigensolver."""

import numpy as np
import pytest

from reflectmimo import hermitian_eigh


def _random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def _random_gram(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T


class TestAgainstReference:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_eigenvalues_match_reference(self, n):
        matrix = _random_hermitian(n, seed=100 + n)
        values, _ = hermitian_eigh(matrix)
        # general (non-Hermitian) LAPACK solver: independent of eigh/eigvalsh
        reference = np.sort(np.linalg.eigvals(matrix).real)[::-1]
        scale = max(1.0, float(np.max(np.abs(reference))))
        assert np.max(np.abs(values - reference)) <= 1e-10 * scale

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_eigenpair_residuals(self, n):
        matrix = _random_hermitian(n, seed=200 + n)
        values, vectors = hermitian_eigh(matrix)
        residual = matrix @ vectors - vectors * values[np.newaxis, :]
        scale = max(1.0, float(np.linalg.norm(matrix)))
        assert np.linalg.norm(residual) <= 1e-9 * scale

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_vectors_unitary(self, n):
        matrix = _random_hermitian(n, seed=300 + n)
        _, vectors = hermitian_eigh(matrix)
        gram = vectors.conj().T @ vectors
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-10

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_reconstruction(self, n):
        matrix = _random_gram(n, seed=400 + n)
        values, vectors = hermitian_eigh(matrix)
        rebuilt = (vectors * values[np.newaxis, :]) @ vectors.conj().T
        rel = np.linalg.norm(rebuilt - matrix) / np.linalg.norm(matrix)
        assert rel <= 1e-9


class TestStructure:
    def test_values_sorted_descending(self):
        values, _ = hermitian_eigh(_random_hermitian(9, seed=7))
        assert np.all(np.diff(values) <= 1e-12)

    def test_gram_input_gives_nonnegative_values(self):
        values, _ = hermitian_eigh(_random_gram(7, seed=11))
        assert np.all(values >= -1e-9 * values[0])

    def test_diagonal_input(self):
        matrix = np.diag([3.0, -1.0, 5.0, 0.0]).astype(complex)
        values, vectors = hermitian_eigh(matrix)
        assert values == pytest.approx([5.0, 3.0, 0.0, -1.0])
        assert np.max(np.abs(np.abs(vectors) - np.eye(4)[:, [2, 0, 3, 1]])) <= 1e-12

    def test_single_entry(self):
        values, vectors = hermitian_eigh(np.array([[4.5 + 0.0j]]))
        assert values == pytest.approx([4.5])
        assert abs(abs(vectors[0, 0]) - 1.0) <= 1e-15

    def test_real_symmetric_input(self):
        matrix = np.array([[2.0, 1.0], [1.0, 2.0]])
        values, _ = hermitian_eigh(matrix)
        assert values == pytest.approx([3.0, 1.0], rel=1e-12)


class TestValidation:
    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eigh(np.zeros((2, 3), dtype=complex))

    def test_non_hermitian_rejected(self):
        matrix = np.array([[1.0, 2.0], [0.5, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match=(r"[Hh]ermitian")):
            hermitian_eigh(matrix)

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError):
            hermitian_eigh(np.zeros((2, 2, 2), dtype=complex))
