"""Validated Hermitian eigendecomposition on top of LAPACK.

``numpy.linalg.eigh`` reads only one triangle of its input and returns
ascending values; this wrapper rejects inputs that are not Hermitian, so a
wrong matrix cannot pass silently, and returns values in descending order.
"""

from __future__ import annotations

import numpy as np


def hermitian_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvector columns.

    ``matrix`` must be Hermitian to about sqrt(machine) relative accuracy,
    which admits the round-off asymmetry of a computed Gram product.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        msg = f"expected a square matrix, got shape {a.shape}"
        raise ValueError(msg)
    scale = np.linalg.norm(a)
    if scale > 0.0 and np.linalg.norm(a - a.conj().T) > 1e-8 * scale:
        raise ValueError("matrix is not Hermitian")
    values, vectors = np.linalg.eigh(a)
    return values[::-1], vectors[:, ::-1]
