"""Dense complex linear algebra for small Hilbert spaces.

Hermitian eigendecomposition (LAPACK, through ``numpy.linalg.eigh``)
behind a Hermiticity precondition, plus unitary propagator synthesis
from the spectral form. Matrices are plain numpy ``complex128`` arrays;
every function returns fresh arrays and never mutates its inputs, so
results can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotHermitianError",
    "SpectralDecomposition",
    "as_complex_matrix",
    "hermitian_eig",
    "propagator",
]

#: default relative tolerance for the Hermiticity precondition
HERMITICITY_TOL = 1e-12


class NotHermitianError(ValueError):
    """Input matrix is not Hermitian within the requested tolerance."""


def as_complex_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a square complex matrix with finite entries.

    Returns a fresh ``complex128`` copy. Raises ``ValueError`` for
    non-square shapes or NaN/Inf entries.
    """
    m = np.array(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix.

    ``eigenvalues`` are real and sorted ascending (rad/s for Hamiltonians,
    hbar = 1); column k of ``eigenvectors`` is the eigenvector paired with
    ``eigenvalues[k]``, and the columns are orthonormal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])

    def reconstruct(self) -> np.ndarray:
        """Return V diag(lambda) V^dagger."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def hermitian_eig(a, tol: float = HERMITICITY_TOL) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix.

    The input is checked for Hermiticity, symmetrized, and handed to
    LAPACK through ``numpy.linalg.eigh``; eigenvalues come back in
    ascending order. Identical inputs give identical decompositions.

    Parameters
    ----------
    a : array_like
        Square matrix, Hermitian within ``tol`` (relative, Frobenius).
    tol : float
        Hermiticity tolerance for the precondition check.

    Raises
    ------
    NotHermitianError
        If ``||a - a^dagger|| > tol * ||a||``.
    """
    a = as_complex_matrix(a)
    norm_a = float(np.linalg.norm(a))
    if np.linalg.norm(a - a.conj().T) > tol * max(norm_a, np.finfo(float).tiny):
        raise NotHermitianError(
            f"matrix deviates from Hermiticity beyond relative tolerance {tol}"
        )
    # symmetrize so round-off asymmetry cannot reach the solver; within
    # the tolerance above this does not change the operator
    lam, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    return SpectralDecomposition(lam, v)


def propagator(spec: SpectralDecomposition, mu: float) -> np.ndarray:
    """Unitary time-evolution operator exp(-i H mu) from the eigensystem.

    ``mu`` is a duration in seconds (non-negative); the result is
    ``V diag(exp(-i lambda_k mu)) V^dagger``, unitary to round-off.
    """
    if mu < 0:
        raise ValueError("propagation time must be non-negative")
    v = spec.eigenvectors
    phases = np.exp(-1j * spec.eigenvalues * mu)
    return (v * phases) @ v.conj().T
