"""Dense complex-matrix kernel: Hermitian eigendecomposition and trace
norm, on the 2x2 complex numpy arrays of a qubit-only package.
All functions return fresh arrays; nothing mutates its input.
"""

from __future__ import annotations

import numpy as np

# Elementwise |A - A^dag| above this is treated as genuinely non-Hermitian.
HERMITICITY_TOL = 1e-12
# Eigenvalues in [-EIGENVALUE_CLAMP, 0] are round-off and get clamped to 0;
# anything more negative is an error.
EIGENVALUE_CLAMP = 1e-10


class NonHermitianError(ValueError):
    """Matrix fails the Hermiticity check beyond tolerance."""


class NotPositiveSemidefiniteError(ValueError):
    """Matrix has an eigenvalue below the round-off clamp."""


def as_square_complex(a) -> np.ndarray:
    """Coerce to a square complex128 array (copying if needed)."""
    m = np.array(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dag)/2; exact for already-Hermitian input."""
    return (a + a.conj().T) / 2


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest elementwise deviation |A - A^dag|."""
    return float(np.max(np.abs(a - a.conj().T)))


def hermitian_eig(a, tol: float = HERMITICITY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v) of a Hermitian matrix: A = v diag(w) v^dag,
    eigenvalues w ascending, eigenvectors in the columns of v.

    Raises NonHermitianError (with the offending deviation) if the input
    is not Hermitian within ``tol``.
    """
    m = as_square_complex(a)
    defect = hermiticity_defect(m)
    if defect > tol:
        raise NonHermitianError(
            f"matrix is not Hermitian: max|A - A^dag| = {defect:.3e} > {tol:.3e}"
        )
    w, v = np.linalg.eigh(m)
    return w, v


def trace_norm(a) -> float:
    """Sum of singular values (= sum |eigenvalues| for Hermitian input)."""
    s = np.linalg.svd(as_square_complex(a), compute_uv=False)
    return float(s.sum())
