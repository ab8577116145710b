"""Quantum domain objects and primitives.

States, POVM elements/sets, the Born rule, fidelity and Bures metrics,
the qubit mutually-unbiased-basis projector set, and random-state
sampling (Haar-uniform pure states, Bures-ensemble mixed states).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg

TRACE_TOL = 1e-10
# Elements with Tr M below this are treated as inert (unmeasurable).
INERT_WEIGHT = 1e-12


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD operator. Immutable after construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = linalg.as_square_complex(self.matrix)
        defect = linalg.hermiticity_defect(m)
        if defect > linalg.HERMITICITY_TOL:
            raise linalg.NonHermitianError(
                f"density matrix not Hermitian: defect {defect:.3e}"
            )
        tr = m.trace().real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} != 1")
        w = np.linalg.eigvalsh(m)
        if w[0] < -linalg.EIGENVALUE_CLAMP:
            raise linalg.NotPositiveSemidefiniteError(
                f"density matrix has eigenvalue {w[0]:.3e}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float((self.matrix @ self.matrix).trace().real)


@dataclass(frozen=True)
class PovmElement:
    """Hermitian PSD measurement operator; weight is its trace."""

    matrix: np.ndarray
    weight: float = field(init=False)  # derived: Tr(matrix)

    def __post_init__(self):
        m = linalg.as_square_complex(self.matrix)
        defect = linalg.hermiticity_defect(m)
        if defect > linalg.HERMITICITY_TOL:
            raise linalg.NonHermitianError(
                f"POVM element not Hermitian: defect {defect:.3e}"
            )
        w = np.linalg.eigvalsh(m)
        if w[0] < -linalg.EIGENVALUE_CLAMP:
            raise linalg.NotPositiveSemidefiniteError(
                f"POVM element has eigenvalue {w[0]:.3e}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "weight", float(m.trace().real))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def inert(self) -> bool:
        return self.weight <= INERT_WEIGHT


@dataclass(frozen=True)
class Povm:
    """Ordered set of measurement operators of one dimension."""

    elements: tuple[PovmElement, ...]

    def __post_init__(self):
        elements = tuple(self.elements)
        if not elements:
            raise ValueError("POVM needs at least one element")
        d = elements[0].dim
        if any(e.dim != d for e in elements):
            raise ValueError("POVM elements have mismatched dimensions")
        object.__setattr__(self, "elements", elements)

    @property
    def dim(self) -> int:
        return self.elements[0].dim


def projector(vec) -> np.ndarray:
    """|v><v| for a 1D complex vector (not normalized here)."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def pure_state(vec) -> DensityMatrix:
    """Density matrix of a normalized pure state vector, exactly Hermitian."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    # The outer product leaves ~1e-18 imaginary parts on the diagonal and
    # off-diagonals that are not exact conjugates.
    return DensityMatrix(linalg.hermitize(projector(v)))


def born_probability(element: PovmElement, rho: DensityMatrix) -> float:
    """Outcome probability Tr(M rho), clamped to [0, Tr M]."""
    if element.dim != rho.dim:
        raise ValueError(
            f"dimension mismatch: element {element.dim}, state {rho.dim}"
        )
    p = float((element.matrix @ rho.matrix).trace().real)
    return min(max(p, 0.0), element.weight)


def require_qubit(dim: int, source) -> None:
    """Reject a state or record stream that is not a qubit (D = 2)."""
    if dim != 2:
        raise ValueError(f"{source}: only qubits (D = 2) are supported, got D = {dim}")


def _qubit_det(m: np.ndarray) -> float:
    """det of a 2x2 Hermitian matrix, rounded once from its exact value.

    For a near-pure state a*d - |b|^2 cancels down to round-off, which the
    square root in fidelity would magnify to ~1e-9; exact rationals avoid it.
    """
    b = m[0, 1]
    exact = (Fraction(m[0, 0].real) * Fraction(m[1, 1].real)
             - Fraction(b.real) ** 2 - Fraction(b.imag) ** 2)
    return float(exact)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity of two qubit states, in [0, 1].

    Qubit closed form F = Tr(rho sigma) + 2 sqrt(det rho det sigma), equal
    to Tr^2 sqrt(sqrt(rho) sigma sqrt(rho)) for 2x2 PSD matrices. Equal
    states give exactly 1.
    """
    require_qubit(rho.dim, "fidelity")
    require_qubit(sigma.dim, "fidelity")
    if np.array_equal(rho.matrix, sigma.matrix):
        return 1.0
    overlap = float(np.einsum("ij,ji->", rho.matrix, sigma.matrix).real)
    dets = _qubit_det(rho.matrix) * _qubit_det(sigma.matrix)
    f = overlap + 2.0 * math.sqrt(max(dets, 0.0))
    return min(max(f, 0.0), 1.0)


def bures_sq(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Squared Bures distance 2 - 2 sqrt(F), in [0, 2]."""
    return 2.0 - 2.0 * np.sqrt(fidelity(rho, sigma))


# Qubit basis vectors (computational basis = {H, V}):
#   D/A = (H +- V)/sqrt(2),  R/L = (H +- iV)/sqrt(2)
_SQ2 = 1.0 / np.sqrt(2.0)
KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)
KET_D = _SQ2 * np.array([1.0, 1.0], dtype=complex)
KET_A = _SQ2 * np.array([1.0, -1.0], dtype=complex)
KET_R = _SQ2 * np.array([1.0, 1.0j], dtype=complex)
KET_L = _SQ2 * np.array([1.0, -1.0j], dtype=complex)

MUB_KETS = (KET_H, KET_V, KET_D, KET_A, KET_R, KET_L)
MUB_LABELS = ("H", "V", "D", "A", "R", "L")


def mub_qubit() -> Povm:
    """Six rank-1 projectors of the three qubit MUBs, ordered H,V,D,A,R,L.

    The set concatenates three orthonormal bases, so it sums to 3*eye(2)
    and is not itself a decomposition of unity.
    """
    return Povm(tuple(PovmElement(projector(k)) for k in MUB_KETS))


def _complex_gaussians(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard circular complex Gaussians (unit total variance per entry)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * _SQ2


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    q, r = np.linalg.qr(_complex_gaussians(rng, (dim, dim)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_pure_haar(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Rank-1 state |psi><psi| with psi uniform under the Haar measure."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    v = _complex_gaussians(rng, dim)
    return pure_state(v)


def random_bures_mixed(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Mixed state drawn from the Bures ensemble.

    Uses the standard construction rho = (1+W) G G^dag (1+W)^dag / norm
    with G a square Ginibre matrix and W Haar-unitary.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    g = _complex_gaussians(rng, (dim, dim))
    a = (np.eye(dim) + haar_unitary(dim, rng)) @ g
    m = linalg.hermitize(a @ a.conj().T)
    return DensityMatrix(m / m.trace().real)


def maximally_mixed(dim: int) -> DensityMatrix:
    """The fully mixed state eye(D)/D."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)
