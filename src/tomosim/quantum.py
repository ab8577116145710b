"""Quantum domain objects and primitives.

States, POVM elements/sets, the Born rule, fidelity and Bures metrics,
the qubit mutually-unbiased-basis projector set, and random-state
sampling (Haar-uniform pure states, Bures-ensemble mixed states).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg

TRACE_TOL = 1e-10
# Elements with Tr M below this are treated as inert (unmeasurable).
INERT_WEIGHT = 1e-12


def qubit_spectrum(m: np.ndarray) -> tuple[float, float]:
    """(S_0, |s|) of a 2x2 Hermitian matrix (S_0 + s.sigma)/2, whose
    eigenvalues are (S_0 -+ |s|)/2; read, as eigvalsh reads it, from the
    real diagonal and the lower triangle."""
    (a, _), (c, d) = m.tolist()
    return a.real + d.real, math.hypot(a.real - d.real, 2.0 * abs(c))


def _hermitian_psd(a, what: str) -> tuple[np.ndarray, float]:
    """a as a read-only complex matrix, checked Hermitian and PSD, and its trace.

    A qubit's smallest eigenvalue is the closed form (S_0 - |s|)/2; larger
    matrices, which only tests build, go through eigvalsh.
    """
    m = linalg.as_square_complex(a)
    if m.shape[0] == 2:
        (a00, a01), (a10, a11) = m.tolist()
        defect = max(2.0 * abs(a00.imag), 2.0 * abs(a11.imag), abs(a01 - a10.conjugate()))
        trace, norm = qubit_spectrum(m)
        lowest = (trace - norm) / 2
    else:
        defect = linalg.hermiticity_defect(m)
        trace, lowest = float(m.trace().real), np.linalg.eigvalsh(m)[0]
    if defect > linalg.HERMITICITY_TOL:
        raise linalg.NonHermitianError(f"{what} not Hermitian: defect {defect:.3e}")
    if lowest < -linalg.EIGENVALUE_CLAMP:
        raise linalg.NotPositiveSemidefiniteError(f"{what} has eigenvalue {lowest:.3e}")
    m.setflags(write=False)
    return m, trace


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD operator. Immutable after construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m, tr = _hermitian_psd(self.matrix, "density matrix")
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} != 1")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float((self.matrix @ self.matrix).trace().real)

    @cached_property
    def det(self) -> float:
        """det of a qubit state, rounded once from its exact value; computed
        on first use and kept, so a reference state scored against every
        estimate of a run is computed once."""
        require_qubit(self.dim, "det")
        return _qubit_det(self.matrix)


@dataclass(frozen=True, slots=True)
class PovmElement:
    """Hermitian PSD measurement operator; weight is its trace."""

    matrix: np.ndarray
    weight: float = field(init=False)  # derived: Tr(matrix)

    def __post_init__(self):
        m, weight = _hermitian_psd(self.matrix, "POVM element")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "weight", weight)

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


# Stokes basis (1, sigma_x, sigma_y, sigma_z): a qubit operator is
# M = (S_0 + s.sigma)/2 with four-vector S_a = Tr(STOKES_a M), S_0 = Tr M.
STOKES = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                   [[1, 0], [0, -1]]])


def to_stokes(mats) -> np.ndarray:
    """Four-vectors (Tr M, Tr sigma M) of a qubit operator or a stack of them."""
    return np.einsum("aji,...ij->...a", STOKES, mats).real


def from_stokes(vecs) -> np.ndarray:
    """Qubit operators (S_0 + s.sigma)/2 of a four-vector or a stack of them."""
    return 0.5 * np.einsum("...a,aij->...ij", vecs, STOKES)


def _qubit_det(m: np.ndarray) -> float:
    """det of a 2x2 Hermitian matrix, rounded once from its exact value.

    For a near-pure state a*d - |b|^2 cancels down to round-off, which the
    square root in fidelity would magnify to ~1e-9; exact rationals avoid
    it. Each float is an integer over a power of two, so the exact
    determinant is one integer fraction, and int / int rounds it once.
    """
    (a, b), (_, d) = m.tolist()
    (an, ad), (dn, dd), (xn, xd), (yn, yd) = (
        a.real.as_integer_ratio(), d.real.as_integer_ratio(),
        b.real.as_integer_ratio(), b.imag.as_integer_ratio())
    x2d, y2d = xd * xd, yd * yd
    return (an * dn * x2d * y2d - (xn * xn * y2d + yn * yn * x2d) * ad * dd) \
        / (ad * dd * x2d * y2d)


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
    dets = rho.det * sigma.det
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
