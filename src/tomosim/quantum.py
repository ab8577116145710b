"""Quantum domain objects and primitives of a qubit-only package.

States, POVM elements, fidelity and Bures metrics, the qubit
mutually-unbiased-basis projector set, random-state sampling
(Haar-uniform pure states, Bures-ensemble mixed states), and the checks
and tolerances of the 2x2 complex matrices they are built on.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

TRACE_TOL = 1e-10
# Elements with Tr M below this are treated as inert (unmeasurable).
INERT_WEIGHT = 1e-12
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


def trace_norm(a) -> float:
    """Sum of singular values (= sum |eigenvalues| for Hermitian input)."""
    s = np.linalg.svd(as_square_complex(a), compute_uv=False)
    return float(s.sum())


def as_four_vectors(vecs) -> np.ndarray:
    """A copy of vecs as a (K, 4) float array of four-vectors; any other
    shape of non-empty input, a (K, 2, 2) matrix stack say, is rejected."""
    v = np.asarray(vecs)
    if v.size and (v.ndim != 2 or v.shape[1] != 4):
        raise ValueError(f"expected (K, 4) four-vectors, got shape {v.shape}")
    return np.array(v, dtype=float).reshape(-1, 4)


def require_qubit(dim: int, source) -> None:
    """Reject a matrix, state or record stream that is not a qubit (D = 2)."""
    if dim != 2:
        raise ValueError(f"{source}: only qubits (D = 2) are supported, got D = {dim}")


def first_failure(checks) -> tuple[int, ValueError] | None:
    """The first row of a stack that fails any of ``checks``, a sequence of
    (failing-rows mask, error of row i) in the order they apply to one row,
    with that row's first error; None when every row passes."""
    failing = checks[0][0]
    for mask, _ in checks[1:]:
        failing = failing | mask
    if not failing.any():
        return None
    i = int(np.argmax(failing))
    return next((i, error(i)) for mask, error in checks if mask[i])


def _hermitian_psd(a, what: str) -> tuple[np.ndarray, float]:
    """a as a read-only 2x2 complex matrix, checked finite, Hermitian and
    PSD, and its trace. For (S_0 + s.sigma)/2 the eigenvalues are
    (S_0 -+ |s|)/2, read, as eigvalsh reads them, from the real diagonal and
    the lower triangle. The finite check comes first: the others would
    read inf - inf as NaN."""
    m = as_square_complex(a)
    require_qubit(m.shape[0], what)
    (a00, a01), (a10, a11) = m.tolist()
    if not all(map(cmath.isfinite, (a00, a01, a10, a11))):
        raise ValueError(f"{what} has a non-finite entry")
    defect = max(2.0 * abs(a00.imag), 2.0 * abs(a11.imag), abs(a01 - a10.conjugate()))
    trace = a00.real + a11.real
    lowest = (trace - math.hypot(a00.real - a11.real, 2.0 * abs(a10))) / 2
    # Negated tests, so that a NaN from overflowing entries fails them.
    if not defect <= HERMITICITY_TOL:
        raise NonHermitianError(f"{what} not Hermitian: defect {defect:.3e}")
    if not lowest >= -EIGENVALUE_CLAMP:
        raise NotPositiveSemidefiniteError(f"{what} has eigenvalue {lowest:.3e}")
    m.setflags(write=False)
    return m, trace


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD qubit operator. Immutable after
    construction; unpickling rebuilds it through the constructor, which
    checks and freezes the matrix again."""

    matrix: np.ndarray

    def __post_init__(self):
        m, tr = _hermitian_psd(self.matrix, "density matrix")
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} != 1")
        object.__setattr__(self, "matrix", m)

    def __reduce__(self):
        return DensityMatrix, (self.matrix,)

    @cached_property
    def det(self) -> float:
        """det of a qubit state, rounded once from its exact value; computed
        on first use and kept, so a reference state scored against every
        estimate of a run is computed once."""
        return _qubit_det(self.matrix)

    @cached_property
    def stokes(self) -> np.ndarray:
        """Four-vector (Tr rho, Tr sigma rho) = (1, r), r the Bloch vector;
        computed on first use and kept, read-only."""
        s = to_stokes(self.matrix)
        s.setflags(write=False)
        return s


@dataclass(frozen=True, slots=True)
class PovmElement:
    """Hermitian PSD qubit measurement operator; weight is its trace.
    Unpickling rebuilds it through the constructor, as DensityMatrix."""

    matrix: np.ndarray
    weight: float = field(init=False)  # derived: Tr(matrix)

    def __post_init__(self):
        m, weight = _hermitian_psd(self.matrix, "POVM element")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "weight", weight)

    def __reduce__(self):
        return PovmElement, (self.matrix,)


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
    return DensityMatrix(hermitize(projector(v)))


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


# A four-vector v times _TO_ENTRIES, halved, is (a, Re M_10, Im M_10, b):
# the entries of M = (v_0 + v.sigma)/2, a = M_00 = (v_0 + v_3)/2 and
# b = M_11 = (v_0 - v_3)/2, as from_stokes rounds them. Times
# _FROM_ENTRIES they give the four-vector (a + b, 2 Re M_10, 2 Im M_10,
# a - b) that to_stokes reads back.
_TO_ENTRIES = np.array([[1.0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, -1]])
_FROM_ENTRIES = np.array([[1.0, 0, 0, 1], [0, 2, 0, 0], [0, 0, 2, 0], [1, 0, 0, -1]])


def stokes_round_trip(vecs: np.ndarray) -> np.ndarray:
    """to_stokes(from_stokes(vecs)) of a (K, 4) stack of finite four-vectors,
    bit for bit, without the 2x2 matrices. The trip rounds v_0 and v_3
    through a = (v_0 + v_3)/2 and b = (v_0 - v_3)/2 to (a + b, a - b), and
    v_1 and v_2 through a halving and a doubling, so both keep their value
    unless the halving leaves the normal range. The matrix products add
    only exact zeros, and + 0.0 turns a -0.0 into the 0.0 the matrix path
    sums to."""
    return (0.5 * (vecs @ _TO_ENTRIES)) @ _FROM_ENTRIES + 0.0


def bloch_state(r: np.ndarray) -> DensityMatrix:
    """The state (1 + r.sigma)/2 of a Bloch vector r, checked as every
    DensityMatrix is. Its matrix is from_stokes((1, r)) and its .stokes,
    kept read-only, is to_stokes of that matrix, bit for bit, from closed
    forms on floats: from_stokes halves the sums 1 + r_3, 1 - r_3 and
    r_1 -+ i r_2, in which a zero is 0.0, and to_stokes reads
    (a + b, 2 (r_1/2), 2 (r_2/2), a - b) back from the halves a and b of
    the first two, with 0.0 for a zero sum, as stokes_round_trip does.
    + 0.0 turns a -0.0 into 0.0."""
    x, y, z = r.tolist()
    a, b = 0.5 * (1.0 + z + 0.0), 0.5 * (1.0 - z + 0.0)
    hx, hy = 0.5 * (x + 0.0), 0.5 * (y + 0.0)
    state = DensityMatrix(np.array([[a, complex(hx, 0.5 * (-y + 0.0))],
                                    [complex(hx, hy), b]]))
    stokes = np.array([a + b + 0.0, hx + hx + 0.0, hy + hy + 0.0, a - b + 0.0])
    stokes.setflags(write=False)
    state.__dict__["stokes"] = stokes
    return state


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
    if rho.matrix.tolist() == sigma.matrix.tolist():
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


def mub_qubit() -> tuple[PovmElement, ...]:
    """Six rank-1 projectors of the three qubit MUBs, ordered H,V,D,A,R,L.

    The set concatenates three orthonormal bases, so it sums to 3*eye(2)
    and is not itself a decomposition of unity.
    """
    return tuple(PovmElement(projector(k)) for k in MUB_KETS)


def _complex_gaussians(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard circular complex Gaussians (unit total variance per entry)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * _SQ2


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 2x2 unitary via QR of a Ginibre matrix with phase fix."""
    q, r = np.linalg.qr(_complex_gaussians(rng, (2, 2)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_pure_haar(rng: np.random.Generator) -> DensityMatrix:
    """Rank-1 state |psi><psi| with psi uniform under the Haar measure."""
    return pure_state(_complex_gaussians(rng, 2))


def random_bures_mixed(rng: np.random.Generator) -> DensityMatrix:
    """Mixed state drawn from the Bures ensemble.

    Uses the standard construction rho = (1+W) G G^dag (1+W)^dag / norm
    with G a square Ginibre matrix and W Haar-unitary.
    """
    g = _complex_gaussians(rng, (2, 2))
    a = (np.eye(2) + haar_unitary(rng)) @ g
    m = hermitize(a @ a.conj().T)
    return DensityMatrix(m / m.trace().real)


def maximally_mixed() -> DensityMatrix:
    """The fully mixed state eye(2)/2."""
    return DensityMatrix(np.eye(2, dtype=complex) / 2)
