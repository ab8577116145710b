"""Adaptive measurement-selection strategies on Stokes four-vectors.

A rank-1 qubit element held for exposition time t is the null
four-vector t (1, m) = (Tr M, Tr sigma M), m its unit Bloch vector. RankP
conjugates the base set by the map sending the regularized estimator
(Bloch vector r) to the fully mixed state: one real 4x4 transfer matrix,
gamma Lambda(r) for the symmetric map, the Lorentz boost with velocity r
scaled by gamma = 1/sqrt(1 - |r|^2). RankP-B pairs each element with its
antipode t (1, -m); RankP-M divides the set by the largest eigenvalue
mu = (S_0 + |s|)/2 of its sum S and appends the residual (|s|, -s)/mu.
Plans become matrices only at the end, and the public matrix functions
convert around the same arithmetic. Eigen and Random are the baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .estimation import regularize_full_rank
from .quantum import (
    INERT_WEIGHT,
    STOKES,
    DensityMatrix,
    Povm,
    PovmElement,
    as_square_complex,
    from_stokes,
    haar_unitary,
    maximally_mixed,
    projector,
    qubit_spectrum,
    require_qubit,
    to_stokes,
)

PROTOCOLS = ("random", "eigen", "rankp-nc", "rankp-b", "rankp-m")

# Default mixing weight used to make estimators full rank before the
# spectrum inversion; exposed as a knob everywhere it matters.
DEFAULT_DELTA = 1e-4

_MAP_TOL = 1e-9
_RANK_TOL = 1e-8
_ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class TransformOperator:
    """Qubit operator lmap with lmap rho lmap^dag = eye/2 for its source
    estimator (which implies that lmap has full rank). Unpickling rebuilds
    it through the constructor, which checks and freezes lmap again."""

    lmap: np.ndarray
    source_estimator: DensityMatrix  # already regularized to full rank

    def __post_init__(self):
        lm = as_square_complex(self.lmap)
        require_qubit(lm.shape[0], "transform")
        mapped = lm @ self.source_estimator.matrix @ lm.conj().T
        defect = np.max(np.abs(mapped - np.eye(2) / 2))
        if defect > _MAP_TOL:
            raise ValueError(f"transform does not map estimator to eye/D: defect {defect:.3e}")
        lm.setflags(write=False)
        object.__setattr__(self, "lmap", lm)

    def __reduce__(self):
        return TransformOperator, (self.lmap, self.source_estimator)

    @property
    def adjoint(self) -> np.ndarray:
        """L = lmap^dag, the operator conjugating measurement elements."""
        return self.lmap.conj().T


@dataclass(frozen=True)
class TimedMeasurement:
    """Unit-trace rank-1 projector held for time_weight exposition units."""

    projector: PovmElement
    time_weight: float

    def __post_init__(self):
        if self.time_weight <= 0:
            raise ValueError("time_weight must be positive")
        if abs(self.projector.weight - 1.0) > 1e-9:
            raise ValueError("projector must have unit trace")
        # Rank 1 is a null four-vector: the eigenvalues are (S_0 +- |s|)/2.
        s0, norm = qubit_spectrum(self.projector.matrix)
        if abs(s0 - norm) > _RANK_TOL * (s0 + norm):
            raise ValueError("projector must be rank 1")
        object.__setattr__(self, "time_weight", float(self.time_weight))


@dataclass(frozen=True)
class MeasurementPlan:
    """Timed measurements partitioned into simultaneity groups: measurements
    sharing a group are orthogonal and read out within a single exposure."""

    measurements: tuple[TimedMeasurement, ...]
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        measurements = tuple(self.measurements)
        groups = tuple(tuple(g) for g in self.groups)
        seen = [i for g in groups for i in g]
        if sorted(seen) != list(range(len(measurements))):
            raise ValueError("groups must partition the measurement indices")
        for g in groups:
            for a, b in combinations(g, 2):
                # Tr(Ma Mb) is the Frobenius product <Ma, Mb> of Hermitian Ma.
                overlap = abs(np.vdot(measurements[a].projector.matrix,
                                      measurements[b].projector.matrix))
                if overlap > _ORTHO_TOL:
                    raise ValueError(f"grouped projectors {a},{b} not orthogonal "
                                     f"(|Tr Ma Mb| = {overlap:.3e})")
        object.__setattr__(self, "measurements", measurements)
        object.__setattr__(self, "groups", groups)

    def exposure_weight(self) -> float:
        """Total exposure per unit base time: one max-weight slot per group."""
        return float(sum(max(self.measurements[i].time_weight for i in g)
                         for g in self.groups))


def _vectors(elements) -> np.ndarray:
    """(K, 4) four-vectors of a sequence of POVM elements."""
    return to_stokes(np.array([e.matrix for e in elements]))


def _transfer(lop: np.ndarray) -> np.ndarray:
    """The real 4x4 matrix acting on four-vectors as M -> lop M lop^dag:
    column b is the image of sigma_b, whose four-vector is 2 e_b."""
    return 0.5 * to_stokes(lop @ STOKES @ lop.conj().T).T


def _with_antipodes(vecs: np.ndarray) -> np.ndarray:
    """Each four-vector t (1, m) followed by its antipode t (1, -m), which
    completes it to a basis held for the same time."""
    out = np.repeat(vecs, 2, axis=0)
    out[1::2, 1:] *= -1.0
    return out


def _minimal_completion(vecs: np.ndarray) -> np.ndarray:
    """The set scaled by the largest eigenvalue mu = (S_0 + |s|)/2 of its
    sum S, followed by the residual (|s|, -s)/mu that completes it to eye."""
    total = vecs.sum(axis=0)
    norm = math.hypot(*total[1:])
    mu = (total[0] + norm) / 2
    if mu <= 0:
        raise ValueError("element sum has no positive eigenvalue")
    return np.vstack([vecs, np.concatenate(([norm], -total[1:]))]) / mu


def _timed(vecs: np.ndarray) -> tuple[TimedMeasurement, ...]:
    """Each four-vector t (1, m) as its unit-trace projector held for time t."""
    times = vecs[:, 0]
    if np.any(times <= INERT_WEIGHT):
        raise ValueError("element has vanishing trace; drop it instead")
    mats = from_stokes(vecs / times[:, None])
    return tuple(TimedMeasurement(PovmElement(m), t) for m, t in zip(mats, times))


def _ket_plan(kets, groups) -> MeasurementPlan:
    """Projectors onto unit kets, each held for unit time."""
    return MeasurementPlan(
        tuple(TimedMeasurement(PovmElement(projector(v)), 1.0) for v in kets), groups)


def rank_preserving_map(rho_hat: DensityMatrix,
                        delta: float = DEFAULT_DELTA) -> TransformOperator:
    """Operator mapping the regularized estimator to the fully mixed state.

    The symmetric representative lmap = rho_reg^-1/2 / sqrt(2) of the family
    V rho_reg^-1/2 / sqrt(2) carries no net rotation, so every base element's
    image localizes toward the subspace orthogonal to the estimator as it
    purifies. rho_hat is first mixed with eye/2 (weight delta). For
    rho_reg = (1 + r.sigma)/2 it is sqrt(gamma) [c - (gamma / 2c) r.sigma],
    c = sqrt((gamma + 1)/2): the boost by minus half the rapidity of r.
    """
    reg = regularize_full_rank(rho_hat, delta)
    s = to_stokes(reg.matrix)
    r = s[1:] / s[0]
    gamma = 1.0 / math.sqrt(1.0 - r @ r)
    c = math.sqrt((gamma + 1.0) / 2.0)
    lmap = math.sqrt(gamma) * from_stokes(np.concatenate(([2.0 * c], -(gamma / c) * r)))
    return TransformOperator(lmap, reg)


def transform_measurement(op: TransformOperator, element: PovmElement) -> PovmElement:
    """Conjugated element L M L^dag with L = lmap^dag: same rank, and
    Tr(M_new rho_hat) = Tr(M)/2 for the operator's source estimator."""
    return PovmElement(from_stokes(_transfer(op.adjoint) @ to_stokes(element.matrix)))


def apply_unitary_freedom(op: TransformOperator, v: np.ndarray) -> TransformOperator:
    """Left-multiply the map by a unitary; eye/2 is invariant under it."""
    vm = as_square_complex(v)
    if np.max(np.abs(vm.conj().T @ vm - np.eye(vm.shape[0]))) > 1e-10:
        raise ValueError("V is not unitary within 1e-10")
    return TransformOperator(vm @ op.lmap, op.source_estimator)


def normalize_with_time(element: PovmElement) -> TimedMeasurement:
    """Split an unnormalized element into unit-trace projector x exposition time."""
    return _timed(_vectors([element]))[0]


def complement_to_basis(m: TimedMeasurement) -> MeasurementPlan:
    """Complete a rank-1 qubit measurement to an orthonormal basis.

    Both projectors inherit the input's time weight and share one
    simultaneity group; the completion is the antipodal projector.
    """
    vecs = m.time_weight * _vectors([m.projector])
    return MeasurementPlan(_timed(_with_antipodes(vecs)), ((0, 1),))


def complement_minimal(elements) -> tuple[list[PovmElement], list[PovmElement]]:
    """(scaled, extra): the set divided by its sum's largest eigenvalue, and
    the spectral terms lambda_j |phi_j><phi_j| of eye - S/mu_max that
    complete it to eye, the zero-lambda one kept but inert."""
    vecs = _minimal_completion(_vectors(elements))
    mats = from_stokes(np.vstack([vecs, np.zeros(4)]))
    return [PovmElement(m) for m in mats[:-2]], [PovmElement(m) for m in mats[-2:]]


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude entry is real positive."""
    c = vec[int(np.argmax(np.abs(vec)))]
    return vec * (c.conjugate() / abs(c))


def _eigen_frame(rho_hat: DensityMatrix) -> list[np.ndarray]:
    """Kets of the MUB frame aligned with the estimator.

    Measuring the bare eigenbasis alone is degenerate: estimates built
    from basis-aligned counts stay diagonal in that basis, so the basis
    never rotates and the off-diagonal state components are never
    learned. The aligned frame adds the two bases unbiased to the
    eigenbasis (the estimator-frame analogue of the static MUB set),
    keeping every state component informed while the eigenbasis itself
    pins down the spectrum. A degenerate spectrum falls back to the
    computational basis.
    """
    w, v = np.linalg.eigh(rho_hat.matrix)
    if w[-1] - w[0] < 1e-12:
        u1, u2 = np.eye(2, dtype=complex)
    else:
        u1, u2 = (_fix_phase(col) for col in v.T)
    sq2 = 1.0 / np.sqrt(2.0)
    return [u1, u2,
            sq2 * (u1 + u2), sq2 * (u1 - u2),
            sq2 * (u1 + 1j * u2), sq2 * (u1 - 1j * u2)]


def next_plan(protocol: str, rho_hat: DensityMatrix, base: Povm,
              rng: np.random.Generator, *, delta: float = DEFAULT_DELTA,
              random_v: bool = False) -> MeasurementPlan:
    """Measurement plan for the next adaptive iteration.

    random   -- a fresh Haar-random basis, unit weights, one group.
    eigen    -- the estimator-aligned MUB frame (eigenbasis plus the two
                bases unbiased to it), unit weights, one group per basis.
    rankp-nc -- transformed base elements, one singleton group each.
    rankp-b  -- each transformed element and its antipode, one group per pair.
    rankp-m  -- minimally complemented set, singleton groups throughout.
    """
    if protocol == "random":
        return _ket_plan(haar_unitary(rng).T, ((0, 1),))
    if protocol == "eigen":
        return _ket_plan(_eigen_frame(rho_hat), ((0, 1), (2, 3), (4, 5)))
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    op = rank_preserving_map(rho_hat, delta)
    if random_v:
        op = apply_unitary_freedom(op, haar_unitary(rng))
    vecs = _vectors(base.elements) @ _transfer(op.adjoint).T
    if protocol == "rankp-m":
        vecs = _minimal_completion(vecs)
    vecs = vecs[vecs[:, 0] > INERT_WEIGHT]
    if protocol == "rankp-b":
        return MeasurementPlan(_timed(_with_antipodes(vecs)),
                               tuple((2 * i, 2 * i + 1) for i in range(len(vecs))))
    return MeasurementPlan(_timed(vecs), tuple((i,) for i in range(len(vecs))))


def initial_plan(protocol: str, base: Povm,
                 rng: np.random.Generator) -> MeasurementPlan:
    """Iteration-0 plan: the untransformed base set.

    RankP variants measure the base set with unit weights, grouping each
    constituent orthonormal basis (consecutive pairs of elements) into
    one exposure. Eigen and Random start from their ordinary first basis.
    """
    if protocol in ("eigen", "random"):
        return next_plan(protocol, maximally_mixed(), base, rng)
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    timed = _timed(_vectors(base.elements))
    if len(timed) % 2 != 0:
        raise ValueError("base set must concatenate complete bases")
    return MeasurementPlan(timed, tuple((i, i + 1) for i in range(0, len(timed), 2)))
