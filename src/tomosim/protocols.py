"""Adaptive measurement-selection strategies.

The RankP family conjugates a base projector set by the operator that
maps the current estimator to the fully mixed state, reinterpreting the
trace of each transformed element as an exposition time. Complementation
variants restore a decomposition of unity either per element (RankP-B)
or globally with a single extra basis (RankP-M). Eigen and Random are
the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .estimation import regularize_full_rank
from .quantum import (
    DensityMatrix,
    Povm,
    PovmElement,
    haar_unitary,
    maximally_mixed,
    projector,
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
    """Operator lmap with lmap rho lmap^dag = eye/D for its source estimator."""

    lmap: np.ndarray
    source_estimator: DensityMatrix  # already regularized to full rank

    def __post_init__(self):
        lm = linalg.as_square_complex(self.lmap)
        d = lm.shape[0]
        mapped = lm @ self.source_estimator.matrix @ lm.conj().T
        defect = np.max(np.abs(mapped - np.eye(d) / d))
        if defect > _MAP_TOL:
            raise ValueError(
                f"transform does not map estimator to eye/D: defect {defect:.3e}"
            )
        if linalg.numeric_rank(lm, _RANK_TOL) != d:
            raise ValueError("transform operator must have full rank")
        lm.setflags(write=False)
        object.__setattr__(self, "lmap", lm)

    @property
    def dim(self) -> int:
        return self.lmap.shape[0]

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
        if linalg.numeric_rank(self.projector.matrix, _RANK_TOL) != 1:
            raise ValueError("projector must be rank 1")
        object.__setattr__(self, "time_weight", float(self.time_weight))


@dataclass(frozen=True)
class MeasurementPlan:
    """Timed measurements partitioned into simultaneity groups.

    Measurements sharing a group are orthogonal and read out within a
    single exposure.
    """

    measurements: tuple[TimedMeasurement, ...]
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        measurements = tuple(self.measurements)
        groups = tuple(tuple(g) for g in self.groups)
        seen = [i for g in groups for i in g]
        if sorted(seen) != list(range(len(measurements))):
            raise ValueError("groups must partition the measurement indices")
        d = measurements[0].projector.dim if measurements else 0
        for g in groups:
            if len(g) > d:
                raise ValueError(f"group {g} larger than dimension {d}")
            for pos, a in enumerate(g):
                for b in g[pos + 1:]:
                    ma = measurements[a].projector.matrix
                    mb = measurements[b].projector.matrix
                    overlap = abs(np.einsum("ij,ji->", ma, mb))
                    if overlap > _ORTHO_TOL:
                        raise ValueError(
                            f"grouped projectors {a},{b} not orthogonal "
                            f"(|Tr Ma Mb| = {overlap:.3e})"
                        )
        object.__setattr__(self, "measurements", measurements)
        object.__setattr__(self, "groups", groups)

    @property
    def dim(self) -> int:
        return self.measurements[0].projector.dim

    def exposure_weight(self) -> float:
        """Total exposure per unit base time: one max-weight slot per group."""
        return float(sum(
            max(self.measurements[i].time_weight for i in g) for g in self.groups
        ))


def rank_preserving_map(rho_hat: DensityMatrix,
                        delta: float = DEFAULT_DELTA) -> TransformOperator:
    """Operator mapping the regularized estimator to the fully mixed state.

    Uses the symmetric representative lmap = D^-1/2 rho_hat^-1/2 of the
    unitary family V * D^-1/2 Lambda^-1/2 U^dag. This choice carries no
    net rotation, so every base element's image localizes toward the
    subspace orthogonal to the estimator as it purifies; a pure spectral
    factor would instead pin the base set rigidly to the estimator frame.
    The estimator is first mixed with eye/D (weight delta) so the inverse
    square root of its spectrum exists.
    """
    reg = regularize_full_rank(rho_hat, delta)
    w, v = linalg.hermitian_eig(reg.matrix)
    d = reg.dim
    lmap = (v * w ** -0.5) @ v.conj().T / np.sqrt(d)
    return TransformOperator(lmap, reg)


def transform_measurement(op: TransformOperator, element: PovmElement) -> PovmElement:
    """Conjugated element L M L^dag with L = lmap^dag.

    Preserves rank; the new element satisfies
    Tr(M_new rho_hat) = Tr(M)/D for the operator's source estimator.
    """
    lop = op.adjoint
    return PovmElement(linalg.hermitize(lop @ element.matrix @ lop.conj().T))


def apply_unitary_freedom(op: TransformOperator, v: np.ndarray) -> TransformOperator:
    """Left-multiply the map by a unitary; eye/D is invariant under it."""
    vm = linalg.as_square_complex(v)
    d = vm.shape[0]
    if np.max(np.abs(vm.conj().T @ vm - np.eye(d))) > 1e-10:
        raise ValueError("V is not unitary within 1e-10")
    return TransformOperator(vm @ op.lmap, op.source_estimator)


def normalize_with_time(element: PovmElement) -> TimedMeasurement:
    """Split an unnormalized element into unit-trace projector x exposition time."""
    if element.weight <= 1e-12:
        raise ValueError("element has vanishing trace; drop it instead")
    return TimedMeasurement(
        projector=PovmElement(element.matrix / element.weight),
        time_weight=element.weight,
    )


def _principal_vector(mat: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the largest eigenvalue."""
    _, v = linalg.hermitian_eig(mat)
    return v[:, -1]


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude entry is real positive."""
    idx = int(np.argmax(np.abs(vec)))
    c = vec[idx]
    return vec * (c.conjugate() / abs(c))


def complement_to_basis(m: TimedMeasurement) -> MeasurementPlan:
    """Complete a rank-1 qubit measurement to an orthonormal basis.

    Both projectors inherit the input's time weight and share one
    simultaneity group; the completion is the (unique up to phase)
    orthogonal vector.
    """
    a, b = _principal_vector(m.projector.matrix)
    return _plan(((a, b), (-b.conjugate(), a.conjugate())), ((0, 1),), m.time_weight)


def complement_minimal(elements) -> tuple[list[PovmElement], list[PovmElement]]:
    """Scale a set by its sum's largest eigenvalue and append the residual basis.

    Returns (scaled, extra) with sum(scaled) + sum(extra) = eye. Extra
    elements are lambda_j |phi_j><phi_j| from the spectral decomposition of
    eye - S/mu_max; zero-lambda elements are kept but inert.
    """
    elements = list(elements)
    total = sum(e.matrix for e in elements)
    w, v = linalg.hermitian_eig(linalg.hermitize(total))
    mu_max = w[-1]
    if mu_max <= 0:
        raise ValueError("element sum has no positive eigenvalue")
    scaled = [PovmElement(e.matrix / mu_max) for e in elements]
    extra = []
    for lam_s, col in zip(w, v.T):
        lam = max(1.0 - lam_s / mu_max, 0.0)
        extra.append(PovmElement(lam * projector(col)))
    return scaled, extra


def _plan(vectors, groups, time_weight: float = 1.0) -> MeasurementPlan:
    """Rank-1 projectors onto unit vectors, each held for time_weight."""
    measurements = tuple(
        TimedMeasurement(PovmElement(projector(v)), time_weight) for v in vectors
    )
    return MeasurementPlan(measurements, groups)


def _eigen_basis(rho_hat: DensityMatrix) -> list[np.ndarray]:
    """Estimator eigenbasis; degenerate spectra fall back to the computational basis."""
    w, v = linalg.hermitian_eig(rho_hat.matrix)
    if w[-1] - w[0] < 1e-12:
        return list(np.eye(rho_hat.dim, dtype=complex).T)
    return [_fix_phase(col) for col in v.T]


def _eigen_frame_plan(rho_hat: DensityMatrix) -> MeasurementPlan:
    """Eigenbasis plan for a qubit: the MUB frame aligned with the estimator.

    Measuring the bare eigenbasis alone is degenerate: estimates built
    from basis-aligned counts stay diagonal in that basis, so the basis
    never rotates and the off-diagonal state components are never
    learned. The aligned frame adds the two bases unbiased to the
    eigenbasis (the estimator-frame analogue of the static MUB set),
    keeping every state component informed while the eigenbasis itself
    pins down the spectrum. Three simultaneity groups, unit weights.
    """
    u1, u2 = _eigen_basis(rho_hat)
    sq2 = 1.0 / np.sqrt(2.0)
    vectors = (
        u1, u2,
        sq2 * (u1 + u2), sq2 * (u1 - u2),
        sq2 * (u1 + 1j * u2), sq2 * (u1 - 1j * u2),
    )
    return _plan(vectors, ((0, 1), (2, 3), (4, 5)))


def next_plan(protocol: str, rho_hat: DensityMatrix, base: Povm,
              rng: np.random.Generator, *, delta: float = DEFAULT_DELTA,
              random_v: bool = False) -> MeasurementPlan:
    """Measurement plan for the next adaptive iteration.

    random   -- a fresh Haar-random basis, unit weights, one group.
    eigen    -- the estimator-aligned MUB frame (eigenbasis plus the two
                bases unbiased to it), unit weights, one group per basis.
    rankp-nc -- transformed base elements, one singleton group each.
    rankp-b  -- each transformed element completed to a basis (one group per element).
    rankp-m  -- minimally complemented set, singleton groups throughout.
    """
    d = rho_hat.dim
    if protocol == "random":
        return _plan(haar_unitary(d, rng).T, (tuple(range(d)),))
    if protocol == "eigen":
        return _eigen_frame_plan(rho_hat)
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")

    op = rank_preserving_map(rho_hat, delta)
    if random_v:
        op = apply_unitary_freedom(op, haar_unitary(d, rng))
    transformed = [transform_measurement(op, e) for e in base.elements]

    if protocol == "rankp-nc":
        timed = [normalize_with_time(e) for e in transformed if not e.inert]
        return MeasurementPlan(tuple(timed), tuple((i,) for i in range(len(timed))))

    if protocol == "rankp-b":
        subs = [complement_to_basis(normalize_with_time(e))
                for e in transformed if not e.inert]
        return MeasurementPlan(tuple(t for sub in subs for t in sub.measurements),
                               tuple((2 * i, 2 * i + 1) for i in range(len(subs))))

    # rankp-m
    scaled, extra = complement_minimal(transformed)
    timed = [normalize_with_time(e) for e in scaled + extra if not e.inert]
    return MeasurementPlan(tuple(timed), tuple((i,) for i in range(len(timed))))


def initial_plan(protocol: str, base: Povm, dim: int,
                 rng: np.random.Generator) -> MeasurementPlan:
    """Iteration-0 plan: the untransformed base set.

    RankP variants measure the base set with unit weights, grouping each
    constituent orthonormal basis (consecutive runs of D elements) into
    one exposure. Eigen and Random start from their ordinary first basis.
    """
    if protocol in ("eigen", "random"):
        return next_plan(protocol, maximally_mixed(dim), base, rng)
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    timed = tuple(normalize_with_time(e) for e in base.elements)
    if len(timed) % dim != 0:
        raise ValueError("base set must concatenate complete bases")
    groups = tuple(
        tuple(range(start, start + dim)) for start in range(0, len(timed), dim)
    )
    return MeasurementPlan(timed, groups)
