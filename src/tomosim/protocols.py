"""Adaptive measurement-selection strategies on Stokes four-vectors.

A rank-1 qubit element held for exposition time t is the null
four-vector t (1, m) = (Tr M, Tr sigma M), m its unit Bloch vector; the
functions here take and return (K, 4) stacks of them. The paper's RankP
method has three parts. rank_preserving_map is the transform sending the
regularized estimator (Bloch vector r) to the fully mixed state: one real
4x4 transfer matrix T, gamma Lambda(r), the Lorentz boost with velocity r
scaled by gamma = 1/sqrt(1 - |r|^2), acting as vecs @ T.T.
apply_unitary_freedom composes T with a unitary V. The completions:
complement_to_basis pairs each element with its antipode t (1, -m), and
complement_minimal divides the set by the largest eigenvalue
mu = (S_0 + |s|)/2 of its sum S and appends the residual (|s|, -s)/mu.
normalize_with_time reads each four-vector's trace as its time and holds
the plan. The baselines are four-vectors too: Eigen turns the MUB axes by
the minimal rotation taking z to the estimator's Bloch direction, and
Random reads the Bloch vector of a Haar-random ket.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from .quantum import (
    INERT_WEIGHT,
    STOKES,
    DensityMatrix,
    as_four_vectors,
    first_failure,
    haar_unitary,
    maximally_mixed,
    mub_qubit,
    to_stokes,
)

PROTOCOLS = ("random", "eigen", "rankp-nc", "rankp-b", "rankp-m")

# Default mixing weight used to make estimators full rank before the
# spectrum inversion; exposed as a knob everywhere it matters.
DEFAULT_DELTA = 1e-4

_RANK_TOL = 1e-8
_ORTHO_TOL = 1e-8


class MeasurementPlan:
    """Timed measurements partitioned into simultaneity groups: measurements
    sharing a group are orthogonal and read out within a single exposure.

    The measurements are held as arrays, the (K, 4) four-vectors (1, m) of
    their unit-trace rank-1 projectors and their (K,) time weights, and
    checked once, together: unit trace, rank 1 (the four-vector is null),
    positive times and Tr(Ma Mb) = (1 + ma.mb)/2 = 0 within a group.
    The groups list the measurement indices in index order, and
    ``group_of`` holds the group of each measurement.
    """

    def __init__(self, vectors, time_weights, groups):
        vecs = as_four_vectors(vectors)
        times = np.array(time_weights, dtype=float).reshape(-1)
        groups = tuple(map(tuple, groups))
        if not len(vecs):
            raise ValueError("a plan needs at least one measurement")
        if times.size != len(vecs):
            raise ValueError(f"{len(vecs)} projectors but {times.size} time weights")
        group_of, pairs = _layout(groups, len(vecs))
        trace = vecs[:, 0]
        norm = np.sqrt(np.einsum("ka,ka->k", vecs[:, 1:], vecs[:, 1:]))
        # Rank 1 is a null four-vector: the eigenvalues are (S_0 +- |s|)/2.
        rank_defect = np.abs(trace - norm) - _RANK_TOL * (trace + norm)
        if not (times.min() > 0 and np.abs(trace - 1.0).max() <= 1e-9
                and rank_defect.max() <= 0):
            # Negated tests, so that a NaN fails them as it fails the above.
            raise first_failure([
                (~(times > 0), lambda i: ValueError("time_weight must be positive")),
                (~(np.abs(trace - 1.0) <= 1e-9),
                 lambda i: ValueError("projector must have unit trace")),
                (~(rank_defect <= 0), lambda i: ValueError("projector must be rank 1")),
            ])[1]
        if pairs is not None:
            # Tr(Ma Mb) = (a_0 b_0 + a.b)/2 for Ma = (a_0 + a.sigma)/2.
            overlaps = np.abs(0.5 * np.einsum("ka,ka->k", vecs[pairs[0]], vecs[pairs[1]]))
            if overlaps.max() > _ORTHO_TOL:
                k = int(np.argmax(overlaps > _ORTHO_TOL))
                raise ValueError(f"grouped projectors {pairs[0][k]},{pairs[1][k]} not "
                                 f"orthogonal (|Tr Ma Mb| = {overlaps[k]:.3e})")
        vecs.setflags(write=False)
        times.setflags(write=False)
        self.vectors, self.time_weights, self.groups, self.group_of = vecs, times, groups, group_of

    def exposure_weight(self) -> float:
        """Total exposure per unit base time: one max-weight slot per group."""
        times = self.time_weights.tolist()
        return float(sum(max(times[i] for i in g) for g in self.groups))


@lru_cache(maxsize=64)
def _layout(groups: tuple[tuple[int, ...], ...], size: int):
    """(group_of, pairs) of a plan's groups of its size measurements: the
    group of each measurement and the index arrays (a, b) of the pairs
    sharing a group, None if there are none; read-only, and kept for the
    next plan of the same shape."""
    if [i for g in groups for i in g] != list(range(size)):
        raise ValueError("groups must partition the measurement indices in index order")
    pairs = [ab for g in groups for ab in combinations(g, 2)]
    out = (np.array([j for j, g in enumerate(groups) for _ in g], dtype=np.int64),
           np.array(pairs, dtype=np.intp).T if pairs else None)
    for a in out:
        if a is not None:
            a.setflags(write=False)
    return out


def _transfer(lop: np.ndarray) -> np.ndarray:
    """The real 4x4 matrix acting on four-vectors as M -> lop M lop^dag:
    column b is the image of sigma_b, whose four-vector is 2 e_b."""
    return 0.5 * to_stokes(lop @ STOKES @ lop.conj().T).T


def rank_preserving_map(rho_hat: DensityMatrix, delta: float = DEFAULT_DELTA) -> np.ndarray:
    """Transfer matrix of the map sending the regularized estimator to the
    fully mixed state: a plan's four-vectors transform as vecs @ T.T.

    The map conjugates each element as L M L^dag with L = lmap^dag and
    lmap = rho_reg^-1/2 / sqrt(2), the symmetric representative of the
    family V rho_reg^-1/2 / sqrt(2): it carries no net rotation, so every
    base element's image localizes toward the subspace orthogonal to the
    estimator as it purifies. rho_hat is first mixed with eye/2 (weight
    delta). On four-vectors the map is gamma Lambda(r): Lambda(r) is the
    Lorentz boost with velocity r, the Bloch vector of rho_reg, and
    gamma = 1/sqrt(1 - |r|^2).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    s = (1.0 - delta) * rho_hat.stokes
    r = s[1:] / (s[0] + delta)
    gamma = 1.0 / math.sqrt(1.0 - r @ r)
    out = np.empty((4, 4))
    out[0, 0] = gamma
    out[0, 1:] = out[1:, 0] = -gamma * r
    out[1:, 1:] = np.eye(3) + (gamma * gamma / (gamma + 1.0)) * np.outer(r, r)
    return gamma * out


def apply_unitary_freedom(transfer: np.ndarray, v) -> np.ndarray:
    """The transfer matrix of the map left-multiplied by a unitary V, which
    leaves eye/2 invariant: elements are conjugated by V^dag first."""
    vm = np.asarray(v, dtype=complex)
    if vm.shape != (2, 2):
        raise ValueError(f"V must be a 2x2 matrix, got shape {vm.shape}")
    if np.max(np.abs(vm.conj().T @ vm - np.eye(2))) > 1e-10:
        raise ValueError("V is not unitary within 1e-10")
    return transfer @ _transfer(vm.conj().T)


def complement_to_basis(vecs: np.ndarray) -> np.ndarray:
    """Each four-vector t (1, m) followed by its antipode t (1, -m), which
    completes it to an orthonormal basis held for the same time."""
    out = np.repeat(vecs, 2, axis=0)
    out[1::2, 1:] *= -1.0
    return out


def complement_minimal(vecs: np.ndarray) -> np.ndarray:
    """The set scaled by the largest eigenvalue mu = (S_0 + |s|)/2 of its
    sum S, followed by the one rank-1 residual (|s|, -s)/mu = eye - S/mu
    that completes it to eye."""
    total = vecs.sum(axis=0)
    norm = math.hypot(*total[1:])
    mu = (total[0] + norm) / 2
    if mu <= 0:
        raise ValueError("element sum has no positive eigenvalue")
    return np.vstack([vecs, np.concatenate(([norm], -total[1:]))]) / mu


def normalize_with_time(vecs: np.ndarray, groups) -> MeasurementPlan:
    """The plan holding each four-vector t (1, m) as its unit-trace
    projector held for time t, in the given groups."""
    times = vecs[:, 0]
    if (times <= INERT_WEIGHT).any():
        raise ValueError("element has vanishing trace; drop it instead")
    return MeasurementPlan(vecs / times[:, None], times, groups)


# The MUB axes +-z, +-x, +-y, the Bloch vectors of H, V, D, A, R, L.
_MUB_AXES = np.array([[0, 0, 1], [0, 0, -1], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]],
                     dtype=float)
# The base set RankP transforms: the four-vectors of mub_qubit()'s projectors,
# whose traces (1/sqrt 2)^2 + (1/sqrt 2)^2 may differ from 1 by an ulp.
_MUB_VECTORS = to_stokes(np.array([e.matrix for e in mub_qubit()]))
_MUB_VECTORS.setflags(write=False)
# One group per basis: H/V, D/A, R/L, and eigen's aligned pairs.
_BASIS_PAIRS = ((0, 1), (2, 3), (4, 5))


def _eigen_frame(rho_hat: DensityMatrix) -> np.ndarray:
    """(6, 4) four-vectors (1, m) of the MUB frame aligned with the estimator.

    Measuring the bare eigenbasis alone is degenerate: estimates built
    from basis-aligned counts stay diagonal in that basis, so the basis
    never rotates and the off-diagonal state components are never
    learned. The aligned frame adds the two bases unbiased to the
    eigenbasis (the estimator-frame analogue of the static MUB set),
    keeping every state component informed while the eigenbasis itself
    pins down the spectrum.

    The frame is the MUB axes turned by the minimal rotation taking z to
    the estimator's Bloch direction u (Rodrigues), so it depends on u
    alone and moves smoothly with it, except at u = -z, where it is the
    half turn about x. A degenerate spectrum (|r| < 1e-12) falls back to
    the computational basis.
    """
    x, y, z = rho_hat.stokes[1:].tolist()
    norm = math.sqrt(x * x + y * y + z * z)
    if norm < 1e-12:
        rot = np.eye(3)
    else:
        x, y, z = x / norm, y / norm, z / norm
        side = x * x + y * y
        if z < 0 and side == 0:
            rot = np.diag([1.0, -1.0, -1.0])
        else:
            # 1/(1 + z), as (1 - z)/(x^2 + y^2) where 1 + z cancels.
            a = 1.0 / (1.0 + z) if z >= 0 else (1.0 - z) / side
            rot = np.array([[1.0 - a * x * x, -a * x * y, x],
                            [-a * x * y, 1.0 - a * y * y, y],
                            [-x, -y, z]])
    vecs = np.ones((6, 4))
    vecs[:, 1:] = _MUB_AXES @ rot.T
    return vecs


def _ket_vector(ket: np.ndarray) -> np.ndarray:
    """Four-vector (1, m) of the projector onto a unit ket (a, b):
    m = (2 Re a*b, 2 Im a*b, |a|^2 - |b|^2)."""
    a, b = ket.tolist()
    ab = a.conjugate() * b
    return np.array([1.0, 2.0 * ab.real, 2.0 * ab.imag, abs(a) ** 2 - abs(b) ** 2])


def next_plan(protocol: str, rho_hat: DensityMatrix, rng: np.random.Generator, *,
              delta: float = DEFAULT_DELTA, random_v: bool = False) -> MeasurementPlan:
    """Measurement plan for the next adaptive iteration.

    random   -- a fresh Haar-random basis, unit weights, one group.
    eigen    -- the estimator-aligned MUB frame (eigenbasis plus the two
                bases unbiased to it), unit weights, one group per basis.
    rankp-nc -- transformed MUB elements, one singleton group each.
    rankp-b  -- each transformed element and its antipode, one group per pair.
    rankp-m  -- minimally complemented set, singleton groups throughout.

    RankP plans are the MUB four-vectors times the transposed transfer
    matrix of rank_preserving_map (composed by apply_unitary_freedom with a
    Haar-random V drawn from rng when random_v), completed by
    complement_minimal (rankp-m) before inert elements are dropped or by
    complement_to_basis (rankp-b) after, and held by normalize_with_time.
    """
    if protocol == "random":
        return normalize_with_time(complement_to_basis(_ket_vector(haar_unitary(rng)[:, 0])[None]),
                                   ((0, 1),))
    if protocol == "eigen":
        return normalize_with_time(_eigen_frame(rho_hat), _BASIS_PAIRS)
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    transfer = rank_preserving_map(rho_hat, delta)
    if random_v:
        transfer = apply_unitary_freedom(transfer, haar_unitary(rng))
    vecs = _MUB_VECTORS @ transfer.T
    if protocol == "rankp-m":
        vecs = complement_minimal(vecs)
    vecs = vecs[vecs[:, 0] > INERT_WEIGHT]
    if protocol == "rankp-b":
        return normalize_with_time(complement_to_basis(vecs),
                                   tuple((2 * i, 2 * i + 1) for i in range(len(vecs))))
    return normalize_with_time(vecs, tuple((i,) for i in range(len(vecs))))


def initial_plan(protocol: str, rng: np.random.Generator) -> MeasurementPlan:
    """Iteration-0 plan: the untransformed MUB set.

    RankP variants measure the MUB set with unit weights, grouping each of
    its three orthonormal bases into one exposure. Eigen and Random start
    from their ordinary first basis.
    """
    if protocol in ("eigen", "random"):
        return next_plan(protocol, maximally_mixed(), rng)
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    return normalize_with_time(_MUB_VECTORS, _BASIS_PAIRS)
