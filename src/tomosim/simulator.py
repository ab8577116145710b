"""Stochastic tomography engine.

Poissonian photon-count sampling, the adaptive measure/estimate loop with
emitted/detected copy accounting, replay of recorded count streams, and
the record-stream file format.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .estimation import (
    LikelihoodData,
    MeasurementRecord,
    MleOptions,
    log_likelihood,
    mle_estimate,
)
from .protocols import (
    DEFAULT_DELTA,
    MeasurementPlan,
    TimedMeasurement,
    initial_plan,
    next_plan,
)
from .quantum import (
    DensityMatrix,
    Povm,
    PovmElement,
    born_probability,
    fidelity,
    maximally_mixed,
    mub_qubit,
    require_qubit,
)

# Not called here (fidelity is computed once per entry), but kept importable:
# perfbench/spans.py times the metric layer by wrapping this module's names.
from .quantum import bures_sq  # noqa: F401


@dataclass(frozen=True)
class SourceModel:
    """Photon source: intensity I (copies per exposition unit) and detector efficiency."""

    intensity: float
    efficiency: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.intensity < math.inf:
            raise ValueError("intensity must be positive and finite")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")


@dataclass(frozen=True)
class Schedule:
    """Geometric per-iteration budget of expected emitted copies."""

    initial_budget: int = 100
    growth: float = 1.25
    n_max: int = 10 ** 6

    def __post_init__(self):
        if not self.initial_budget >= 1:
            raise ValueError("initial_budget must be >= 1")
        if not 1.0 <= self.growth < math.inf:
            raise ValueError("growth must be >= 1 and finite")
        if not self.initial_budget < self.n_max < math.inf:
            raise ValueError("n_max must exceed initial_budget and be finite")


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    n_emit: float
    n_det: int
    estimator: DensityMatrix
    d_bures_sq: float
    fidelity: float
    loglik: float


class GroupedRecord(NamedTuple):
    """A measurement record tagged with its simultaneity-exposure id."""

    group_id: int
    record: MeasurementRecord


@dataclass
class TomographyTrace:
    """Per-iteration log of one tomography run."""

    protocol: str
    seed: int
    entries: list[TraceEntry] = field(default_factory=list)
    records: list[GroupedRecord] = field(default_factory=list)
    true_state: DensityMatrix | None = None

    def curve_points(self) -> tuple[np.ndarray, np.ndarray]:
        """(N_emit, d_B^2) arrays for curve aggregation."""
        n = np.array([e.n_emit for e in self.entries])
        d = np.array([e.d_bures_sq for e in self.entries])
        return n, d


def sample_counts(m: TimedMeasurement, rho_true: DensityMatrix, src: SourceModel,
                  base_time: float, rng: np.random.Generator) -> int:
    """Poisson draw with mean I * eff * p * (time_weight * base_time).

    Members of a simultaneity group are sampled by one such draw each from
    the shared exposure; independent Poisson outcomes are the thinning of
    the group total.
    """
    if base_time <= 0:
        raise ValueError("base_time must be positive")
    p = born_probability(m.projector, rho_true)
    mean = src.intensity * src.efficiency * p * m.time_weight * base_time
    return int(rng.poisson(mean))


def emitted_copies(total_time: float, src: SourceModel) -> float:
    """Expected copies emitted during total_time: I * total_time.

    Group exposures contribute their duration once, however many
    projectors they read out; the caller accounts for that via
    MeasurementPlan.exposure_weight().
    """
    if total_time < 0:
        raise ValueError("total_time must be >= 0")
    return src.intensity * total_time


def _measure_plan(plan: MeasurementPlan, rho_true: DensityMatrix, src: SourceModel,
                  base_time: float, rng: np.random.Generator,
                  next_group_id: int) -> tuple[list[GroupedRecord], int, int]:
    """Sample every group of a plan; returns (records, detected, next free id)."""
    out: list[GroupedRecord] = []
    detected = 0
    gid = next_group_id
    for group in plan.groups:
        for idx in group:
            m = plan.measurements[idx]
            n = sample_counts(m, rho_true, src, base_time, rng)
            rec = MeasurementRecord(m.projector, m.time_weight * base_time, n)
            out.append(GroupedRecord(gid, rec))
            detected += n
        gid += 1
    return out, detected, gid


def run_tomography(protocol: str, rho_true: DensityMatrix, src: SourceModel,
                   sched: Schedule, seed, *, base: Povm | None = None,
                   mle_options: MleOptions | None = None,
                   delta: float = DEFAULT_DELTA,
                   random_v: bool = False) -> TomographyTrace:
    """One full adaptive tomography run.

    Iteration 0 measures the untransformed base set; every following
    iteration builds a plan from the current estimator, spends a
    geometrically growing budget of expected emitted copies, appends the
    sampled records and re-estimates. Stops once cumulative N_emit
    reaches the schedule's n_max. Fully deterministic for a fixed seed.
    """
    require_qubit(rho_true.dim, "true state")
    rng = np.random.default_rng(seed)
    base = base if base is not None else mub_qubit()
    opts = mle_options or MleOptions()
    dim = rho_true.dim

    trace = TomographyTrace(
        protocol=protocol,
        seed=seed if isinstance(seed, int) else -1,
        true_state=rho_true,
    )
    rho_hat = maximally_mixed(dim)
    n_emit = 0.0
    n_det = 0
    budget = float(sched.initial_budget)
    group_id = 0
    iteration = 0

    while True:
        if iteration == 0:
            plan = initial_plan(protocol, base, dim, rng)
        else:
            plan = next_plan(protocol, rho_hat, base, rng,
                             delta=delta, random_v=random_v)
        exposure = plan.exposure_weight()
        base_time = budget / (src.intensity * exposure)
        new_records, detected, group_id = _measure_plan(
            plan, rho_true, src, base_time, rng, group_id)
        trace.records.extend(new_records)
        n_det += detected
        n_emit += emitted_copies(base_time * exposure, src)

        # Counts arrive at the detected rate I * eff; N_emit stays on I.
        data = LikelihoodData(tuple(r.record for r in trace.records),
                              src.intensity * src.efficiency)
        rho_hat = mle_estimate(data, opts)
        trace.entries.append(
            _entry(iteration, n_emit, n_det, rho_true, data, rho_hat))
        if n_emit >= sched.n_max:
            break
        budget *= sched.growth
        iteration += 1
    return trace


def _entry(iteration: int, n_emit: float, n_det: int, reference: DensityMatrix,
           data: LikelihoodData, est: DensityMatrix) -> TraceEntry:
    """Trace entry of an estimate, scored against a reference state."""
    f = fidelity(reference, est)
    return TraceEntry(iteration, n_emit, n_det, est, 2.0 - 2.0 * np.sqrt(f), f,
                      log_likelihood(data, est))


def _group_runs(grouped: Sequence[GroupedRecord]) -> list[list[MeasurementRecord]]:
    """Split a chronological stream into its exposure groups."""
    groups: list[list[MeasurementRecord]] = []
    last_id = None
    for gid, rec in grouped:
        if gid != last_id:
            groups.append([])
            last_id = gid
        groups[-1].append(rec)
    return groups


def replay_counts(grouped: Sequence[GroupedRecord], intensity: float,
                  n0: float | None = None, *, points_per_decade: int = 10,
                  mle_options: MleOptions | None = None) -> TomographyTrace:
    """Re-estimate on growing prefixes of a recorded count stream.

    Distances are measured against the final assessment, the estimate at
    N0 (defaults to the full stream), instead of an unknown true state.
    Prefixes are cut at exposure-group boundaries on a logarithmic N grid.
    """
    if not grouped:
        raise ValueError("empty record stream")
    opts = mle_options or MleOptions()
    groups = _group_runs(grouped)
    cum_n: list[float] = []
    running = 0.0
    for g in groups:
        running += intensity * max(r.time for r in g)
        cum_n.append(running)

    n0 = cum_n[-1] if n0 is None else float(n0)
    ref_idx = max(i for i, n in enumerate(cum_n) if n <= n0 or i == 0)

    flat = [r for g in groups[:ref_idx + 1] for r in g]
    ref_state = mle_estimate(LikelihoodData(tuple(flat), intensity), opts)

    span = math.log10(cum_n[ref_idx] / cum_n[0]) if cum_n[ref_idx] > cum_n[0] else 0.0
    targets = np.geomspace(cum_n[0], cum_n[ref_idx],
                           num=max(2, int(span * points_per_decade) + 1))
    picks = sorted({min(bisect_left(cum_n, t), ref_idx) for t in targets} | {ref_idx})

    trace = TomographyTrace(protocol="replay", seed=-1,
                            records=list(grouped[: sum(len(g) for g in groups[:ref_idx + 1])]))
    for idx in picks:
        prefix = [r for g in groups[:idx + 1] for r in g]
        data = LikelihoodData(tuple(prefix), intensity)
        est = ref_state if idx == ref_idx else mle_estimate(data, opts)
        trace.entries.append(_entry(idx, cum_n[idx], sum(r.counts for r in prefix),
                                    ref_state, data, est))
    return trace


# ---------------------------------------------------------------------------
# Record-stream file format: one exposure record per line,
#   group_id, 8 projector reals (row-major, re/im interleaved), time, counts
# preceded by a header line carrying D = 2 and the measured intensity I.
# Floats are written with 17 significant digits so round-trips are bit-exact.
# State files share the matrix codec.

def _fmt(x: float) -> str:
    x = float(x)
    if x == 0.0:
        return "0"  # canonicalize -0.0: re/im reassembly cannot preserve its sign
    return format(x, ".17g")


def _matrix_fields(m: np.ndarray) -> list[str]:
    """A matrix as row-major reals, re/im interleaved."""
    return [_fmt(x) for z in m.reshape(-1) for x in (z.real, z.imag)]


def _qubit_matrix(fields) -> np.ndarray:
    """The 2x2 matrix that _matrix_fields wrote as 8 reals."""
    reals = np.array([float(x) for x in fields])
    if reals.size != 8 or not np.isfinite(reals).all():
        raise ValueError(f"expected 8 finite matrix reals, got {fields!r}")
    return (reals[0::2] + 1j * reals[1::2]).reshape(2, 2)


def write_records(path, grouped: Sequence[GroupedRecord], intensity: float) -> None:
    if not grouped:
        raise ValueError("nothing to write")
    dim = grouped[0].record.element.dim
    lines = [f"{dim},{_fmt(intensity)}"]
    for gid, rec in grouped:
        lines.append(",".join([str(gid), *_matrix_fields(rec.element.matrix),
                               _fmt(rec.time), str(rec.counts)]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_records(path) -> tuple[list[GroupedRecord], int, float]:
    """Parse a record stream; returns (records, dim, intensity)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"empty record file {path}")
    head = lines[0].split(",")
    if len(head) != 2:
        raise ValueError(f"malformed header in {path}: {lines[0]!r}")
    dim, intensity = int(head[0]), float(head[1])
    require_qubit(dim, path)
    out: list[GroupedRecord] = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 11:
            raise ValueError(f"malformed record line (expected 11 fields): {ln!r}")
        rec = MeasurementRecord(
            element=PovmElement(_qubit_matrix(parts[1:-2])),
            time=float(parts[-2]),
            counts=int(parts[-1]),
        )
        out.append(GroupedRecord(int(parts[0]), rec))
    return out, dim, intensity
