"""Stochastic tomography engine.

Poissonian photon-count sampling, the adaptive measure/estimate loop with
emitted/detected copy accounting, replay of recorded count streams, the
per-iteration trace they both produce, and the trace and record-stream
file formats.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from contextlib import contextmanager
from itertools import accumulate
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .estimation import (
    LikelihoodData,
    MeasurementRecord,
    check_exposure,
    checked_records,
    mle_estimate,
)
from .protocols import (
    DEFAULT_DELTA,
    MeasurementPlan,
    initial_plan,
    next_plan,
)
from .quantum import (
    HERMITICITY_TOL,
    DensityMatrix,
    PovmElement,
    fidelity,
    from_stokes,
    require_qubit,
    stokes_round_trip,
    to_stokes,
)

# Not called here (fidelity is computed once per entry, and each estimate's
# log-likelihood comes from the estimator), but kept importable:
# perfbench/spans.py times these layers by wrapping this module's names.
from .estimation import log_likelihood  # noqa: F401
from .quantum import bures_sq  # noqa: F401

# The largest mean numpy's Generator.poisson takes: int64 max less 10 sqrt of it.
POISSON_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))


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
    """Geometric per-iteration budget of expected emitted copies; every
    Poisson mean stays below n_max * growth, held below POISSON_MAX."""

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
        if not self.n_max * self.growth < POISSON_MAX:
            raise ValueError(f"n_max * growth = {self.n_max!r} * {self.growth!r} must be "
                             f"below {POISSON_MAX:.4g}, the largest Poisson mean numpy draws")


class GroupedRecord(NamedTuple):
    """A measurement record tagged with its simultaneity-exposure id."""

    group_id: int
    record: MeasurementRecord


@dataclass(frozen=True, eq=False)
class RecordStream(Sequence):
    """A chronological record stream as arrays: each record's exposure-group
    id, the (K, 4) four-vector (Tr M, Tr sigma M) of its unit-trace element
    M, its time and counts, checked once, together, as MeasurementRecord
    checks one; plus the detected rate I * eff its counts follow, held to
    the estimator's limits on I * t, and the detector efficiency eff in
    (0, 1]. Indexing and iteration give GroupedRecord views, built on
    demand. Unpickling rebuilds a stream through the constructor."""

    group_ids: np.ndarray
    vectors: np.ndarray
    times: np.ndarray
    counts: np.ndarray
    rate: float
    efficiency: float

    def __post_init__(self):
        gids = np.array(self.group_ids, dtype=np.int64).reshape(-1)
        records = checked_records(self.vectors, self.times, self.counts)
        if gids.size != records[1].size:
            raise ValueError(f"{gids.size} group ids for {records[1].size} records")
        rate, efficiency = float(self.rate), float(self.efficiency)
        # The estimator's limits on I * t, met by every prefix if by the whole.
        check_exposure(rate, records[1])
        if not 0.0 < efficiency <= 1.0:
            raise ValueError(f"detector efficiency must be in (0, 1], got {efficiency!r}")
        for name, value in zip(("group_ids", "vectors", "times", "counts"),
                               (gids, *map(np.array, records))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "efficiency", efficiency)

    def __reduce__(self):
        return RecordStream, tuple(getattr(self, f.name) for f in fields(self))

    def __len__(self) -> int:
        return self.times.size

    def __getitem__(self, i: int) -> GroupedRecord:
        return GroupedRecord(int(self.group_ids[i]), MeasurementRecord(
            PovmElement(from_stokes(self.vectors[i])), float(self.times[i]),
            int(self.counts[i])))

    def group_ends(self) -> np.ndarray:
        """One past the last record of each exposure group, in order."""
        new_group = np.flatnonzero(np.diff(self.group_ids) != 0) + 1
        return np.append(new_group, len(self))


@dataclass(frozen=True)
class Trace:
    """Per-iteration log of one run; its fields are the trace-file columns.

    The run loop and the replay label every trace run 0 with seed -1;
    their callers relabel it with dataclasses.replace.
    """

    protocol: str
    run_id: int
    seed: int
    iteration: np.ndarray
    n_emit: np.ndarray
    n_det: np.ndarray
    d_bures_sq: np.ndarray
    fidelity: np.ndarray
    loglik: np.ndarray

    def select(self, keep: np.ndarray) -> "Trace":
        """The same trace restricted to the rows where keep is true."""
        return replace(self, **{c: getattr(self, c)[keep] for c in _ROW_TYPES})

    def curve_points(self) -> tuple[np.ndarray, np.ndarray]:
        """(N_emit, d_B^2) arrays for curve aggregation."""
        return self.n_emit, self.d_bures_sq


_TRACE_COLUMNS = tuple(f.name for f in fields(Trace))
# The columns after protocol, run_id and seed hold one value per row, of
# the type each is written and parsed as.
_ROW_TYPES = {c: int if c in ("iteration", "n_det") else float
              for c in _TRACE_COLUMNS[3:]}


def _trace(protocol: str, rows) -> Trace:
    """Trace of run 0, seed -1 from rows ordered as the row columns."""
    return Trace(protocol, 0, -1, **{c: np.array(col, dtype=t)
                                    for (c, t), col in zip(_ROW_TYPES.items(), zip(*rows))})


def sample_counts(plan: MeasurementPlan, rho_true: DensityMatrix, src: SourceModel,
                  base_time: float, rng: np.random.Generator) -> np.ndarray:
    """Poisson counts of every measurement of a plan, indexed as its
    measurements: measurement i draws with mean I * eff * p_i *
    (time_weight_i * base_time), p_i = Tr(M_i rho) clamped to [0, Tr M_i].

    The Born rule is read on four-vectors, Tr(M rho) = (v_0 + v.r)/2 for
    M's four-vector (v_0, v) and rho's (1, r). The draws are taken in index
    order, all by one rng.poisson call, which draws as one call per
    measurement would. Members of a simultaneity group are sampled by one
    such draw each from the shared exposure; independent Poisson outcomes
    are the thinning of the group total. A base time that is not positive
    and finite, as an extreme intensity gives, is an error naming it.
    """
    if not 0.0 < base_time < math.inf:
        raise ValueError(f"base_time must be positive and finite, got {base_time!r} "
                         f"at intensity {src.intensity!r}")
    p = 0.5 * (plan.vectors @ rho_true.stokes)
    p = np.minimum(np.maximum(p, 0.0), plan.vectors[:, 0])
    return rng.poisson(src.intensity * src.efficiency * p * plan.time_weights * base_time)


def run_tomography(protocol: str, rho_true: DensityMatrix, src: SourceModel,
                   sched: Schedule, seed, *, delta: float = DEFAULT_DELTA,
                   random_v: bool = False,
                   mle_iters: list | None = None) -> tuple[Trace, RecordStream]:
    """One full adaptive tomography run; returns its trace and record stream.

    Iteration 0 measures the untransformed MUB base set; every following
    iteration builds a plan from the current estimator, spends a
    geometrically growing budget of expected emitted copies, appends the
    sampled records and re-estimates. Stops once cumulative N_emit
    reaches the schedule's n_max. Fully deterministic for a fixed seed.
    Pass ``mle_iters`` to collect the iteration count of each estimator
    call.
    """
    rng = np.random.default_rng(seed)
    # Counts arrive at the detected rate I * eff; N_emit stays on I.
    rate = src.intensity * src.efficiency

    batches = []
    data = LikelihoodData((), rate)
    rows = []
    n_emit = 0.0
    n_det = 0
    budget = float(sched.initial_budget)
    group_id = 0
    iteration = 0

    while True:
        if iteration == 0:
            plan = initial_plan(protocol, rng)
        else:
            plan = next_plan(protocol, rho_hat, rng, delta=delta, random_v=random_v)
        exposure = plan.exposure_weight()
        base_time = budget / (src.intensity * exposure)
        counts = sample_counts(plan, rho_true, src, base_time, rng)
        # One round trip through 2x2 matrices, in closed form, rounds the
        # plan's four-vectors as the golden traces were made, so traces keep
        # their bytes; the stream, and a file written from it, hold what the
        # estimator reads.
        vecs = stokes_round_trip(plan.vectors)
        times = plan.time_weights * base_time
        batches.append((group_id + plan.group_of, vecs, times, counts))
        group_id += len(plan.groups)
        n_det += int(counts.sum())
        n_emit += src.intensity * (base_time * exposure)

        # Each iteration's data extends the last one's arrays.
        data = data.extended_arrays(vecs, times, counts)
        rho_hat, loglik = _estimate(data, mle_iters)
        rows.append(_row(iteration, n_emit, n_det, rho_true, rho_hat, loglik))
        if n_emit >= sched.n_max:
            break
        budget *= sched.growth
        iteration += 1
    stream = RecordStream(*map(np.concatenate, zip(*batches)), rate, src.efficiency)
    return _trace(protocol, rows), stream


def _estimate(data: LikelihoodData, mle_iters: list | None = None) -> tuple[DensityMatrix, float]:
    """The MLE of data and its log-likelihood, the estimator's last value;
    appends the call's iteration count to mle_iters if given."""
    logliks: list[float] = []
    est = mle_estimate(data, logliks=logliks)
    if mle_iters is not None:
        mle_iters.append(len(logliks) - 1)
    return est, logliks[-1]


def _row(iteration: int, n_emit: float, n_det: int, reference: DensityMatrix,
         est: DensityMatrix, loglik: float) -> tuple:
    """Trace row of an estimate, scored against a reference state."""
    f = fidelity(reference, est)
    return (iteration, n_emit, n_det, 2.0 - 2.0 * math.sqrt(f), f, loglik)


def replay_counts(stream: RecordStream, n0: float | None = None, *,
                  points_per_decade: int = 10) -> Trace:
    """Re-estimate on growing prefixes of a recorded count stream.

    The counts arrive at the stream's detected rate, the source intensity
    I times the stream's detector efficiency; N counts emitted copies,
    I * t. Distances are measured against the final assessment, the
    estimate at N0 (defaults to the full stream), instead of an unknown
    true state. Prefixes are cut at exposure-group boundaries on a
    logarithmic N grid from the first group with N > 0, and estimated in
    one forward pass over the stream.
    """
    if not stream.times.any():
        raise ValueError("empty record stream: it needs a record with positive time")
    ends = stream.group_ends()
    emitted = stream.rate / stream.efficiency
    group_times = np.maximum.reduceat(stream.times, np.append(0, ends[:-1])).tolist()
    cum_n = list(accumulate(emitted * t for t in group_times))
    n_det = np.cumsum(stream.counts)[ends - 1].tolist()

    first = next(i for i, n in enumerate(cum_n) if n > 0)
    n0 = cum_n[-1] if n0 is None else float(n0)
    ref_idx = max(i for i, n in enumerate(cum_n) if n <= n0 or i == first)

    span = math.log10(cum_n[ref_idx] / cum_n[first])
    targets = np.geomspace(cum_n[first], cum_n[ref_idx],
                           num=max(2, int(span * points_per_decade) + 1))
    picks = sorted({min(bisect_left(cum_n, t), ref_idx) for t in targets} | {ref_idx})

    # One forward pass: the data grows by the stream up to each pick's group
    # end. The last pick is ref_idx, so the last estimate is the reference.
    data, stop = LikelihoodData((), stream.rate), 0
    estimates = []
    for idx in picks:
        start, stop = stop, ends[idx]
        data = data.extended_arrays(stream.vectors[start:stop], stream.times[start:stop],
                                    stream.counts[start:stop])
        estimates.append(_estimate(data))
    ref_state = estimates[-1][0]
    rows = [_row(idx, cum_n[idx], n_det[idx], ref_state, est, loglik)
            for idx, (est, loglik) in zip(picks, estimates)]
    return _trace("replay", rows)


# ---------------------------------------------------------------------------
# File formats. Floats are written with 17 significant digits so round-trips
# are bit-exact.
#
# Trace files: a header line of the trace columns, then one line per row.
#
# Record streams: one exposure record per line,
#   group_id, the element's four-vector v0, v1, v2, v3, time, counts
# preceded by a header line carrying D = 2, the detected rate I * eff the
# counts follow and, optionally, the detector efficiency eff (1 if absent).
# Older files' lines, still read, hold the element's 2x2 matrix as 8 reals
# (row-major, re/im interleaved), the matrix codec of state files.

def _fmt(x: float) -> str:
    x = float(x)
    if x == 0.0:
        return "0"  # canonicalize -0.0: re/im reassembly cannot preserve its sign
    return format(x, ".17g")


def write_trace_file(path, trace: Trace) -> None:
    lines = [",".join(_TRACE_COLUMNS)]
    for row in zip(*(getattr(trace, c) for c in _ROW_TYPES)):
        cells = [str(int(v)) if t is int else _fmt(v)
                 for v, t in zip(row, _ROW_TYPES.values())]
        lines.append(",".join([trace.protocol, str(trace.run_id), str(trace.seed), *cells]))
    Path(path).write_text("\n".join(lines) + "\n")


@contextmanager
def _naming(where: str):
    """Raise an error inside the block, a ValueError or an OverflowError (an
    integer beyond int64), as a ValueError that starts with ``where``, such
    as a file's ``path:line``."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _numbered_lines(path) -> list[tuple[int, str]]:
    """(line number, text) of each non-blank line of a file, stripped."""
    with open(path) as fh:
        return [(no, ln.strip()) for no, ln in enumerate(fh, 1) if ln.strip()]


def read_trace_file(path) -> Trace:
    """Parse a trace file. Every row holds finite numbers, the first row's
    protocol, run_id and seed, and an n_emit no smaller than the row
    before's; an error names the file and line."""
    lines = _numbered_lines(path)
    if not lines or lines[0][1] != ",".join(_TRACE_COLUMNS):
        raise ValueError(f"{path}: not a trace file")
    if len(lines) == 1:
        raise ValueError(f"{path}: no trace rows")
    label, rows, last = None, [], -math.inf
    for no, ln in lines[1:]:
        with _naming(f"{path}:{no}"):
            cells = ln.split(",")
            if len(cells) != len(_TRACE_COLUMNS):
                raise ValueError(f"trace row needs {len(_TRACE_COLUMNS)} fields, "
                                 f"got {len(cells)}")
            row_label = (cells[0], int(cells[1]), int(cells[2]))
            label = label or row_label
            if row_label != label:
                raise ValueError(f"protocol, run_id, seed {row_label} differ from the "
                                 f"first row's {label}")
            row = []
            for (c, t), x in zip(_ROW_TYPES.items(), cells[3:]):
                v = np.int64(int(x)) if t is int else float(x)
                if not math.isfinite(v):
                    raise ValueError(f"{c} must be finite, got {x!r}")
                row.append(v)
            n_emit = row[1]    # the column after iteration
            if n_emit < last:
                raise ValueError(f"n_emit {n_emit!r} is below the previous row's {last!r}")
            last = n_emit
            rows.append(row)
    return Trace(*label, **{c: np.array(col, dtype=t)
                            for (c, t), col in zip(_ROW_TYPES.items(), zip(*rows))})


def _qubit_matrix(fields) -> np.ndarray:
    """A 2x2 matrix from its 8 row-major reals, re/im interleaved."""
    reals = np.array([float(x) for x in fields])
    if reals.size != 8 or not np.isfinite(reals).all():
        raise ValueError(f"expected 8 finite matrix reals, got {fields!r}")
    return (reals[0::2] + 1j * reals[1::2]).reshape(2, 2)


def write_records(path, stream: RecordStream) -> None:
    """Write a record stream, its detected rate and efficiency in the header."""
    if not len(stream):
        raise ValueError("nothing to write")
    lines = [f"2,{_fmt(stream.rate)},{_fmt(stream.efficiency)}"]
    for gid, v, t, n in zip(stream.group_ids.tolist(), stream.vectors.tolist(),
                            stream.times.tolist(), stream.counts.tolist()):
        lines.append(",".join([str(gid), *map(_fmt, v), _fmt(t), str(n)]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_records(path) -> tuple[RecordStream, int, float]:
    """Parse a record stream; returns (stream, dim, the stream's rate).

    Every line is parsed and every record checked, together, before the
    stream is returned; an error names the file and line, the header's
    for its rate and efficiency. Older files' 11-field matrix lines are
    checked Hermitian, as one stack once all are parsed, and read as
    four-vectors. A stream needs a record with positive time."""
    lines = _numbered_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty record file")
    head_no, line = lines[0]
    with _naming(f"{path}:{head_no}"):
        head = line.split(",")
        if len(head) not in (2, 3):
            raise ValueError(f"malformed header: {line!r}")
        dim, rate = int(head[0]), float(head[1])
        efficiency = float(head[2]) if len(head) == 3 else 1.0
    require_qubit(dim, f"{path}:{head_no}")
    cells, legacy = [], {}
    for no, ln in lines[1:]:
        with _naming(f"{path}:{no}"):
            parts = ln.split(",")
            if len(parts) == 11:
                legacy[len(cells)] = _qubit_matrix(parts[1:-2])
                vec = (math.nan,) * 4    # set from the matrix below
            elif len(parts) == 7:
                vec = tuple(map(float, parts[1:-2]))
            else:
                raise ValueError(f"malformed record line (expected 7 or 11 fields): {ln!r}")
            cells.append((np.int64(int(parts[0])), vec, float(parts[-2]),
                          np.int64(int(parts[-1]))))
    gids, vecs, times, counts = zip(*cells) if cells else ((), (), (), ())
    vecs = np.array(vecs, dtype=float).reshape(-1, 4)
    if legacy:
        rows, mats = list(legacy), np.array(list(legacy.values()))
        defect = np.abs(mats - mats.conj().swapaxes(1, 2)).max(axis=(1, 2))
        if defect.max() > HERMITICITY_TOL:
            k = int(np.argmax(defect > HERMITICITY_TOL))
            raise ValueError(f"{path}:{lines[1 + rows[k]][0]}: POVM element not "
                             f"Hermitian: defect {defect[k]:.3e}")
        vecs[rows] = to_stokes(mats)
    vecs, times, counts = checked_records(
        vecs, times, np.array(counts, dtype=np.int64),
        where=lambda i: f"{path}:{lines[1 + i][0]}")
    if not times.any():
        raise ValueError(f"{path}: need at least one record with positive time")
    with _naming(f"{path}:{head_no}"):
        stream = RecordStream(gids, vecs, times, counts, rate, efficiency)
    return stream, dim, stream.rate
