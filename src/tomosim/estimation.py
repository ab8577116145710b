"""Poissonian log-likelihood and the iterative maximum-likelihood estimator.

The count model: each record (M_j, t_j, n_j) contributes a Poisson term
with mean I * Tr(M_j rho) * t_j, where I is the independently measured
source intensity and M_j is a unit-trace measurement operator.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .quantum import (
    EIGENVALUE_CLAMP,
    STOKES,
    DensityMatrix,
    NotPositiveSemidefiniteError,
    PovmElement,
    as_four_vectors,
    first_failure,
    from_stokes,
    hermitize,
    maximally_mixed,
    to_stokes,
    trace_norm,
)

# Modeled probabilities below this are clamped when they divide or sit
# inside a log; keeps the fixed point finite when counts land on outcomes
# the current iterate deems impossible.
PROB_CLAMP = 1e-12

# Relative eigenvalue threshold defining the support of G.
_SUPPORT_RTOL = 1e-12

# Step mixing weight epsilon that the adaptive step size starts from.
_DILUTION = 0.5

# Share of its first-order gain (the Newton decrement, for a full step) a
# Newton step must gain to be taken alone, without the fixed-point and
# gradient line search.
_NEWTON_GAIN = 1 / 8

# Share of the way to the Bloch sphere that a Newton step leaving the ball
# is cut to, and how many such cuts in a row mark an optimum on the sphere.
_SPHERE_SHARE = 0.9
_MAX_CUTS = 3

_EPS = np.finfo(float).eps

# Multiple of machine epsilon times the log-likelihood's magnitude below
# which a change in the summed log-likelihood is taken as round-off.
_ROUNDOFF = 4 * _EPS

# Pauli matrices: a unit-trace qubit operator is (1 + m.sigma)/2, m_a = Tr(sigma_a M).
_PAULI = STOKES[1:]


class NonIdentifiableDataError(ValueError):
    """Counts were registered outside the span of the measured operators."""


@dataclass(frozen=True, slots=True)
class MeasurementRecord:
    """One likelihood atom: normalized element, exposition time, counts."""

    element: PovmElement
    time: float
    counts: int

    def __post_init__(self):
        if abs(self.element.weight - 1.0) > 1e-9:
            raise ValueError(
                f"record element must have unit trace, got {self.element.weight!r}"
            )
        if not 0 <= self.time < math.inf:
            raise ValueError(f"record time must be finite and >= 0, got {self.time!r}")
        if self.counts < 0 or self.counts != int(self.counts):
            raise ValueError("record counts must be a non-negative integer")
        if self.time == 0 and self.counts != 0:
            raise ValueError("zero exposition time cannot register counts")
        object.__setattr__(self, "time", float(self.time))
        object.__setattr__(self, "counts", int(self.counts))


def stack_records(records) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(matrices, times, counts) arrays of MeasurementRecord objects."""
    try:
        counts = np.array([r.counts for r in records], dtype=np.int64)
    except OverflowError:
        raise ValueError("record counts must fit in a 64-bit integer") from None
    return (np.array([r.element.matrix for r in records], dtype=complex).reshape(-1, 2, 2),
            np.array([r.time for r in records], dtype=float), counts)


def checked_records(vecs, times, counts, where=lambda i: f"record {i}"):
    """Stacked records, (K, 4) four-vectors (Tr M, Tr sigma M), times and
    integer counts, as arrays, checked together as PovmElement and
    MeasurementRecord check one: M = (v_0 + m.sigma)/2 has the eigenvalues
    (v_0 -+ |m|)/2. An error names its record i as ``where(i)``."""
    vecs = as_four_vectors(vecs)
    times, counts = np.asarray(times, dtype=float), np.asarray(counts)
    if not times.shape == counts.shape == (len(vecs),):
        raise ValueError(f"{len(vecs)} records but times of shape {times.shape} "
                         f"and counts of shape {counts.shape}")
    if counts.size and counts.dtype.kind not in "iu":
        raise ValueError("record counts must be integers")
    trace = vecs[:, 0]
    # The finite check comes first: the others would read inf - inf as NaN.
    with np.errstate(invalid="ignore", over="ignore"):
        lowest = (trace - np.linalg.norm(vecs[:, 1:], axis=1)) / 2
    failure = first_failure([
        (~np.isfinite(vecs).all(axis=1),
         lambda i: ValueError("POVM element has a non-finite entry")),
        (~(lowest >= -EIGENVALUE_CLAMP),
         lambda i: ValueError(f"POVM element has eigenvalue {lowest[i]:.3e}")),
        (np.abs(trace - 1.0) > 1e-9, lambda i: ValueError(
            f"record element must have unit trace, got {float(trace[i])!r}")),
        (~((times >= 0) & (times < math.inf)), lambda i: ValueError(
            f"record time must be finite and >= 0, got {float(times[i])!r}")),
        (counts < 0, lambda i: ValueError("record counts must be a non-negative integer")),
        ((times == 0) & (counts != 0),
         lambda i: ValueError("zero exposition time cannot register counts")),
    ])
    if failure is not None:
        raise ValueError(f"{where(failure[0])}: {failure[1]}")
    return vecs, times, counts


def check_exposure(intensity: float, times: np.ndarray) -> None:
    """Check the estimator's limits on an intensity and checked record
    times: the intensity positive and finite, and the Poisson means I*t of
    the records with t > 0 normal floats whose sum is finite, or G and
    log(I p t) overflow or underflow deep inside the estimator. Records
    with t = 0 add nothing to the likelihood, so they meet no limit."""
    if not 0 < intensity < math.inf:
        raise ValueError(f"intensity must be positive and finite, got {intensity!r}")
    least = float(np.min(times, where=times > 0, initial=math.inf))
    if not intensity * least >= sys.float_info.min:
        raise ValueError("intensity * record time must be a normal float, "
                         f"got {intensity!r} * {least!r}")
    total = float(times.sum())
    if not math.isfinite(intensity * total):
        raise ValueError("intensity * total record time must be finite, "
                         f"got {intensity!r} * {total!r}")


class _RecordArrays:
    """A growing record stream as arrays: each record's four-vector
    (Tr M_k, m_k) (M_k = (Tr M_k + m_k.sigma)/2), time and counts. A full
    buffer grows to hold one more batch of the size just appended: a run
    appends one plan's records per iteration, so the slack stays below one
    plan. A prefix of the buffers is the arrays of the data holding its
    first n records, those with t = 0 among them: such a record has n = 0,
    so it adds exact zeros to every sum the estimator takes.
    """

    def __init__(self):
        self.size = 0
        self._vecs = np.empty((0, 4))
        self._times = np.empty(0)
        self._counts = np.empty(0)
        # (prefix length, smallest singular value) of the first prefix
        # whose counted Bloch vectors were found to span three directions.
        self._spanning = None

    def extend(self, vecs: np.ndarray, times: np.ndarray, counts: np.ndarray) -> None:
        """Append checked records: (K, 4) four-vectors, times and counts."""
        if not len(times):
            return
        start, stop = self.size, self.size + len(times)
        if stop > self._times.size:
            self._reserve(stop + len(times))
        self._vecs[start:stop] = vecs
        self._times[start:stop] = times
        self._counts[start:stop] = counts
        self.size = stop

    _BUFFERS = ("_vecs", "_times", "_counts")

    def _reserve(self, capacity: int) -> None:
        n = self.size
        for name in self._BUFFERS:
            old = getattr(self, name)
            new = np.empty((capacity, *old.shape[1:]), dtype=old.dtype)
            new[:n] = old[:n]
            setattr(self, name, new)

    def prefix(self, n: int) -> "_RecordArrays":
        """A copy holding the first n records only."""
        out = _RecordArrays()
        for name in self._BUFFERS:
            setattr(out, name, getattr(self, name)[:n].copy())
        out.size = n
        return out

    def records(self, n: int):
        """(four-vectors, times, counts) of the first n records, as views."""
        return self._vecs[:n], self._times[:n], self._counts[:n]

    def span(self, n: int, bloch_pos: np.ndarray) -> np.ndarray | None:
        """None when the counted Bloch vectors bloch_pos among the first n
        records span three directions, matrix_rank(bloch_pos) == 3;
        otherwise a (3, d) orthonormal basis of their span, d < 3, from the
        right singular vectors of the same SVD.

        Appending rows never lowers a singular value, and rows of length
        at most 1 (+1e-9) keep the largest one below sqrt(K) for K rows, so
        matrix_rank's tolerance s_max K eps stays below 2 K^1.5 eps. Once a
        prefix's smallest singular value is known, a longer prefix whose
        K rows keep that bound below it spans three directions without
        another SVD.
        """
        k = bloch_pos.shape[0]
        known = self._spanning
        if known is not None and known[0] <= n and known[1] > 2.0 * k ** 1.5 * _EPS:
            return None
        _, s, vt = np.linalg.svd(bloch_pos, full_matrices=False)
        rank = int(np.count_nonzero(s > s[0] * k * _EPS))
        if rank < 3:
            return vt[:rank].T
        if known is None or n < known[0]:
            self._spanning = (n, s[2])
        return None


class LikelihoodData:
    """A record collection plus the source intensity I.

    The records are held as arrays of four-vectors, times and counts
    (_RecordArrays), which ``extended_arrays`` grows in place, so a run
    that appends each iteration's records stacks every record once. Matrices
    are views: ``records`` is the MeasurementRecord tuple the data was
    built from, or, for data built from arrays, views of them built on
    first use, and ``matrices`` are built per call. Every record is kept,
    those with t = 0 too: the limits on I * t (check_exposure) hold for the
    records with t > 0.
    """

    def __init__(self, records, intensity: float):
        records = tuple(records)
        mats, times, counts = stack_records(records)
        self._hold(intensity, _RecordArrays(), to_stokes(mats), times, counts)
        self.__dict__["records"] = records

    @classmethod
    def from_arrays(cls, intensity: float, vecs: np.ndarray, times: np.ndarray,
                    counts: np.ndarray) -> "LikelihoodData":
        """Data of records given as arrays, (K, 4) four-vectors of unit-trace
        operators, times and counts, that are already checked: a
        MeasurementPlan's measurements, or a RecordStream's records."""
        out = object.__new__(cls)
        out._hold(intensity, _RecordArrays(), vecs, times, counts)
        return out

    def _hold(self, intensity: float, arrays: _RecordArrays, vecs, times, counts) -> None:
        """Append checked records to arrays and keep all its records as this
        data's."""
        arrays.extend(vecs, times, counts)
        check_exposure(intensity, arrays.records(arrays.size)[1])
        self.intensity = intensity
        self._arrays = arrays
        self._n = arrays.size

    def extended_arrays(self, vecs: np.ndarray, times: np.ndarray,
                        counts: np.ndarray) -> "LikelihoodData":
        """This data with records appended, already checked and given as
        arrays, as from_arrays takes them: it shares and grows this data's
        arrays, or a copy of their prefix when a longer data already grew
        them."""
        arrays = self._arrays
        if arrays.size != self._n:
            arrays = arrays.prefix(self._n)
        out = object.__new__(LikelihoodData)
        out._hold(self.intensity, arrays, vecs, times, counts)
        return out

    @cached_property
    def records(self) -> tuple[MeasurementRecord, ...]:
        """MeasurementRecord views of the records, built on first use."""
        vecs, times, counts = self._arrays.records(self._n)
        return tuple(MeasurementRecord(PovmElement(m), t, int(n))
                     for m, t, n in zip(from_stokes(vecs), times.tolist(), counts.tolist()))

    def arrays(self):
        """(traces, Bloch vectors, times, counts) of the records, views of
        the arrays this data shares."""
        vecs, times, counts = self._arrays.records(self._n)
        return vecs[:, 0], vecs[:, 1:], times, counts

    def matrices(self) -> np.ndarray:
        """The (K, 2, 2) matrices of the records, built per call."""
        return from_stokes(self._arrays.records(self._n)[0])


@dataclass(frozen=True)
class MleOptions:
    max_iter: int = 1000

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def _probabilities(mats: np.ndarray, rho: np.ndarray) -> np.ndarray:
    p = np.einsum("kij,ji->k", mats, rho).real
    return np.clip(p, 0.0, 1.0)


def log_likelihood(data: LikelihoodData, rho: DensityMatrix) -> float:
    """Poissonian log-likelihood, dropping the state-independent ln(n!) term.

    Conventions: records with t=0 (n=0 then) contribute exact zeros;
    records with n=0 contribute -I p t; records with n>0 and
    p <= PROB_CLAMP use the clamped p. Data with no t > 0 gives 0.
    """
    _, _, times, counts = data.arrays()
    if not times.any():
        return 0.0
    p = _probabilities(data.matrices(), rho.matrix)
    intensity, pos = data.intensity, counts > 0
    means = intensity * np.maximum(p[pos], PROB_CLAMP) * times[pos]
    out = -(intensity * p * times)
    out[pos] = counts[pos] * np.log(means) - means
    return float(out.sum())


def _support_isqrt(g: np.ndarray):
    """Inverse square root of G on its support; returns (G^-1/2, support mask, U)."""
    w, v = np.linalg.eigh(hermitize(g))
    support = w > _SUPPORT_RTOL * w[-1]
    s = np.zeros_like(w)
    s[support] = w[support] ** -0.5
    return (v * s) @ v.conj().T, support, v


def mle_estimate(data: LikelihoodData, opts: MleOptions | None = None,
                 logliks: list | None = None) -> DensityMatrix:
    """Maximum-likelihood state estimate by Newton and fixed-point steps.

    The log-likelihood is concave in the Bloch vector r of rho, and a
    call first solves for its maximum by Newton's method on r alone,
    from the fully mixed state, with p_k = (Tr M_k + m_k.r)/2 over the
    records' four-vectors (Tr M_k, m_k) and the exposure term in closed
    form (_Likelihood.value): a step that would leave the Bloch ball is
    cut to _SPHERE_SHARE of the way to the sphere, and a step is halved
    until it gains at least _NEWTON_GAIN of its first-order gain. The
    call ends, converged, once the Newton point lies in the ball, every
    counted p_k is above PROB_CLAMP and the Newton decrement is below the
    log-likelihood's round-off. When the counted m_k span fewer than three
    directions, the likelihood is flat across their span and the Newton
    steps run on it, so the estimate is the minimum-norm maximizer, with
    no Bloch component along a direction nothing counted measures; its
    decrement on the span bounds the gap over the whole ball. A drift
    I sum t_k m_k with a part off that span (the optimum then lies on the
    sphere), a G = I sum t_k M_k without full support, a singular Hessian,
    more than _MAX_CUTS cut steps running (the optimum lies on the
    sphere) or a step that no halving makes ascend hand the call over to
    the line search below, which restarts from the fully mixed state and
    leaves out the Newton loop's steps.

    The line search first tries the same Newton step and takes it alone
    when it gains at least _NEWTON_GAIN of the Newton decrement.
    Otherwise it tries the diluted fixed-point step
    rho <- normalize[(1-eps) rho + eps A rho A] with
    A = G^-1/2 R G^-1/2, R = sum_j (n_j/p_j) M_j and G = I sum_j t_j M_j.
    When the measured operators do not sum proportionally to the
    identity, that step's fixed point drops the count-rate information,
    so a multiplicative ascent step along the trace-projected gradient
    K = R - G - Tr[(R - G) rho] is tried as well; its fixed point is the
    constrained-likelihood stationary state. The best ascending trial,
    the Newton one included, is taken; when none ascends, eps halves and
    the trials are retried, so accepted iterates ascend monotonically. It
    ends on the same Newton decrement, or, on the boundary, once the
    halving search finds no ascent above the round-off. Pass ``logliks``
    to collect the start and the value after each accepted step. Issues a
    RuntimeWarning when ``opts.max_iter`` steps pass without reaching an
    end.
    """
    opts = opts or MleOptions()
    _, _, times, counts = data.arrays()
    if not times.any():
        raise ValueError("need at least one record with positive time")
    if counts.sum() == 0:
        rho0 = maximally_mixed()
        if logliks is not None:
            logliks.append(log_likelihood(data, rho0))
        return rho0
    lik = _Likelihood(data)
    solved = _newton_solve(lik, opts.max_iter) if lik.solvable else None
    if solved is not None:
        r, steps, capped = solved
        if logliks is not None:
            logliks.extend(steps)
        est = DensityMatrix(from_stokes(np.concatenate(([1.0], r))))
    else:
        rho, capped = _line_search(lik, opts.max_iter, logliks)
        est = DensityMatrix(_clip_spectrum(rho))
    if capped:
        warnings.warn(f"mle_estimate: max_iter = {opts.max_iter} steps reached before "
                      "no step could raise the log-likelihood above its round-off",
                      RuntimeWarning, stacklevel=2)
    return est


class _Likelihood:
    """The arrays of one estimator call: the records' traces, Bloch
    vectors m_k (M_k = (Tr M_k + m_k.sigma)/2), times and counts, views of
    the data's arrays; the counted records' (n_k > 0) I t_k, m_k, n_k and
    the products of the m_k's components, stacked once; and the exposure
    sums I sum t_k Tr M_k and I sum t_k m_k (the drift). When the counted
    m_k span fewer than three directions, ``span`` holds an orthonormal
    basis of their span, the products are those of the m_k's coordinates
    on it, and Newton steps stay in it; otherwise ``span`` is None.
    ``solvable`` tells whether the Newton loop may take the call. The
    operators M_k themselves are built only for the line search."""

    def __init__(self, data: LikelihoodData):
        self.data, self.intensity = data, data.intensity
        self.traces, self.bloch, self.times, self.counts = data.arrays()
        self.pos = self.counts > 0
        self.counts_pos = self.counts[self.pos]
        self.times_pos = self.times[self.pos]
        self.traces_pos = self.traces[self.pos]
        self.rates_pos = self.intensity * self.times_pos
        self.total_rate = self.intensity * self.times.sum()
        self.bloch_pos = self.bloch[self.pos]
        self.exposure = self.intensity * self.times @ self.traces
        self.drift = self.intensity * self.times @ self.bloch
        basis = data._arrays.span(data._n, self.bloch_pos)
        if basis is None:
            self.span, self.solvable = None, True
            # The six distinct entries of m_k m_k^T, the Hessian's terms.
            self.products = self.bloch_pos[:, _ROWS] * self.bloch_pos[:, _COLS]
        else:
            self._on_span(basis)

    def _on_span(self, basis: np.ndarray) -> None:
        """Set up Newton steps on the span of the counted m_k, given a (3, d)
        orthonormal basis Q of it, d < 3, where H is singular and the counted
        terms are flat across the span. The steps run in the coordinates of
        span, Q padded with zero columns, with the identity on the padded
        coordinates (pad) so that they take no step. The call is solvable
        there unless the drift has a part off the span beyond the
        exposure term's round-off (that term then tilts the likelihood
        along a flat direction, and the optimum lies on the sphere), or
        G = I sum t_k M_k, of spectrum (exposure -+ |drift|)/2, lacks full
        support (the line search checks the counts against it)."""
        d = basis.shape[1]
        self.span = np.zeros((3, 3))
        self.span[:, :d] = basis
        coords = self.bloch_pos @ self.span
        self.products = coords[:, _ROWS] * coords[:, _COLS]
        self.pad = np.diag([0.0] * d + [1.0] * (3 - d))[_ROWS, _COLS]
        off = self.drift - self.span @ (self.drift @ self.span)
        lam = math.sqrt(self.drift @ self.drift)
        self.solvable = (0.5 * math.sqrt(off @ off) <= _ROUNDOFF * self.total_rate
                         and self.exposure - lam > _SUPPORT_RTOL * (self.exposure + lam))

    @cached_property
    def mats(self) -> np.ndarray:
        return self.data.matrices()

    def value(self, r: np.ndarray):
        """(log-likelihood, counted p_k, their logs ln(I t_k p_k)) at the
        Bloch vector r, with p_k = (Tr M_k + m_k.r)/2 clamped below at
        PROB_CLAMP in the logs, and the exposure term sum_k I t_k p_k over
        every record in closed form, (I sum t_k Tr M_k + I sum t_k m_k.r)/2:
        the value log_likelihood gives while every p_k lies in [0, 1] and
        every counted one above PROB_CLAMP."""
        p = 0.5 * (self.traces_pos + self.bloch_pos @ r)
        logs = np.log(self.rates_pos * np.maximum(p, PROB_CLAMP))
        return float(self.counts_pos @ logs) - 0.5 * (self.exposure + self.drift @ r), p, logs

    def step(self, p: np.ndarray, logs: np.ndarray):
        """(the log-likelihood's round-off, Newton step s, Newton decrement
        g.s) at the counted p_k and logs of value(), where s = H^-1 g with
        g = (1/2) sum (n_k/p_k - I t_k) m_k and H = (1/4) sum n_k/p_k^2
        m_k m_k^T; s and g.s are None unless H is positive definite. On a
        span Q, s = Q H_Q^-1 g_Q with H_Q = Q^T H Q and g_Q = Q^T g, and
        the decrement is g_Q.s_Q."""
        p = np.maximum(p, PROB_CLAMP)
        ratios = self.counts_pos / p
        noise = _ROUNDOFF * (self.counts_pos @ np.abs(logs) + self.total_rate)
        grad = 0.5 * (ratios @ self.bloch_pos - self.drift)
        hess = 0.25 * ((ratios / p) @ self.products)
        if self.span is None:
            return (noise, *_solve_spd(hess, grad))
        step, decrement = _solve_spd(hess + self.pad, grad @ self.span)
        return noise, None if step is None else self.span @ step, decrement

    def loglik(self, p: np.ndarray) -> float:
        """The log-likelihood log_likelihood gives at every record's p_k,
        read from the counted records' arrays stacked once."""
        means = self.intensity * np.maximum(p[self.pos], PROB_CLAMP) * self.times_pos
        out = -(self.intensity * p * self.times)
        out[self.pos] = self.counts_pos * np.log(means) - means
        return float(out.sum())

    def newton(self, p: np.ndarray):
        """The line search's Newton trial at every record's p_k: (n_k/p_k
        over the counted records, with p_k clamped at PROB_CLAMP, the
        log-likelihood's round-off, the step s and decrement g.s that
        step() defines, by a general solve); s and g.s are None when H is
        singular."""
        p_pos = np.maximum(p[self.pos], PROB_CLAMP)
        logs = np.log(self.intensity * p_pos * self.times_pos)
        ratios = self.counts_pos / p_pos
        noise = _ROUNDOFF * (np.dot(self.counts_pos, np.abs(logs)) + self.total_rate)
        if self.span is not None:
            return ratios, noise, None, None
        hess = 0.25 * (self.bloch_pos.T * (ratios / p_pos)) @ self.bloch_pos
        grad = 0.5 * (ratios @ self.bloch_pos - self.drift)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            return ratios, noise, None, None
        return ratios, noise, step, grad @ step

    def converged(self, p_pos, noise, r_new, decrement) -> bool:
        """The end rule on interior optima, given the counted p_k, clamped
        at PROB_CLAMP or not, and a Newton point r_new. With every counted
        p_k above PROB_CLAMP the negated log-likelihood is self-concordant,
        so no state in the ball lies more than the decrement above the
        current one: at or below the round-off, the call has converged."""
        return (r_new @ r_new < 1.0 and decrement <= noise
                and bool(np.all(p_pos > PROB_CLAMP)))


# Row and column of the six distinct entries of a symmetric 3x3 matrix, in
# the order xx, xy, xz, yy, yz, zz.
_ROWS = np.array([0, 0, 0, 1, 1, 2])
_COLS = np.array([0, 1, 2, 1, 2, 2])


def _solve_spd(h: np.ndarray, g: np.ndarray):
    """(s, g.s) for the symmetric 3x3 system H s = g, H given by its six
    distinct entries, by the closed-form LDL^T factorization; (None, None)
    unless every pivot is positive, that is unless H is positive definite."""
    h00, h01, h02, h11, h12, h22 = h.tolist()
    g0, g1, g2 = g.tolist()
    if not h00 > 0:
        return None, None
    l10, l20 = h01 / h00, h02 / h00
    d1 = h11 - l10 * h01
    if not d1 > 0:
        return None, None
    l21 = (h12 - l20 * h01) / d1
    d2 = h22 - l20 * h02 - l21 * l21 * d1
    if not d2 > 0:
        return None, None
    y1 = g1 - l10 * g0
    y2 = g2 - l20 * g0 - l21 * y1
    s2 = y2 / d2
    s1 = y1 / d1 - l21 * s2
    s0 = g0 / h00 - l10 * s1 - l20 * s2
    return np.array([s0, s1, s2]), g0 * s0 + g1 * s1 + g2 * s2


def _newton_solve(lik: _Likelihood, max_iter: int):
    """Newton ascent on the Bloch vector from the fully mixed state, over
    the counted records and the exposure term in closed form.

    Returns (r, log-likelihoods of the start and each step, whether
    max_iter ran out), or None to hand the call over to the line search.
    """
    r = np.zeros(3)
    ll, p, logs = lik.value(r)
    lls = [ll]
    cuts = 0
    for _ in range(max_iter):
        noise, step, decrement = lik.step(p, logs)
        if step is None:
            return None
        r_new = r + step
        if lik.converged(p, noise, r_new, decrement):
            return r, lls, False
        if r_new @ r_new < 1.0:
            t, cuts = 1.0, 0
        else:
            cuts += 1
            if cuts > _MAX_CUTS:
                return None    # the optimum lies on the sphere
            # _SPHERE_SHARE of the share t of the step at which |r + t s| = 1.
            a, b, c = step @ step, r @ step, r @ r - 1.0
            t = _SPHERE_SHARE * (math.sqrt(b * b - a * c) - b) / a
        while True:
            ll_new, p_new, logs_new = lik.value(r + t * step)
            if ll_new - ll >= _NEWTON_GAIN * t * decrement:
                break
            t /= 2
            if t * decrement < noise:
                return None    # no resolvable ascent along the step
        r, p, ll, logs = r + t * step, p_new, ll_new, logs_new
        lls.append(ll)
    return r, lls, True


def _line_search(lik: _Likelihood, max_iter: int, logliks: list | None):
    """The Newton, fixed-point and gradient line search from the fully
    mixed state; returns (the last iterate, whether max_iter ran out)."""
    mats, times, counts = lik.mats, lik.times, lik.counts
    g = hermitize(lik.intensity * np.einsum("k,kij->ij", times, mats))
    g_isqrt, support, basis = _support_isqrt(g)
    if not support.all():
        _check_counts_on_support(mats, counts, basis, support)

    mats_pos = mats[lik.pos]
    eye = np.eye(2)

    def evaluate(cand: np.ndarray, floor: float):
        cand = hermitize(cand)
        # Clip to a strictly positive floor, not to zero: an exactly
        # rank-deficient iterate can never regain rank under the
        # congruence-style steps and would freeze on the boundary face.
        w, v = np.linalg.eigh(cand)
        if w[-1] <= 0:
            return None
        if w[0] < floor:
            cand = (v * np.maximum(w, floor)) @ v.conj().T
        tr = cand.trace().real
        if tr <= 0:
            return None
        cand = cand / tr
        p_cand = _probabilities(mats, cand)
        return cand, p_cand, lik.loglik(p_cand)

    rho = maximally_mixed().matrix.copy()
    p = _probabilities(mats, rho)
    ll = lik.loglik(p)
    if logliks is not None:
        logliks.append(ll)

    # Step size adapts around _DILUTION: halved on rejected steps, doubled
    # again (up to 1) after clean full-size accepts. The flat likelihood
    # valleys of near-pure states need the large steps.
    eps_start = _DILUTION
    prev_change = 0.0    # 0 after an extrapolation: the next step has no rate
    for _ in range(max_iter):
        # The Newton step converges quadratically on interior optima; it is
        # dropped when H is singular or r + s leaves the open unit ball. One
        # that gains at least _NEWTON_GAIN of the decrement is taken alone;
        # one that gains less seeds the line search below if it ascends.
        ratios, noise, step_b, decrement = lik.newton(p)
        if step_b is not None:
            r_new = np.einsum("aji,ij->a", _PAULI, rho).real + step_b
            if lik.converged(p[lik.pos], noise, r_new, decrement):
                break    # interior optimum, within round-off
            if r_new @ r_new >= 1.0:
                step_b = None

        floor = _eigen_floor(rho)
        best = None
        if step_b is not None:
            newton = evaluate(0.5 * (eye + np.einsum("a,aij->ij", r_new, _PAULI)), floor)
            if newton is not None and newton[2] > ll:
                if newton[2] - ll >= _NEWTON_GAIN * decrement:
                    rho, p, ll = newton
                    prev_change = 0.0    # not a fixed-point step: no rate
                    if logliks is not None:
                        logliks.append(ll)
                    continue
                best = newton

        r_op = np.einsum("k,kij->ij", ratios, mats_pos)
        a_op = hermitize(g_isqrt @ r_op @ g_isqrt)
        grad = hermitize(r_op - g)
        k_op = grad - np.einsum("ij,ji->", grad, rho).real * eye
        k_scale = float(np.max(np.abs(np.linalg.eigvalsh(k_op))))
        x_op = a_op @ rho @ a_op

        # First-order log-likelihood gain per unit eps of each trial step.
        # Once a step fails to ascend at eps and eps * slope is below the
        # round-off, a quadratic model of the gain admits no resolvable
        # ascent at any shorter step either, so halving further cannot help.
        slope_fp = np.einsum("ij,ji->", k_op, x_op).real
        slope_grad = (2.0 * np.einsum("ij,jk,ki->", k_op, rho, k_op).real / k_scale
                      if k_scale > 0 else 0.0)
        slope = max(slope_fp, slope_grad, 0.0)

        eps = eps_start
        halvings = 0
        for _ in range(60):
            trials = [evaluate((1.0 - eps) * rho + eps * x_op, floor=floor)]
            if k_scale > 0:
                step = eye + (eps / k_scale) * k_op
                trials.append(evaluate(step @ rho @ step, floor=floor))
            trials = [t for t in trials if t is not None]
            if trials:
                cand = max(trials, key=lambda t: t[2])
                if best is None or cand[2] > best[2]:
                    best = cand
                if best[2] > ll:
                    break
            if eps * slope < noise:
                break
            eps /= 2
            halvings += 1
        if best is None or best[2] <= ll:
            break    # no ascent resolvable above round-off; at the optimum
        accepted = best
        if halvings == 0:
            eps_start = min(1.0, 2.0 * eps_start)
        else:
            eps_start = max(eps, _DILUTION / 2 ** 10)
        cand, p, ll_new = accepted
        delta = cand - rho
        change = trace_norm(delta)

        # Aitken-style extrapolation along the dominant slow mode: the
        # fixed-point map contracts linearly, so when successive steps
        # shrink geometrically, jumping r/(1-r) deltas ahead lands near
        # the limit. Kept honest by the same log-likelihood guard and floor.
        if prev_change > 0:
            rate = change / prev_change
            if 1e-3 < rate < 0.999:
                gain = min(rate / (1.0 - rate), 1e3)
                trial = evaluate(cand + gain * delta, floor=_eigen_floor(cand))
                if trial is not None and trial[2] >= ll_new:
                    cand, p, ll_new = trial
                    change = 0.0
        prev_change = change

        rho, ll = cand, ll_new
        if logliks is not None:
            logliks.append(ll)
    else:
        return rho, True
    return rho, False


def _eigen_floor(rho: np.ndarray) -> float:
    """Smallest eigenvalue a step from rho may leave: a tenth of rho's.

    The multiplicative updates otherwise overshoot the radial coordinate
    into numerically exact rank deficiency, where no congruence step can
    restore rank; 10x per step keeps an overshoot resolvable and reversible.
    """
    lam = np.linalg.eigvalsh(rho)
    return max(0.1 * lam[0], 1e-18 * lam[-1])


def _clip_spectrum(rho: np.ndarray) -> np.ndarray:
    """Zero out round-off-negative eigenvalues and renormalize the trace."""
    w, v = np.linalg.eigh(hermitize(rho))
    if w[0] >= 0:
        return hermitize(rho)
    if w[0] < -EIGENVALUE_CLAMP:
        raise NotPositiveSemidefiniteError(
            f"MLE iterate has eigenvalue {w[0]:.3e}"
        )
    w = np.clip(w, 0.0, None)
    m = (v * w) @ v.conj().T
    return hermitize(m / m.trace().real)


def _check_counts_on_support(mats, counts, basis, support):
    """Reject data whose counts have weight outside the span of G."""
    comp = basis[:, ~support]
    proj_out = comp @ comp.conj().T
    for mat, n in zip(mats, counts):
        if n > 0:
            leak = float(np.einsum("ij,ji->", proj_out, mat).real)
            if leak > 1e-9:
                raise NonIdentifiableDataError(
                    "counts registered outside the measured subspace; "
                    f"out-of-support weight {leak:.3e}"
                )

