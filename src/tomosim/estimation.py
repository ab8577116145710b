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
    hermitize,
    maximally_mixed,
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


class _RecordArrays:
    """The live records (t > 0) of a growing record stream as arrays: each
    record's trace Tr M_k, Bloch vector m_k (M_k = (Tr M_k + m_k.sigma)/2),
    time and counts. A full buffer grows to hold one more batch of the
    size just appended: a run appends one plan's records per iteration,
    so the slack stays below one plan. A prefix of the buffers is the
    arrays of the data holding its first n live records.

    The Bloch vectors are kept complex, as the einsum over the Paulis gives
    them, and read through their real part: numpy's matmul sums a strided
    operand in another order than a contiguous one, and the estimator's
    sums keep the order they had when every call stacked its own arrays.
    """

    def __init__(self):
        self.size = 0
        self._bloch = np.empty((0, 3), dtype=complex)
        self._traces = np.empty(0)
        self._times = np.empty(0)
        self._counts = np.empty(0)
        # (prefix length, smallest singular value) of the first prefix
        # whose counted Bloch vectors were found to span three directions.
        self._spanning = None

    def extend(self, records) -> None:
        live = [r for r in records if r.time > 0]
        if not live:
            return
        start, stop = self.size, self.size + len(live)
        if stop > self._times.size:
            self._reserve(stop + len(live))
        mats = np.array([r.element.matrix for r in live])
        self._bloch[start:stop] = np.einsum("aji,kij->ka", _PAULI, mats)
        self._traces[start:stop] = (mats[:, 0, 0] + mats[:, 1, 1]).real
        self._times[start:stop] = [r.time for r in live]
        self._counts[start:stop] = [r.counts for r in live]
        self.size = stop

    _BUFFERS = ("_bloch", "_traces", "_times", "_counts")

    def _reserve(self, capacity: int) -> None:
        n = self.size
        for name in self._BUFFERS:
            old = getattr(self, name)
            new = np.empty((capacity, *old.shape[1:]), dtype=old.dtype)
            new[:n] = old[:n]
            setattr(self, name, new)

    def prefix(self, n: int) -> "_RecordArrays":
        """A copy holding the first n live records only."""
        out = _RecordArrays()
        for name in self._BUFFERS:
            setattr(out, name, getattr(self, name)[:n].copy())
        out.size = n
        return out

    def views(self, n: int):
        """(traces, Bloch vectors, times, counts) of the first n live records."""
        return (self._traces[:n], self._bloch[:n].real, self._times[:n], self._counts[:n])

    def spans_three(self, n: int, bloch_pos: np.ndarray) -> bool:
        """matrix_rank(bloch_pos) == 3 for the counted Bloch vectors of the
        first n live records.

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
            return True
        if k < 3:
            return False
        s = np.linalg.svdvals(bloch_pos)
        if not s[2] > s[0] * k * _EPS:
            return False
        if known is None or n < known[0]:
            self._spanning = (n, s[2])
        return True


@dataclass(frozen=True)
class LikelihoodData:
    """A record collection plus the source intensity I.

    Its live records are also held as arrays (_RecordArrays), which
    ``extended`` grows in place, so a run that appends each iteration's
    records converts every record once.
    """

    records: tuple[MeasurementRecord, ...]
    intensity: float

    def __post_init__(self):
        if not 0 < self.intensity < math.inf:
            raise ValueError(f"intensity must be positive and finite, got {self.intensity!r}")
        object.__setattr__(self, "records", tuple(self.records))
        arrays = _RecordArrays()
        arrays.extend(self.records)
        self._hold(arrays)

    def _hold(self, arrays: _RecordArrays) -> None:
        """Keep the first arrays.size live records of arrays as this data's."""
        # Poisson means I*t must stay normal floats, or G and log(I p t)
        # overflow or underflow deep inside the estimator.
        live = arrays.views(arrays.size)[2]
        least = float(live.min()) if live.size else math.inf
        if not self.intensity * least >= sys.float_info.min:
            raise ValueError("intensity * record time must be a normal float, "
                             f"got {self.intensity!r} * {least!r}")
        total = float(live.sum())
        if not math.isfinite(self.intensity * total):
            raise ValueError("intensity * total record time must be finite, "
                             f"got {self.intensity!r} * {total!r}")
        object.__setattr__(self, "_arrays", arrays)
        object.__setattr__(self, "_n_live", arrays.size)

    def extended(self, records) -> "LikelihoodData":
        """This data with records appended, sharing and growing its arrays
        (or a copy of their prefix when a longer data already grew them)."""
        new = tuple(records)
        arrays = self._arrays
        if arrays.size != self._n_live:
            arrays = arrays.prefix(self._n_live)
        arrays.extend(new)
        out = object.__new__(LikelihoodData)
        object.__setattr__(out, "records", self.records + new)
        object.__setattr__(out, "intensity", self.intensity)
        out._hold(arrays)
        return out

    def arrays(self):
        """(traces, Bloch vectors, times, counts) of the live records,
        views of the arrays this data shares."""
        return self._arrays.views(self._n_live)


@dataclass(frozen=True)
class MleOptions:
    max_iter: int = 1000

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def _live_matrices(data: LikelihoodData) -> np.ndarray:
    """The operators of the records with t > 0, stacked (K, 2, 2)."""
    return np.array([r.element.matrix for r in data.records if r.time > 0])


def _probabilities(mats: np.ndarray, rho: np.ndarray) -> np.ndarray:
    p = np.einsum("kij,ji->k", mats, rho).real
    return np.clip(p, 0.0, 1.0)


def _loglik(p: np.ndarray, times: np.ndarray, counts: np.ndarray,
            intensity: float) -> float:
    out = -(intensity * p * times)
    pos = counts > 0
    if np.any(pos):
        p_used = np.maximum(p[pos], PROB_CLAMP)
        out[pos] = counts[pos] * np.log(intensity * p_used * times[pos]) \
            - intensity * p_used * times[pos]
    return float(out.sum())


def log_likelihood(data: LikelihoodData, rho: DensityMatrix) -> float:
    """Poissonian log-likelihood, dropping the state-independent ln(n!) term.

    Conventions: records with t=0 contribute 0; records with n=0 contribute
    -I p t; records with n>0 and p <= PROB_CLAMP use the clamped p.
    """
    _, _, times, counts = data.arrays()
    if not times.size:
        return 0.0
    p = _probabilities(_live_matrices(data), rho.matrix)
    return _loglik(p, times, counts, data.intensity)


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
    records' Bloch vectors m_k: a step that would leave the Bloch ball is
    cut to _SPHERE_SHARE of the way to the sphere, and a step is halved
    until it gains at least _NEWTON_GAIN of its first-order gain. The
    call ends, converged, once the Newton point lies in the ball, every
    counted p_k is above PROB_CLAMP and the Newton decrement is below the
    log-likelihood's round-off. Data whose counted m_k span fewer than
    three directions, a singular Hessian, more than _MAX_CUTS cut steps
    running (the optimum lies on the sphere) or a step that no halving
    makes ascend hand the call over to the line search below, which
    restarts from the fully mixed state and leaves out the Newton loop's
    steps.

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
    if not times.size:
        raise ValueError("need at least one record with positive time")
    if counts.sum() == 0:
        rho0 = maximally_mixed()
        if logliks is not None:
            logliks.append(_loglik(_probabilities(_live_matrices(data), rho0.matrix),
                                   times, counts, data.intensity))
        return rho0
    lik = _Likelihood(data)
    solved = _newton_solve(lik, opts.max_iter) if lik.full_rank else None
    if solved is not None:
        r, steps, capped = solved
        if logliks is not None:
            logliks.extend(steps)
        est = DensityMatrix(0.5 * (np.eye(2) + np.einsum("a,aij->ij", r, _PAULI)))
    else:
        rho, capped = _line_search(lik, opts.max_iter, logliks)
        est = DensityMatrix(_clip_spectrum(rho))
    if capped:
        warnings.warn(f"mle_estimate: max_iter = {opts.max_iter} steps reached before "
                      "no step could raise the log-likelihood above its round-off",
                      RuntimeWarning, stacklevel=2)
    return est


class _Likelihood:
    """The arrays of one estimator call: the live records' traces, Bloch
    vectors m_k (M_k = (Tr M_k + m_k.sigma)/2), times and counts, views of
    the data's arrays, and the count-independent part of the gradient in
    Bloch coordinates. The operators M_k themselves are stacked only for
    the line search."""

    def __init__(self, data: LikelihoodData):
        self.data, self.intensity = data, data.intensity
        self.traces, self.bloch, self.times, self.counts = data.arrays()
        self.pos = self.counts > 0
        self.counts_pos = self.counts[self.pos]
        self.times_pos = self.times[self.pos]
        self.total_rate = self.intensity * self.times.sum()
        self.bloch_pos = self.bloch[self.pos]
        self.drift = self.intensity * self.times @ self.bloch
        # Counts on fewer than three independent directions leave H singular:
        # a Newton step along the rest would be set by round-off.
        self.full_rank = data._arrays.spans_three(self.times.size, self.bloch_pos)

    @cached_property
    def mats(self) -> np.ndarray:
        return _live_matrices(self.data)

    def counted(self, p: np.ndarray):
        """The counted p_k, clamped at PROB_CLAMP, and their ln(I p_k t_k)."""
        p_pos = np.maximum(p[self.pos], PROB_CLAMP)
        return p_pos, np.log(self.intensity * p_pos * self.times_pos)

    def terms(self, p: np.ndarray):
        """(log-likelihood, and counted() at p): one log per counted record
        serves both the value and the Newton step's round-off."""
        p_pos, logs = self.counted(p)
        out = -(self.intensity * p * self.times)
        out[self.pos] = self.counts_pos * logs - self.intensity * p_pos * self.times_pos
        return float(out.sum()), p_pos, logs

    def loglik(self, p: np.ndarray) -> float:
        return self.terms(p)[0]

    def newton(self, p_pos: np.ndarray, logs: np.ndarray):
        """(n_k/p_k over the counted records, the log-likelihood's round-off,
        Newton step s, Newton decrement g.s) at the counted probabilities
        p_pos and their logs from counted(), where s = H^-1 g on the Bloch
        vector with g = (1/2) sum (n_k/p_k - I t_k) m_k and
        H = (1/4) sum n_k/p_k^2 m_k m_k^T; s and g.s are None when H is
        singular."""
        ratios = self.counts_pos / p_pos
        noise = _ROUNDOFF * (np.dot(self.counts_pos, np.abs(logs)) + self.total_rate)
        if not self.full_rank:
            return ratios, noise, None, None
        hess = 0.25 * (self.bloch_pos.T * (ratios / p_pos)) @ self.bloch_pos
        grad = 0.5 * (ratios @ self.bloch_pos - self.drift)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            return ratios, noise, None, None
        return ratios, noise, step, grad @ step

    def converged(self, p, noise, r_new, decrement) -> bool:
        """The end rule on interior optima. With every counted p_k above
        PROB_CLAMP the negated log-likelihood is self-concordant, so no
        state in the ball lies more than the decrement above the current
        one: at or below the round-off, the call has converged."""
        return (r_new @ r_new < 1.0 and decrement <= noise
                and bool(np.all(p[self.pos] > PROB_CLAMP)))


def _newton_solve(lik: _Likelihood, max_iter: int):
    """Newton ascent on the Bloch vector from the fully mixed state.

    Returns (r, log-likelihoods of the start and each step, whether
    max_iter ran out), or None to hand the call over to the line search.
    """
    traces, bloch = lik.traces, lik.bloch

    def probabilities(r):
        return np.minimum(np.maximum(0.5 * (traces + bloch @ r), 0.0), 1.0)

    r = np.zeros(3)
    p = probabilities(r)
    ll, p_pos, logs = lik.terms(p)
    lls = [ll]
    cuts = 0
    for _ in range(max_iter):
        _, noise, step, decrement = lik.newton(p_pos, logs)
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
            p_new = probabilities(r + t * step)
            ll_new, pos_new, logs_new = lik.terms(p_new)
            if ll_new - ll >= _NEWTON_GAIN * t * decrement:
                break
            t /= 2
            if t * decrement < noise:
                return None    # no resolvable ascent along the step
        r, p, ll, p_pos, logs = r + t * step, p_new, ll_new, pos_new, logs_new
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
        ratios, noise, step_b, decrement = lik.newton(*lik.counted(p))
        if step_b is not None:
            r_new = np.einsum("aji,ij->a", _PAULI, rho).real + step_b
            if lik.converged(p, noise, r_new, decrement):
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


def regularize_full_rank(rho: DensityMatrix, delta: float) -> DensityMatrix:
    """Mix with the fully mixed state: (1-delta) rho + delta eye/2.

    Guarantees every eigenvalue is >= delta/2, which the rank-preserving
    transformation needs before inverting the spectrum.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    return DensityMatrix((1.0 - delta) * rho.matrix + delta * np.eye(2) / 2)
