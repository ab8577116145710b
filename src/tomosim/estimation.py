"""Poissonian log-likelihood and the iterative maximum-likelihood estimator.

The count model: each record (M_j, t_j, n_j) contributes a Poisson term
with mean I * Tr(M_j rho) * t_j, where I is the independently measured
source intensity and M_j is a unit-trace measurement operator.
"""

from __future__ import annotations

import contextlib
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .quantum import DensityMatrix, PovmElement, maximally_mixed

# Modeled probabilities below this are clamped when they divide or sit
# inside a log; keeps the fixed point finite when counts land on outcomes
# the current iterate deems impossible.
PROB_CLAMP = 1e-12

# Relative eigenvalue threshold defining the support of G.
_SUPPORT_RTOL = 1e-12

# Step mixing weight epsilon that the adaptive step size starts from.
_DILUTION = 0.5

# Share of the Newton decrement a Newton step must gain to be taken alone,
# without the fixed-point and gradient line search.
_NEWTON_GAIN = 1 / 8

# Multiple of machine epsilon times the log-likelihood's magnitude below
# which a change in the summed log-likelihood is taken as round-off.
_ROUNDOFF = 4 * np.finfo(float).eps

# Pauli matrices: a unit-trace qubit operator is (1 + m.sigma)/2, m_a = Tr(sigma_a M).
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


class NonIdentifiableDataError(ValueError):
    """Counts were registered outside the span of the measured operators."""


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class LikelihoodData:
    """A record collection plus the source intensity I."""

    records: tuple[MeasurementRecord, ...]
    intensity: float

    def __post_init__(self):
        if not 0 < self.intensity < math.inf:
            raise ValueError(f"intensity must be positive and finite, got {self.intensity!r}")
        object.__setattr__(self, "records", tuple(self.records))
        # Poisson means I*t must stay normal floats, or G and log(I p t)
        # overflow or underflow deep inside the estimator.
        live = [r.time for r in self.records if r.time > 0]
        if live and not self.intensity * min(live) >= sys.float_info.min:
            raise ValueError("intensity * record time must be a normal float, "
                             f"got {self.intensity!r} * {min(live)!r}")
        if not math.isfinite(self.intensity * sum(live)):
            raise ValueError("intensity * total record time must be finite, "
                             f"got {self.intensity!r} * {sum(live)!r}")


@dataclass(frozen=True)
class MleOptions:
    max_iter: int = 1000

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def _stacked(data: LikelihoodData):
    """Arrays (M, t, n) over records with t > 0; t=0 records carry nothing."""
    live = [r for r in data.records if r.time > 0]
    if not live:
        raise ValueError("need at least one record with positive time")
    mats = np.stack([r.element.matrix for r in live])
    times = np.array([r.time for r in live])
    counts = np.array([r.counts for r in live], dtype=float)
    return mats, times, counts


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
    try:
        mats, times, counts = _stacked(data)
    except ValueError:
        return 0.0
    p = _probabilities(mats, rho.matrix)
    return _loglik(p, times, counts, data.intensity)


def _support_isqrt(g: np.ndarray):
    """Inverse square root of G on its support; returns (G^-1/2, support mask, U)."""
    w, v = linalg.hermitian_eig(linalg.hermitize(g), tol=1e-8)
    support = w > _SUPPORT_RTOL * w[-1]
    s = np.zeros_like(w)
    s[support] = w[support] ** -0.5
    return (v * s) @ v.conj().T, support, v


def mle_estimate(data: LikelihoodData, opts: MleOptions | None = None,
                 logliks: list | None = None) -> DensityMatrix:
    """Maximum-likelihood state estimate by Newton and fixed-point steps.

    Each iteration first tries a Newton step on the Bloch vector of rho,
    quadratic on interior optima, and takes it alone when it gains at least
    _NEWTON_GAIN of the Newton decrement. Otherwise it falls back to a line
    search: the diluted fixed-point step
    rho <- normalize[(1-eps) rho + eps A rho A] with
    A = G^-1/2 R G^-1/2, R = sum_j (n_j/p_j) M_j and G = I sum_j t_j M_j,
    starting from the fully mixed state. When the measured operators do
    not sum proportionally to the identity, that step's fixed point drops
    the count-rate information, so a multiplicative ascent step along the
    trace-projected gradient K = R - G - Tr[(R - G) rho] is tried as well;
    its fixed point is the constrained-likelihood stationary state. The
    best ascending trial, the Newton one included, is taken; when none
    ascends, eps halves and the trials are retried, so accepted iterates
    ascend monotonically. The log-likelihood is concave, and a call ends,
    converged, once no step can raise it by more than its round-off: on
    an interior optimum, once the Newton decrement is below the round-off;
    otherwise, on the boundary, once the halving search finds no ascent
    above it. Pass ``logliks`` to collect the per-step values. Issues a
    RuntimeWarning when ``opts.max_iter`` steps pass without reaching that
    point.
    """
    opts = opts or MleOptions()
    mats, times, counts = _stacked(data)
    dim = mats.shape[1]
    rho0 = maximally_mixed(dim)
    if counts.sum() == 0:
        return rho0

    g = linalg.hermitize(
        data.intensity * np.einsum("k,kij->ij", times, mats)
    )
    g_isqrt, support, basis = _support_isqrt(g)
    if not support.all():
        _check_counts_on_support(mats, counts, basis, support)

    pos = counts > 0
    mats_pos = mats[pos]
    counts_pos = counts[pos]
    eye = np.eye(dim)
    # Bloch vectors m_k of the records and the count-independent part of
    # the log-likelihood's gradient in Bloch coordinates.
    bloch = np.einsum("aji,kij->ka", _PAULI, mats).real
    bloch_pos = bloch[pos]
    drift = data.intensity * times @ bloch
    # Counts on fewer than three independent directions leave H singular:
    # a Newton step along the rest would be set by round-off.
    full_rank = np.linalg.matrix_rank(bloch_pos) == 3

    def evaluate(cand: np.ndarray, floor: float):
        cand = linalg.hermitize(cand)
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
        return cand, p_cand, _loglik(p_cand, times, counts, data.intensity)

    rho = rho0.matrix.copy()
    p = _probabilities(mats, rho)
    ll = _loglik(p, times, counts, data.intensity)
    if logliks is not None:
        logliks.append(ll)

    # Step size adapts around _DILUTION: halved on rejected steps, doubled
    # again (up to 1) after clean full-size accepts. The flat likelihood
    # valleys of near-pure states need the large steps.
    eps_start = _DILUTION
    prev_change = 0.0    # 0 after an extrapolation: the next step has no rate
    for _ in range(opts.max_iter):
        p_pos = np.maximum(p[pos], PROB_CLAMP)
        ratios = counts_pos / p_pos
        # Round-off of the summed log-likelihood.
        noise = _ROUNDOFF * (
            np.dot(counts_pos, np.abs(np.log(data.intensity * p_pos * times[pos])))
            + data.intensity * times.sum())

        # Newton step in Bloch coordinates, where the log-likelihood is
        # concave: r' = r + s, s = H^-1 g with g = (1/2) sum (n_k/p_k - I t_k) m_k
        # and H = (1/4) sum n_k/p_k^2 m_k m_k^T. It converges quadratically
        # on interior optima; it is dropped when H is singular or r' leaves
        # the open unit ball. With every p_k > PROB_CLAMP the negated
        # log-likelihood is self-concordant, so no state in the ball lies
        # more than the decrement g.s above the current one: at or below the
        # round-off, the call has converged. A Newton step that gains at
        # least _NEWTON_GAIN of that decrement is taken alone; one that
        # gains less seeds the line search below if it ascends.
        step_b = None
        if full_rank:
            hess = 0.25 * (bloch_pos.T * (ratios / p_pos)) @ bloch_pos
            grad_b = 0.5 * (ratios @ bloch_pos - drift)
            with contextlib.suppress(np.linalg.LinAlgError):
                step_b = np.linalg.solve(hess, grad_b)
        if step_b is not None:
            r_new = np.einsum("aji,ij->a", _PAULI, rho).real + step_b
            decrement = grad_b @ step_b
            if r_new @ r_new >= 1.0:
                step_b = None
            elif decrement <= noise and np.all(p[pos] > PROB_CLAMP):
                break    # interior optimum, within round-off

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
        a_op = linalg.hermitize(g_isqrt @ r_op @ g_isqrt)
        grad = linalg.hermitize(r_op - g)
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
        change = linalg.trace_norm(delta)

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
        warnings.warn(f"mle_estimate: max_iter = {opts.max_iter} steps reached before "
                      "no step could raise the log-likelihood above its round-off",
                      RuntimeWarning, stacklevel=2)
    return DensityMatrix(_clip_spectrum(rho))


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
    w, v = np.linalg.eigh(linalg.hermitize(rho))
    if w[0] >= 0:
        return linalg.hermitize(rho)
    if w[0] < -linalg.EIGENVALUE_CLAMP:
        raise linalg.NotPositiveSemidefiniteError(
            f"MLE iterate has eigenvalue {w[0]:.3e}"
        )
    w = np.clip(w, 0.0, None)
    m = (v * w) @ v.conj().T
    return linalg.hermitize(m / m.trace().real)


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
    """Mix with the fully mixed state: (1-delta) rho + delta eye/D.

    Guarantees every eigenvalue is >= delta/D, which the rank-preserving
    transformation needs before inverting the spectrum.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    d = rho.dim
    return DensityMatrix((1.0 - delta) * rho.matrix + delta * np.eye(d) / d)
