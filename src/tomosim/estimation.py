"""Poissonian log-likelihood and the iterative maximum-likelihood estimator.

The count model: each record (M_j, t_j, n_j) contributes a Poisson term
with mean I * Tr(M_j rho) * t_j, where I is the independently measured
source intensity and M_j is a unit-trace measurement operator.
"""

from __future__ import annotations

import math
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
        if self.time < 0:
            raise ValueError("record time must be >= 0")
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
        if self.intensity <= 0:
            raise ValueError("intensity must be positive")
        object.__setattr__(self, "records", tuple(self.records))

    @property
    def dim(self) -> int:
        return self.records[0].element.dim

    def total_counts(self) -> int:
        return sum(r.counts for r in self.records)


@dataclass(frozen=True)
class MleOptions:
    max_iter: int = 1000
    tol: float = 1e-10          # stop threshold on trace-norm change
    dilution: float = 0.5       # step mixing weight epsilon
    mix_floor: float = 0.0      # mixing with eye/D applied to the result

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if not 0.0 < self.dilution <= 1.0:
            raise ValueError("dilution must be in (0, 1]")
        if not 0.0 <= self.mix_floor < 1.0:
            raise ValueError("mix_floor must be in [0, 1)")


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
    """Maximum-likelihood state estimate by diluted fixed-point iteration.

    The primary step is rho <- normalize[(1-eps) rho + eps A rho A] with
    A = G^-1/2 R G^-1/2, R = sum_j (n_j/p_j) M_j and G = I sum_j t_j M_j,
    starting from the fully mixed state. When the measured operators do
    not sum proportionally to the identity, that step's fixed point drops
    the count-rate information, so a multiplicative ascent step along the
    trace-projected gradient K = R - G - Tr[(R - G) rho] is tried whenever
    the primary one stalls; its fixed point is the constrained-likelihood
    stationary state. Steps that would lower the log-likelihood halve eps
    and retry, so accepted iterates ascend monotonically. Pass ``logliks``
    to collect the per-step values.
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

    def evaluate(cand: np.ndarray, floor: float | None = None):
        cand = linalg.hermitize(cand)
        if floor is not None:
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

    # Step size adapts around the configured dilution: halved on rejected
    # steps, doubled again (up to 1) after clean full-size accepts. The
    # flat likelihood valleys of near-pure states need the large steps.
    eps_start = opts.dilution
    prev_delta = None
    prev_change = 0.0
    for _ in range(opts.max_iter):
        ratios = counts_pos / np.maximum(p[pos], PROB_CLAMP)
        r_op = np.einsum("k,kij->ij", ratios, mats_pos)
        a_op = linalg.hermitize(g_isqrt @ r_op @ g_isqrt)
        grad = linalg.hermitize(r_op - g)
        k_op = grad - np.einsum("ij,ji->", grad, rho).real * eye
        k_scale = float(np.max(np.abs(np.linalg.eigvalsh(k_op))))

        # Cap how fast any step may shrink the smallest eigenvalue (10x per
        # accepted step): the multiplicative updates otherwise overshoot
        # the radial coordinate into numerically exact rank deficiency,
        # where no congruence step can restore rank.
        lam = np.linalg.eigvalsh(rho)
        floor = max(0.1 * lam[0], 1e-18 * lam[-1])

        eps = eps_start
        best = None
        halvings = 0
        for _ in range(60):
            trials = [evaluate((1.0 - eps) * rho + eps * (a_op @ rho @ a_op),
                               floor=floor)]
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
            eps /= 2
            halvings += 1
        if best is None or best[2] < ll:
            break    # no ascending step exists; numerically at a fixed point
        accepted = best
        if halvings == 0:
            eps_start = min(1.0, 2.0 * eps_start)
        else:
            eps_start = max(eps, opts.dilution / 2 ** 10)
        cand, p, ll_new = accepted
        delta = cand - rho
        change = linalg.trace_norm(delta)

        # Aitken-style extrapolation along the dominant slow mode: the
        # fixed-point map contracts linearly, so when successive steps
        # shrink geometrically, jumping r/(1-r) deltas ahead lands near
        # the limit. Kept honest by the same log-likelihood guard; the
        # floor caps how far one jump may shrink the smallest eigenvalue
        # (10x) so a radial overshoot stays resolvable and reversible.
        if prev_delta is not None and prev_change > 0:
            rate = change / prev_change
            if 1e-3 < rate < 0.999:
                gain = min(rate / (1.0 - rate), 1e3)
                lam_c = np.linalg.eigvalsh(cand)
                trial = evaluate(cand + gain * delta,
                                 floor=max(0.1 * lam_c[0], 1e-18 * lam_c[-1]))
                if trial is not None and trial[2] >= ll_new:
                    cand, p, ll_new = trial
                    delta, change = None, linalg.trace_norm(cand - rho)
        prev_delta, prev_change = delta, change

        rho, ll = cand, ll_new
        if logliks is not None:
            logliks.append(ll)
        if change < opts.tol:
            break

    if opts.mix_floor > 0:
        rho = (1.0 - opts.mix_floor) * rho \
            + opts.mix_floor * np.eye(dim) / dim
    return DensityMatrix(_clip_spectrum(rho))


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
