"""Reference optimum of the qubit Poisson log-likelihood, for checking the
program's estimator from outside.

A unit-trace qubit record M = (1 + m.sigma)/2 read out on the state
rho = (1 + r.sigma)/2 has probability p = (1 + m.r)/2, so the
log-likelihood the program maximizes is, in Bloch coordinates,

    L(r) = sum_{n>0} [n log(I p' t) - I p' t] - sum_{n=0} I p t,
    p = clip((1 + m.r)/2, 0, 1),  p' = max(p, PROB_CLAMP),

which is concave over the unit ball. The optimum is found by damped Newton
ascent from several starts: plain Newton steps in the interior, Newton
steps within the tangent plane once an iterate sits on the sphere with
the gradient pointing outward. None of this is ever timed.
"""

from __future__ import annotations

import numpy as np

# Mirrors tomosim.estimation.PROB_CLAMP; run.py asserts the two agree.
PROB_CLAMP = 1e-12


def bloch(mat: np.ndarray) -> np.ndarray:
    """Bloch vector m of a qubit matrix (1 + m.sigma)/2 scaled to unit trace."""
    mat = np.asarray(mat, dtype=complex)
    tr = mat[0, 0].real + mat[1, 1].real
    return np.array([2 * mat[0, 1].real, -2 * mat[0, 1].imag,
                     (mat[0, 0] - mat[1, 1]).real]) / tr


def from_bloch(m: np.ndarray) -> np.ndarray:
    """Unit-trace qubit matrix (1 + m.sigma)/2."""
    x, y, z = m
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])


class Likelihood:
    """L(r) and its derivatives for stacked records (Bloch m, time, counts)."""

    def __init__(self, m: np.ndarray, times: np.ndarray, counts: np.ndarray,
                 intensity: float):
        live = times > 0
        self.m = np.asarray(m, dtype=float)[live]
        self.t = np.asarray(times, dtype=float)[live]
        self.n = np.asarray(counts, dtype=float)[live]
        self.intensity = float(intensity)
        self.pos = self.n > 0

    def _p(self, r):
        return np.clip(0.5 * (1.0 + self.m @ r), 0.0, 1.0)

    def value(self, r) -> float:
        p = self._p(r)
        out = -(self.intensity * p * self.t)
        pos = self.pos
        p_used = np.maximum(p[pos], PROB_CLAMP)
        out[pos] = self.n[pos] * np.log(self.intensity * p_used * self.t[pos]) \
            - self.intensity * p_used * self.t[pos]
        return float(np.sum(out))

    def grad_hess(self, r):
        p = np.maximum(self._p(r), PROB_CLAMP)
        w = self.n / p - self.intensity * self.t
        g = 0.5 * self.m.T @ w
        h = -0.25 * (self.m.T * (self.n / p ** 2)) @ self.m
        return g, h


def tangent_basis(r: np.ndarray) -> np.ndarray:
    """Two orthonormal columns spanning the plane orthogonal to unit r."""
    a = np.eye(3)[int(np.argmin(np.abs(r)))]
    e1 = np.cross(r, a)
    e1 /= np.linalg.norm(e1)
    return np.column_stack([e1, np.cross(r, e1)])


def _solve(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Minimum-norm Newton step -h^+ g: records that leave some direction
    unmeasured make h singular, and L is flat along that direction."""
    return np.linalg.lstsq(h, -g, rcond=1e-12)[0]


def _newton_step(lik: Likelihood, r: np.ndarray) -> np.ndarray:
    """One ascent step from r: interior Newton, or Newton on the sphere."""
    g, h = lik.grad_hess(r)
    norm = np.linalg.norm(r)
    on_sphere = norm > 1 - 1e-9 and g @ r > 0
    if not on_sphere:
        return _solve(h, g)
    u = r / norm
    e = tangent_basis(u)
    g2 = e.T @ g
    h2 = e.T @ h @ e - (g @ u) * np.eye(2)
    s2 = _solve(h2, g2)
    if g2 @ s2 <= 0:  # not an ascent direction: fall back to the gradient
        s2 = g2 / max(np.linalg.norm(g2), 1e-300) * 1e-3
    cand = u + e @ s2
    return cand / np.linalg.norm(cand) - r


def _ascend(lik: Likelihood, r: np.ndarray, ll: float) -> tuple[np.ndarray, float]:
    """Newton steps, halved until L rises, until no step raises L."""
    for _ in range(200):
        s = _newton_step(lik, r)
        if lik.grad_hess(r)[0] @ s < 1e-12:   # predicted gain: converged
            break
        improved = False
        for _ in range(40):
            cand = r + s
            nc = np.linalg.norm(cand)
            if nc > 1.0:
                cand = cand / nc
            ll_c = lik.value(cand)
            if ll_c > ll:
                r, ll, improved = cand, ll_c, True
                break
            s = s / 2
        if not improved:
            break
    return r, ll


def optimum(lik: Likelihood) -> tuple[float, np.ndarray]:
    """Best log-likelihood over the Bloch ball and the Bloch vector reaching it."""
    direction = lik.m.T @ lik.n
    nd = np.linalg.norm(direction)
    starts = [np.zeros(3)]
    if nd > 0:
        starts.append(0.9 * direction / nd)
    starts.append(np.array([0.3, -0.5, 0.4]))

    best_r, best_ll = None, -np.inf
    for r0 in starts:
        r, ll = _ascend(lik, r0, lik.value(r0))
        if ll > best_ll:
            best_r, best_ll = r, ll
    return best_ll, best_r
