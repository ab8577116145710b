"""Convergence-curve aggregation, power-law fitting and efficiency ratios."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TINY = 1e-300


@dataclass(frozen=True)
class ConvergenceCurve:
    """Mean error curve over runs on a common logarithmic N grid."""

    n: np.ndarray             # strictly increasing
    mean: np.ndarray          # arithmetic mean of d_B^2 per grid point
    std_of_mean: np.ndarray   # sample std / sqrt(runs)
    runs: int

    def __post_init__(self):
        n = np.asarray(self.n, dtype=float)
        if n.ndim != 1 or not np.isfinite(n).all() or np.any(np.diff(n) <= 0):
            raise ValueError("curve N values must be finite and strictly increasing")
        object.__setattr__(self, "n", n)
        for name in ("mean", "std_of_mean"):
            values = np.asarray(getattr(self, name), dtype=float)
            if values.shape != n.shape:
                raise ValueError(f"curve {name} has shape {values.shape}, N has {n.shape}")
            if not np.isfinite(values).all():
                raise ValueError(f"curve {name} values must be finite")
            object.__setattr__(self, name, values)


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of d_B^2(N) = alpha * N^beta on a log-log scale."""

    alpha: float
    beta: float
    alpha_err: float
    beta_err: float
    window: tuple[float, float]


def log_grid(n_lo: float, n_hi: float, per_decade: int = 10) -> np.ndarray:
    """Logarithmic grid anchored at N = 10^(k/per_decade) for integer k.

    Anchoring makes grids from different campaigns share points wherever
    their supports overlap.
    """
    if n_lo <= 0 or n_hi < n_lo:
        raise ValueError("need 0 < n_lo <= n_hi")
    k_lo = math.ceil(per_decade * math.log10(n_lo) - 1e-9)
    k_hi = math.floor(per_decade * math.log10(n_hi) + 1e-9)
    if k_hi < k_lo:
        raise ValueError("no grid points inside the common support")
    return 10.0 ** (np.arange(k_lo, k_hi + 1) / per_decade)


def average_curves(traces, per_decade: int = 10) -> ConvergenceCurve:
    """Average run curves on a shared logarithmic grid.

    Each trace is interpolated linearly in (log N, log d_B^2); per grid
    point the interpolated values are combined by arithmetic mean and
    standard deviation of the mean.
    """
    traces = list(traces)
    if len(traces) < 2:
        raise ValueError("need at least two traces to average")
    points = [t.curve_points() for t in traces]
    lo = max(float(n[0]) for n, _ in points)
    hi = min(float(n[-1]) for n, _ in points)
    if hi <= lo:
        raise ValueError("traces have disjoint N support")
    grid = log_grid(lo, hi, per_decade)

    log_grid_n = np.log(grid)
    values = np.empty((len(points), grid.size))
    for i, (n, d) in enumerate(points):
        values[i] = np.exp(
            np.interp(log_grid_n, np.log(n), np.log(np.maximum(d, _TINY)))
        )
    mean = values.mean(axis=0)
    std_of_mean = values.std(axis=0, ddof=1) / np.sqrt(len(points))
    return ConvergenceCurve(grid, mean, std_of_mean, runs=len(points))


def fit_power_law(curve: ConvergenceCurve,
                  window: tuple[float, float]) -> PowerLawFit:
    """Weighted least squares of ln d_B^2 against ln N inside the window.

    Weights come from the std-of-mean by error propagation
    (sigma_ln = sigma/mean); curves with any zero or missing deviation are
    fitted unweighted, with parameter errors scaled from the residuals.
    """
    n1, n2 = float(window[0]), float(window[1])
    if not n1 < n2:
        raise ValueError("window must satisfy N1 < N2")
    mask = (curve.n >= n1) & (curve.n <= n2)
    if mask.sum() < 5:
        raise ValueError(
            f"fit window [{n1:g}, {n2:g}] holds {int(mask.sum())} points; need >= 5")
    x = np.log(curve.n[mask])
    y = np.log(np.maximum(curve.mean[mask], _TINY))
    sigma = curve.std_of_mean[mask] / np.maximum(curve.mean[mask], _TINY)

    design = np.column_stack([np.ones_like(x), x])
    weighted = bool(np.all(sigma > 0))
    w = 1.0 / sigma ** 2 if weighted else np.ones_like(x)
    ata = design.T @ (design * w[:, None])
    atb = design.T @ (w * y)
    coef = np.linalg.solve(ata, atb)
    cov = np.linalg.inv(ata)
    if not weighted:
        dof = max(x.size - 2, 1)
        resid = y - design @ coef
        cov = cov * float(resid @ resid) / dof

    intercept, slope = float(coef[0]), float(coef[1])
    alpha = math.exp(intercept)
    return PowerLawFit(
        alpha=alpha,
        beta=slope,
        alpha_err=alpha * math.sqrt(max(cov[0, 0], 0.0)),
        beta_err=math.sqrt(max(cov[1, 1], 0.0)),
        window=(n1, n2),
    )


def efficiency_ratio(fit1: PowerLawFit, fit2: PowerLawFit,
                     n1: float, n2: float) -> float:
    """Mean accuracy ratio of fit2 relative to fit1 over [N1, N2].

    Geometric mean of the two curve ratios at the window edges:
    (alpha2/alpha1) * (N1 N2)^((beta2 - beta1)/2).
    """
    if not 0 < n1 < n2:
        raise ValueError("need 0 < N1 < N2")
    return (fit2.alpha / fit1.alpha) * (n1 * n2) ** ((fit2.beta - fit1.beta) / 2.0)


def asymptotic_constant(plan, rho) -> float:
    """Predicted N E[d_B^2] as N -> infinity when a plan is measured again
    and again at a mixed state rho: tr(G F^-1).

    In Bloch coordinates r of rho, F = sum_k w_k m_k m_k^T / (4 p_k),
    divided by the plan's exposure weight, is the Poisson Fisher
    information per emitted copy of the plan's unit-trace projectors
    (Bloch vectors m_k, time weights w_k, p_k = (1 + m_k.r)/2), and
    G = [1 + r r^T / (1 - r^2)] / 4 is the Bures metric, d_B^2 = dr.G dr.
    Gill and Massar (PRA 61, 042312, 2000) bound it below by 9/4 for every
    plan. Infinite when the plan's Bloch vectors span fewer than three
    directions; G diverges on pure states, which are rejected. Near them a
    plan's four-vectors, exact to round-off eps, fix the constant only to
    about eps / sqrt(1 - r^2).
    """
    r = rho.stokes[1:]
    purity_gap = 4.0 * rho.det    # 1 - r^2, from the exact determinant
    if not purity_gap > 0:
        raise ValueError("asymptotic_constant needs a mixed state, got a pure one")
    norm = math.sqrt(r @ r)
    u = r / norm if norm > 0 else np.array([0.0, 0.0, 1.0])
    m = plan.vectors[:, 1:]
    m = m / np.linalg.norm(m, axis=1)[:, None]
    along = m @ u
    # p = (1 + m.r)/2 = [(1 - |r|) + |r| |m + u|^2 / 2] / 2, free of the
    # cancellation 1 + m.r suffers at m = -u on a near-pure state.
    p = 0.5 * (purity_gap / (1.0 + norm)
               + 0.5 * norm * np.einsum("ka,ka->k", m + u, m + u))
    # tr(G F^-1) = tr(A^-1) with A = G^-1/2 F G^-1/2, which is F on the
    # Bloch vectors G^-1/2 m = 2 [m - (m.u) u + sqrt(1 - r^2) (m.u) u].
    scaled = 2.0 * (m - along[:, None] * u + (math.sqrt(purity_gap) * along)[:, None] * u)
    weights = plan.time_weights / (4.0 * p * plan.exposure_weight())
    spectrum = np.linalg.eigvalsh((scaled.T * weights) @ scaled)
    if not spectrum[0] > 1e-12 * spectrum[-1]:
        return math.inf
    return float(np.sum(1.0 / spectrum))


def gill_massar_bound(n: float, kind: str) -> float:
    """Asymptotic qubit tomography error limit: 9/(4N) mixed, 1/N pure."""
    if n <= 0:
        raise ValueError("N must be positive")
    if kind == "mixed-qubit":
        return 9.0 / (4.0 * n)
    if kind == "pure-qubit":
        return 1.0 / n
    raise ValueError(f"unknown bound kind {kind!r}")
