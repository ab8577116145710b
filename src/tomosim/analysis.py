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
        if n.ndim != 1 or np.any(np.diff(n) <= 0):
            raise ValueError("curve N values must be strictly increasing")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "std_of_mean",
                           np.asarray(self.std_of_mean, dtype=float))


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of d_B^2(N) = alpha * N^beta on a log-log scale."""

    alpha: float
    beta: float
    alpha_err: float
    beta_err: float
    window: tuple[float, float]

    def value(self, n: float) -> float:
        return self.alpha * n ** self.beta


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


def gill_massar_bound(n: float, kind: str) -> float:
    """Asymptotic qubit tomography error limit: 9/(4N) mixed, 1/N pure."""
    if n <= 0:
        raise ValueError("N must be positive")
    if kind == "mixed-qubit":
        return 9.0 / (4.0 * n)
    if kind == "pure-qubit":
        return 1.0 / n
    raise ValueError(f"unknown bound kind {kind!r}")
