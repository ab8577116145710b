from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from tomosim.quantum import DensityMatrix, PovmElement, as_square_complex
from tomosim.simulator import _fmt


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def born_probability(element: PovmElement, rho: DensityMatrix) -> float:
    """Outcome probability Tr(M rho), clamped to [0, Tr M]."""
    p = float((element.matrix @ rho.matrix).trace().real)
    return min(max(p, 0.0), element.weight)


def regularize_full_rank(rho: DensityMatrix, delta: float) -> DensityMatrix:
    """Mix with the fully mixed state: (1-delta) rho + delta eye/2.

    Guarantees every eigenvalue is >= delta/2, which the rank-preserving
    transformation needs before inverting the spectrum.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    return DensityMatrix((1.0 - delta) * rho.matrix + delta * np.eye(2) / 2)


def write_state_file(path, rho: DensityMatrix) -> None:
    """A state file as ``tomosim simulate --states`` reads it: D = 2, then
    the matrix as 8 row-major reals, re/im interleaved."""
    reals = rho.matrix.reshape(-1).view(float).tolist()
    Path(path).write_text("2\n" + ",".join(map(_fmt, reals)) + "\n")


def numeric_rank(a, tol: float) -> int:
    """Number of singular values above tol * (largest singular value).

    For Hermitian input this equals the count of eigenvalues whose
    magnitude exceeds tol times the largest eigenvalue magnitude.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    s = np.linalg.svd(as_square_complex(a), compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


# Largest |x| at which BFGS's end counts as an interior optimum:
# |r| = 30/sqrt(901) = 0.99944. On seeds 0-299 of the [haar] Bures data of
# test_estimation, all 246 datasets where BFGS ends below it agree with
# the estimator within 6e-11 nats, while 9 of the datasets where it ends
# between 30 and 1e3 (near optima on the sphere) differ from it by 7e-5 to
# 0.0255 nats. The 228 calls there that the estimator's Newton loop ends
# inside the ball end below |x| = 19.
INTERIOR_X = 30.0


def bloch_ball_fit(records, intensity) -> tuple[float, float]:
    """(log-likelihood, |x|) where scipy's BFGS ends maximizing the Poisson
    log-likelihood over Bloch vectors r = x / sqrt(1 + |x|^2), |r| < 1.
    An optimum on the sphere sits at infinite x, so there BFGS ends at
    some large |x| and a feasible point below the maximum."""
    mats = np.array([r.element.matrix for r in records])
    m = np.stack([2 * mats[:, 0, 1].real, -2 * mats[:, 0, 1].imag,
                  (mats[:, 0, 0] - mats[:, 1, 1]).real], axis=1)
    t = np.array([r.time for r in records])
    n = np.array([r.counts for r in records], dtype=float)

    def neg_ll_and_grad(x):
        s = np.sqrt(1.0 + x @ x)
        r = x / s
        p = 0.5 * (1.0 + m @ r)
        grad_r = 0.5 * m.T @ (n / p - intensity * t)
        grad_x = grad_r / s - x * (x @ grad_r) / s ** 3
        return -np.sum(n * np.log(intensity * p * t) - intensity * p * t), -grad_x

    res = minimize(neg_ll_and_grad, np.zeros(3), jac=True, method="BFGS",
                   options={"gtol": 1e-10})
    return -res.fun, float(np.linalg.norm(res.x))


def bloch_ball_optimum(records, intensity) -> float | None:
    """Maximum of the Poisson log-likelihood over the Bloch ball by BFGS,
    or None unless it is interior: BFGS ends at |x| <= INTERIOR_X."""
    value, norm_x = bloch_ball_fit(records, intensity)
    return value if norm_x <= INTERIOR_X else None
