import numpy as np
import pytest
from scipy.optimize import minimize


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def bloch_ball_optimum(records, intensity) -> float | None:
    """Maximum of the Poisson log-likelihood over Bloch vectors r, |r| < 1,
    by scipy's BFGS on r = x / sqrt(1 + |x|^2); None when it lies on the
    sphere, where that map leaves the optimum at infinite x."""
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
    return -res.fun if np.linalg.norm(res.x) < 1e3 else None
