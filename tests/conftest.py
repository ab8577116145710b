import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2

