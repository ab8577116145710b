import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomosim import linalg
from conftest import numeric_rank, random_hermitian

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestHermitianEig:
    def test_diagonal_matrix(self):
        w, v = linalg.hermitian_eig(np.diag([0.1, 0.9]))
        assert np.allclose(w, [0.1, 0.9], atol=1e-14)
        assert np.allclose(np.abs(v), np.eye(2), atol=1e-14)

    def test_pauli_x(self):
        w, v = linalg.hermitian_eig(PAULI_X)
        assert np.allclose(w, [-1.0, 1.0], atol=1e-12)
        # reconstruction is the oracle; eigenvectors are (1, -+1)/sqrt(2) up to phase
        assert np.max(np.abs((v * w) @ v.conj().T - PAULI_X)) <= 1e-12
        assert np.allclose(np.abs(v), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-12)

    def test_identity(self):
        for d in (2, 3, 5):
            w, v = linalg.hermitian_eig(np.eye(d))
            assert np.allclose(w, 1.0)
            assert np.max(np.abs((v * w) @ v.conj().T - np.eye(d))) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(linalg.NonHermitianError, match="not Hermitian"):
            linalg.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_eigenvalues_ascending_and_unitary(self, rng):
        for dim in (2, 3, 4):
            a = random_hermitian(rng, dim)
            w, v = linalg.hermitian_eig(a)
            assert np.all(np.diff(w) >= 0)
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) <= 1e-10

    def test_reconstruction_sweep(self, rng):
        # 1000 random Hermitian matrices across D in {2, 3, 4}
        for i in range(1000):
            dim = 2 + i % 3
            a = random_hermitian(rng, dim)
            w, v = linalg.hermitian_eig(a)
            assert np.max(np.abs((v * w) @ v.conj().T - a)) <= 1e-10


class TestNumericRank:
    def test_identity(self):
        assert numeric_rank(np.eye(2), 1e-8) == 2

    def test_projector(self):
        assert numeric_rank(np.diag([1.0, 0.0]), 1e-8) == 1

    def test_requires_positive_tol(self):
        with pytest.raises(ValueError):
            numeric_rank(np.eye(2), 0.0)

    def test_congruence_preserves_rank(self, rng):
        # L M L^dag keeps the rank of M whenever L is full rank
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            r = int(rng.integers(1, dim + 1))
            vecs = rng.standard_normal((r, dim)) + 1j * rng.standard_normal((r, dim))
            m = sum(np.outer(v, v.conj()) for v in vecs)
            expected = numeric_rank(m, 1e-8)
            lop = (rng.standard_normal((dim, dim))
                   + 1j * rng.standard_normal((dim, dim)))
            assert numeric_rank(lop, 1e-8) == dim  # generically full rank
            assert numeric_rank(lop @ m @ lop.conj().T, 1e-8) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9), st.integers(min_value=2, max_value=4))
def test_eig_reconstruction_property(seed, dim):
    a = random_hermitian(np.random.default_rng(seed), dim)
    w, v = linalg.hermitian_eig(a)
    assert np.max(np.abs((v * w) @ v.conj().T - a)) <= 1e-10


def test_trace_norm_hermitian(rng):
    a = random_hermitian(rng, 3)
    assert linalg.trace_norm(a) == pytest.approx(np.sum(np.abs(np.linalg.eigvalsh(a))))
