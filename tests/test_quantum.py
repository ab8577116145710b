import pickle
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from tomosim import quantum
from tomosim.quantum import (
    DensityMatrix,
    PovmElement,
    bures_sq,
    fidelity,
    haar_unitary,
    maximally_mixed,
    mub_qubit,
    projector,
    pure_state,
    random_bures_mixed,
    random_pure_haar,
)
from conftest import born_probability, numeric_rank, random_hermitian

RHO_H = pure_state(quantum.KET_H)
EPS = np.finfo(float).eps
RHO_V = pure_state(quantum.KET_V)


class TestTypes:
    def test_density_matrix_validates_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.5, 0.6]))

    def test_density_matrix_validates_positivity(self):
        with pytest.raises(quantum.NotPositiveSemidefiniteError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_povm_element_weight_is_trace(self):
        e = PovmElement(np.diag([0.25, 0.5]))
        assert e.weight == pytest.approx(0.75)

    def test_matrices_are_frozen(self):
        rho = maximally_mixed()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    @pytest.mark.parametrize("build, entries, message", [
        (DensityMatrix, [[np.nan, 0], [0, 1]], "density matrix has a non-finite entry"),
        (PovmElement, [[np.nan, 0], [0, 0]], "POVM element has a non-finite entry"),
        (PovmElement, [[np.inf, 0], [0, 0]], "POVM element has a non-finite entry"),
        (PovmElement, [[1, np.nan], [0, 0]], "POVM element has a non-finite entry"),
        (PovmElement, [[1, np.inf], [np.inf, 0]], "POVM element has a non-finite entry"),
        (DensityMatrix, [[1, 0], [0, complex(0, np.nan)]],
         "density matrix has a non-finite entry")],
        ids=["DensityMatrix-nan", "PovmElement-nan", "PovmElement-inf",
             "PovmElement-nan-off-diagonal", "PovmElement-hermitian-inf",
             "DensityMatrix-imaginary-nan"])
    def test_non_finite_entries_rejected(self, build, entries, message):
        # A NaN or infinite entry is named before the Hermitian and PSD
        # checks, which would read inf - inf as NaN: [[1, inf], [inf, 0]] is
        # Hermitian, and its defect inf - inf is no measure of that.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                build(np.array(entries, dtype=complex))

    def test_overflowing_finite_entries_fail_the_psd_check(self):
        # Finite entries whose eigenvalues overflow read inf - inf = NaN,
        # which the negated check rejects.
        with pytest.raises(quantum.NotPositiveSemidefiniteError, match="eigenvalue nan"):
            PovmElement(np.full((2, 2), 1e308))

    def test_non_qubit_matrices_rejected(self):
        for build in (DensityMatrix, PovmElement):
            with pytest.raises(ValueError, match=r"only qubits \(D = 2\)"):
                build(np.eye(3) / 3)

    @pytest.mark.parametrize("build", [DensityMatrix, PovmElement])
    def test_pickle_rebuilds_frozen_matrices(self, build):
        obj = build(np.diag([0.25, 0.75]))
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is build and np.array_equal(back.matrix, obj.matrix)
        assert not back.matrix.flags.writeable
        # Unpickling runs the constructor's checks: a matrix swapped in
        # behind the frozen dataclass does not survive the round trip.
        object.__setattr__(obj, "matrix", np.diag([1.5, -0.5]))
        with pytest.raises(quantum.NotPositiveSemidefiniteError):
            pickle.loads(pickle.dumps(obj))


class TestBornRule:
    def test_projector_on_own_state(self):
        m = PovmElement(projector(quantum.KET_H))
        assert born_probability(m, RHO_H) == pytest.approx(1.0, abs=1e-12)

    def test_projector_on_mixed(self):
        m = PovmElement(projector(quantum.KET_H))
        assert born_probability(m, maximally_mixed()) == pytest.approx(0.5)

    def test_diagonal_basis_overlap(self):
        # oracle: |<D|H>|^2 computed from the vectors directly
        oracle = abs(np.vdot(quantum.KET_D, quantum.KET_H)) ** 2
        m = PovmElement(projector(quantum.KET_D))
        assert oracle == pytest.approx(0.5)
        assert born_probability(m, RHO_H) == pytest.approx(oracle, abs=1e-12)

    def test_dimension_mismatch(self):
        # A non-qubit element is rejected when it is built, so it never
        # meets a qubit state.
        with pytest.raises(ValueError, match="only qubits"):
            born_probability(PovmElement(np.eye(3)), maximally_mixed())


class TestFidelityAndBures:
    def test_self_fidelity(self, rng):
        rho = random_bures_mixed(rng)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        assert fidelity(RHO_H, RHO_V) == pytest.approx(0.0, abs=1e-12)
        assert bures_sq(RHO_H, RHO_V) == pytest.approx(2.0, abs=1e-9)

    def test_pure_vs_mixed(self):
        assert fidelity(RHO_H, maximally_mixed()) == pytest.approx(0.5, abs=1e-10)
        # plugging F = 0.5 into the distance formula: 2 - sqrt(2)
        assert bures_sq(RHO_H, maximally_mixed()) == pytest.approx(
            0.5857864376269049, abs=1e-9)

    def test_bures_zero_for_identical(self, rng):
        rho = random_bures_mixed(rng)
        assert bures_sq(rho, rho) == pytest.approx(0.0, abs=1e-9)

    def test_pure_pure_equals_squared_overlap(self, rng):
        for _ in range(100):
            v1 = quantum._complex_gaussians(rng, 2)
            v2 = quantum._complex_gaussians(rng, 2)
            v1 /= np.linalg.norm(v1)
            v2 /= np.linalg.norm(v2)
            oracle = abs(np.vdot(v1, v2)) ** 2
            assert fidelity(pure_state(v1), pure_state(v2)) == pytest.approx(
                oracle, abs=1e-9)

    def test_symmetry(self, rng):
        for _ in range(50):
            a = random_bures_mixed(rng)
            b = random_pure_haar(rng)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-9)

    def test_equal_states_give_exactly_one(self, rng):
        for rho in (random_bures_mixed(rng), random_pure_haar(rng)):
            assert fidelity(rho, DensityMatrix(rho.matrix.copy())) == 1.0
            assert bures_sq(rho, rho) == 0.0

    def test_rejects_non_qubits(self):
        with pytest.raises(ValueError, match="only qubits"):
            fidelity(DensityMatrix(np.eye(3) / 3), DensityMatrix(np.eye(3) / 3))

    def test_det_is_the_exact_determinant_rounded_once(self, rng):
        # The reference: a*d - |b|^2 in Fractions, rounded once.
        for i in range(300):
            rho = (random_bures_mixed if i % 2 else random_pure_haar)(rng)
            (a, b), (_, d) = (rho.matrix * (1e-150 if i % 7 == 0 else 1.0)).tolist()
            exact = (Fraction(a.real) * Fraction(d.real)
                     - Fraction(b.real) ** 2 - Fraction(b.imag) ** 2)
            assert quantum._qubit_det(np.array([[a, b], [b.conjugate(), d]])) == float(exact)
            assert rho.det == quantum._qubit_det(rho.matrix)

    def test_matches_high_precision_reference(self, rng):
        # Uhlmann's Tr^2 sqrt(sqrt(rho) sigma sqrt(rho)) at 60 digits on the
        # exact stored entries; near-pure factors are where double-precision
        # routes lose ~sqrt(eps)
        mpmath.mp.dps = 60

        def reference(a, b):
            w, v = mpmath.eighe(mpmath.matrix(a.tolist()))
            root = v * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in w]) * v.H
            inner = root * mpmath.matrix(b.tolist()) * root
            w2, _ = mpmath.eighe((inner + inner.H) / 2)
            return float(sum(mpmath.sqrt(max(x, 0)) for x in w2) ** 2)

        def state(kind):
            if kind == 0:
                return random_bures_mixed(rng)
            psi = random_pure_haar(rng)
            if kind == 1:
                return psi
            mix = 10.0 ** rng.uniform(-15, -3)
            return DensityMatrix((1 - mix) * psi.matrix + mix * np.eye(2) / 2)

        for _ in range(300):
            a, b = state(rng.integers(3)), state(rng.integers(3))
            assert abs(fidelity(a, b) - reference(a.matrix, b.matrix)) <= 1e-12

    def test_small_distance_linearization(self, rng):
        # d_B^2 ~= 1 - F when d_B^2 << 1
        base = random_bures_mixed(rng)
        for scale in (1e-3, 1e-4):
            bumped = DensityMatrix(
                (1 - scale) * base.matrix + scale * np.eye(2) / 2)
            d = bures_sq(base, bumped)
            if d <= 0.01 and d > 1e-12:
                assert d == pytest.approx(1 - fidelity(base, bumped), rel=5e-3)


class TestMub:
    def test_first_element_is_h_projector(self):
        assert np.allclose(mub_qubit()[0].matrix, np.diag([1.0, 0.0]))

    def test_sums_to_three_identities(self):
        total = sum(e.matrix for e in mub_qubit())
        assert np.max(np.abs(total - 3 * np.eye(2))) <= 1e-12

    def test_cross_basis_overlaps_are_half(self):
        kets = quantum.MUB_KETS
        for i in range(6):
            for j in range(6):
                if i // 2 != j // 2:  # different bases
                    assert abs(np.vdot(kets[i], kets[j])) ** 2 == pytest.approx(
                        0.5, abs=1e-12)

    def test_ordering_convention(self):
        assert np.allclose(projector(quantum.KET_D),
                           0.5 * np.array([[1, 1], [1, 1]]))


class TestHaarSampler:
    def test_sample_is_rank_one_unit_trace(self, rng):
        rho = random_pure_haar(rng)
        assert rho.matrix.trace().real == pytest.approx(1.0, abs=1e-12)
        assert numeric_rank(rho.matrix, 1e-8) == 1

    def test_mean_overlap_is_half(self, rng):
        vals = [random_pure_haar(rng).matrix[0, 0].real for _ in range(10 ** 4)]
        assert np.mean(vals) == pytest.approx(0.5, abs=0.02)

    def test_second_moment_matches_quadrature(self, rng):
        # overlap is uniform on [0,1]; E[x^2] = integral x^2 dx = 1/3,
        # frozen from numerical quadrature of the density
        oracle = 0.33333333333333337
        vals = [random_pure_haar(rng).matrix[0, 0].real ** 2
                for _ in range(10 ** 4)]
        assert np.mean(vals) == pytest.approx(oracle, abs=0.02)

    def test_overlap_uniformity_ks(self, rng):
        vals = [random_pure_haar(rng).matrix[0, 0].real for _ in range(10 ** 4)]
        assert stats.kstest(vals, "uniform").pvalue > 0.01

    def test_haar_unitary_is_unitary(self, rng):
        for _ in range(100):
            u = haar_unitary(rng)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-10


class TestBuresSampler:
    def test_samples_are_valid_states(self, rng):
        for _ in range(100):
            rho = random_bures_mixed(rng)
            assert rho.matrix.trace().real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-10

    def test_unitary_invariance(self, rng):
        # eigenvalue distribution is unchanged under rho -> W rho W^dag
        n = 10 ** 4
        base = np.array([
            np.linalg.eigvalsh(random_bures_mixed(rng).matrix)[0]
            for _ in range(n)])
        w = haar_unitary(np.random.default_rng(1))
        rotated = np.array([
            np.linalg.eigvalsh(
                w @ random_bures_mixed(rng).matrix @ w.conj().T)[0]
            for _ in range(n)])
        ks = stats.ks_2samp(base, rotated).statistic
        assert ks < 0.05

    def test_mean_purity_matches_reimplementation(self, rng):
        # independent oracle: same construction, separate code path and RNG
        def oracle_sample(orng):
            g = (orng.normal(size=(2, 2)) + 1j * orng.normal(size=(2, 2)))
            z = orng.normal(size=(2, 2)) + 1j * orng.normal(size=(2, 2))
            q, r = np.linalg.qr(z)
            w = q @ np.diag(np.diagonal(r) / np.abs(np.diagonal(r)))
            a = (np.eye(2) + w) @ g
            m = a @ a.conj().T
            m = m / np.trace(m).real
            return float(np.trace(m @ m).real)

        orng = np.random.default_rng(987654321)
        oracle = np.mean([oracle_sample(orng) for _ in range(10 ** 4)])
        ours = np.mean([float((m @ m).trace().real)
                        for m in (random_bures_mixed(rng).matrix for _ in range(10 ** 4))])
        assert ours == pytest.approx(oracle, abs=0.01)


class TestMaximallyMixed:
    def test_qubit(self):
        assert np.allclose(maximally_mixed().matrix, np.diag([0.5, 0.5]))

    def test_qutrit(self):
        # The qutrit's fully mixed state eye(3)/3 is a valid state of
        # another dimension, rejected when it is built.
        with pytest.raises(ValueError, match=r"only qubits \(D = 2\)"):
            DensityMatrix(np.eye(3) / 3)

    def test_born_probability_is_one_over_d(self, rng):
        for _ in range(10):
            u = haar_unitary(rng)
            m = PovmElement(projector(u[:, 0]))
            assert born_probability(m, maximally_mixed()) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_born_probability_in_range(seed):
    r = np.random.default_rng(seed)
    rho = random_bures_mixed(r)
    m = PovmElement(projector(haar_unitary(r)[:, 0]) * float(r.uniform(0.1, 3.0)))
    p = born_probability(m, rho)
    assert 0.0 <= p <= m.weight


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_fidelity_bounds_property(seed):
    r = np.random.default_rng(seed)
    a = random_bures_mixed(r)
    b = random_pure_haar(r)
    f = fidelity(a, b)
    assert 0.0 <= f <= 1.0
    assert 0.0 <= bures_sq(a, b) <= 2.0


def _qubit(low, high, theta, phi):
    """Hermitian 2x2 matrix with eigenvalues (low, high), up to round-off."""
    u = np.array([[np.cos(theta), -np.exp(-1j * phi) * np.sin(theta)],
                  [np.exp(1j * phi) * np.sin(theta), np.cos(theta)]])
    return quantum.hermitize((u * [low, high]) @ u.conj().T)


@settings(max_examples=300, deadline=None)
@given(st.floats(-4e-10, 2e-10), st.floats(0.0, 3.0), st.floats(0.0, np.pi),
       st.floats(0.0, 2 * np.pi), st.floats(-1e-8, 1e-8))
def test_qubit_psd_check_agrees_with_eigvalsh(low, high, theta, phi, skew):
    # The closed form (S_0 - |s|)/2 rejects exactly the matrices whose
    # eigvalsh minimum is below -EIGENVALUE_CLAMP, away from the round-off
    # of that threshold; the Hermiticity check likewise.
    m = _qubit(low, high, theta, phi)
    m[0, 1] += skew * (1 + 1j) * 1e-4    # up to 1.4e-12 away from Hermitian
    defect = np.max(np.abs(m - m.conj().T))
    herm = defect <= quantum.HERMITICITY_TOL
    assume(abs(defect - quantum.HERMITICITY_TOL) > 1e-15)
    lowest = np.linalg.eigvalsh(m)[0]
    assume(abs(lowest + quantum.EIGENVALUE_CLAMP) > 16 * EPS * max(high, 1.0))
    if not herm:
        with pytest.raises(quantum.NonHermitianError):
            PovmElement(m)
    elif lowest < -quantum.EIGENVALUE_CLAMP:
        with pytest.raises(quantum.NotPositiveSemidefiniteError, match="eigenvalue"):
            PovmElement(m)
    else:
        e = PovmElement(m)
        assert e.weight == float(m.trace().real)


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


def test_trace_norm_hermitian(rng):
    a = random_hermitian(rng, 3)
    assert quantum.trace_norm(a) == pytest.approx(np.sum(np.abs(np.linalg.eigvalsh(a))))
