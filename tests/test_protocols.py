from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomosim import quantum
from tomosim.protocols import (
    PROTOCOLS,
    MeasurementPlan,
    apply_unitary_freedom,
    complement_minimal,
    complement_to_basis,
    initial_plan,
    next_plan,
    normalize_with_time,
    rank_preserving_map,
)
from tomosim.quantum import (
    DensityMatrix,
    PovmElement,
    from_stokes,
    haar_unitary,
    maximally_mixed,
    mub_qubit,
    projector,
    random_pure_haar,
    to_stokes,
)
from conftest import numeric_rank, regularize_full_rank

MUB = mub_qubit()
# The (6, 4) four-vectors of the MUB projectors.
MUB_VECS = to_stokes(np.array([e.matrix for e in MUB]))


def bloch(mat):
    """Bloch vector of a 2x2 Hermitian matrix (unnormalized operator ok)."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return np.array([np.trace(mat @ s).real for s in (sx, sy, sz)])


def transform(transfer, matrix):
    """The element L M L^dag a transfer matrix maps M to, as a matrix."""
    return from_stokes(transfer @ to_stokes(matrix))


def mapped_estimator(transfer, reg):
    """lmap rho_reg lmap^dag: the conjugation by L^dag acts on four-vectors
    as the transpose of L's transfer matrix."""
    return from_stokes(transfer.T @ reg.stokes)


def conjugation_transfer(lop):
    """The 4x4 matrix of M -> lop M lop^dag on four-vectors, column b the
    image of sigma_b (four-vector 2 e_b)."""
    return np.column_stack([to_stokes(lop @ s @ lop.conj().T) / 2 for s in quantum.STOKES])


class TestRankPreservingMap:
    def test_mixed_estimator_gives_identity(self):
        transfer = rank_preserving_map(maximally_mixed(), 1e-4)
        assert np.max(np.abs(transfer - np.eye(4))) <= 1e-9

    def test_diagonal_estimator(self):
        # oracle: the map sends the estimator to eye/2; for a diagonal
        # estimator the map is diag(1/sqrt(1.8), 1/sqrt(0.2)) exactly
        rho = DensityMatrix(np.diag([0.9, 0.1]))
        transfer = rank_preserving_map(rho, 1e-12)
        mapped = mapped_estimator(transfer, regularize_full_rank(rho, 1e-12))
        assert np.max(np.abs(mapped - np.eye(2) / 2)) <= 1e-9
        expected = np.diag([0.7453559924999299, 2.23606797749979])
        assert np.max(np.abs(transfer - conjugation_transfer(expected))) <= 1e-5

    def test_rotated_estimator(self, rng):
        w = haar_unitary(rng)
        rho = DensityMatrix(w @ np.diag([0.7, 0.3]) @ w.conj().T)
        transfer = rank_preserving_map(rho, 1e-12)
        mapped = mapped_estimator(transfer, regularize_full_rank(rho, 1e-12))
        assert np.max(np.abs(mapped - np.eye(2) / 2)) <= 1e-12

    def test_invariant_sweep(self, rng):
        for _ in range(200):
            rho = regularize_full_rank(random_pure_haar(rng), 1e-4)
            transfer = rank_preserving_map(rho, 1e-4)
            mapped = mapped_estimator(transfer, regularize_full_rank(rho, 1e-4))
            assert np.max(np.abs(mapped - np.eye(2) / 2)) <= 1e-9
            assert numeric_rank(transfer, 1e-8) == 4


class TestTransformMeasurement:
    def test_identity_op_keeps_element(self):
        transfer = rank_preserving_map(maximally_mixed(), 1e-4)
        m = MUB[2]
        out = transform(transfer, m.matrix)
        assert np.max(np.abs(out - m.matrix)) <= 1e-8

    def test_diagonal_estimator_d_projector(self):
        # frozen arithmetic: L M L^dag = (1/4)[[10/9, 10/3], [10/3, 10]]
        rho = DensityMatrix(np.diag([0.9, 0.1]))
        transfer = rank_preserving_map(rho, 1e-12)
        out = transform(transfer, projector(quantum.KET_D))
        expected = 0.25 * np.array([[10 / 9, 10 / 3], [10 / 3, 10.0]])
        assert np.max(np.abs(out - expected)) <= 1e-9
        assert np.trace(out).real == pytest.approx(25 / 9, abs=1e-9)
        # oracle from the defining property: Tr(M_new rho_reg) = Tr(M)/D
        got = np.trace(out @ regularize_full_rank(rho, 1e-12).matrix).real
        assert got == pytest.approx(0.5, abs=1e-9)

    def test_trace_rule_and_rank_sweep(self, rng):
        for _ in range(100):
            rho = regularize_full_rank(random_pure_haar(rng), 1e-4)
            transfer = rank_preserving_map(rho, 1e-4)
            m = projector(haar_unitary(rng)[:, 0])
            out = transform(transfer, m)
            got = np.trace(out @ regularize_full_rank(rho, 1e-4).matrix).real
            assert got == pytest.approx(np.trace(m).real / 2, abs=1e-9)
            assert numeric_rank(out, 1e-8) == 1

    def test_transfer_is_scaled_lorentz_boost(self, rng):
        # On four-vectors (Tr M, Tr sigma M) the symmetric map acts as
        # gamma Lambda(r): the boost with velocity r of the regularized
        # estimator, scaled by gamma = 1/sqrt(1 - r^2).
        for _ in range(50):
            rho = random_pure_haar(rng)
            transfer = rank_preserving_map(rho, 1e-4)
            r = bloch(regularize_full_rank(rho, 1e-4).matrix)
            gamma = 1.0 / np.sqrt(1.0 - r @ r)
            boost = np.block([[np.array([[gamma]]), -gamma * r[None, :]],
                              [-gamma * r[:, None],
                               np.eye(3) + gamma ** 2 / (gamma + 1) * np.outer(r, r)]])
            for e in MUB:
                got = to_stokes(transform(transfer, e.matrix))
                want = gamma * boost @ to_stokes(e.matrix)
                assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


class TestUnitaryFreedom:
    def test_identity_unchanged(self):
        transfer = rank_preserving_map(DensityMatrix(np.diag([0.8, 0.2])), 1e-6)
        out = apply_unitary_freedom(transfer, np.eye(2))
        assert np.allclose(out, transfer)

    def test_random_v_keeps_mapping(self, rng):
        rho = DensityMatrix(np.diag([0.8, 0.2]))
        transfer = rank_preserving_map(rho, 1e-6)
        for _ in range(20):
            out = apply_unitary_freedom(transfer, haar_unitary(rng))
            mapped = mapped_estimator(out, regularize_full_rank(rho, 1e-6))
            assert np.max(np.abs(mapped - np.eye(2) / 2)) <= 1e-9

    def test_probabilities_on_estimator_invariant(self, rng):
        rho = regularize_full_rank(random_pure_haar(rng), 1e-4)
        transfer = rank_preserving_map(rho, 1e-4)
        reg = regularize_full_rank(rho, 1e-4).matrix
        for m in MUB:
            base = transform(transfer, m.matrix)
            rotated = transform(apply_unitary_freedom(transfer, haar_unitary(rng)), m.matrix)
            p0 = np.trace(base @ reg).real
            p1 = np.trace(rotated @ reg).real
            assert p1 == pytest.approx(p0, abs=1e-9)
            assert p1 == pytest.approx(m.weight / 2, abs=1e-9)

    def test_rejects_non_unitary(self):
        transfer = rank_preserving_map(maximally_mixed(), 1e-4)
        with pytest.raises(ValueError, match="unitary"):
            apply_unitary_freedom(transfer, np.diag([1.0, 2.0]))
        with pytest.raises(ValueError, match="2x2"):
            apply_unitary_freedom(transfer, np.eye(3))


class TestNormalizeWithTime:
    def test_transformed_element_splits(self):
        rho = DensityMatrix(np.diag([0.9, 0.1]))
        transfer = rank_preserving_map(rho, 1e-12)
        out = transfer @ to_stokes(projector(quantum.KET_D))
        plan = normalize_with_time(out[None], ((0,),))
        assert plan.time_weights[0] == pytest.approx(25 / 9, abs=1e-9)
        mat = from_stokes(plan.vectors[0])
        assert np.trace(mat).real == pytest.approx(1.0, abs=1e-12)
        recon = mat * plan.time_weights[0]
        assert np.max(np.abs(recon - from_stokes(out))) <= 1e-12

    def test_untransformed_mub_weight_one(self):
        plan = normalize_with_time(MUB_VECS[:1], ((0,),))
        assert plan.time_weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_vanishing_trace_rejected(self):
        with pytest.raises(ValueError, match="vanishing"):
            normalize_with_time(np.zeros((1, 4)), ((0,),))


class TestComplementToBasis:
    def test_h_completes_to_v(self):
        vecs = 2.5 * to_stokes(projector(quantum.KET_H))[None]
        plan = normalize_with_time(complement_to_basis(vecs), ((0, 1),))
        assert len(plan.time_weights) == 2
        assert plan.groups == ((0, 1),)
        mats = from_stokes(plan.vectors)
        assert np.max(np.abs(mats[0] + mats[1] - np.eye(2))) <= 1e-9
        assert np.max(np.abs(mats[1] - projector(quantum.KET_V))) <= 1e-9
        assert all(t == pytest.approx(2.5) for t in plan.time_weights)

    def test_orthonormal_completion_sweep(self, rng):
        for _ in range(100):
            v = haar_unitary(rng)[:, 0]
            vecs = to_stokes(projector(v))[None]
            plan = normalize_with_time(complement_to_basis(vecs), ((0, 1),))
            a, b = from_stokes(plan.vectors)
            assert np.max(np.abs(a + b - np.eye(2))) <= 1e-9
            assert abs(np.trace(a @ b)) <= 1e-9


class TestComplementMinimal:
    def test_untransformed_mub_needs_nothing(self):
        out = complement_minimal(MUB_VECS)
        scaled, extra = out[:-1], out[-1:]
        total = from_stokes(scaled).sum(axis=0)
        assert np.max(np.abs(total - np.eye(2))) <= 1e-12
        assert all(w == pytest.approx(1 / 3, abs=1e-12) for w in scaled[:, 0])
        assert len(extra) == 1 and extra[0, 0] <= quantum.INERT_WEIGHT

    def test_synthetic_diagonal_sum(self):
        # elements summing to diag(2, 1): mu_max = 2, residual diag(0, 0.5)
        elements = to_stokes(np.array([np.diag([1.0, 0.0]), np.diag([1.0, 0.0]),
                                       np.diag([0.0, 1.0])]))
        out = complement_minimal(elements)
        scaled, extra = out[:-1], out[-1:]
        assert all(w == pytest.approx(0.5) for w in scaled[:, 0])
        assert extra[:, 0] == pytest.approx([0.5], abs=1e-12)
        assert np.max(np.abs(from_stokes(extra[0]) - np.diag([0.0, 0.5]))) <= 1e-12
        total = from_stokes(out).sum(axis=0)
        assert np.max(np.abs(total - np.eye(2))) <= 1e-9

    def test_transformed_set_completeness_sweep(self, rng):
        for _ in range(100):
            rho = regularize_full_rank(random_pure_haar(rng), 1e-3)
            transformed = MUB_VECS @ rank_preserving_map(rho, 1e-3).T
            out = complement_minimal(transformed)
            assert len(out) == len(transformed) + 1
            total = from_stokes(out).sum(axis=0)
            assert np.max(np.abs(total - np.eye(2))) <= 1e-9


class TestNextPlan:
    def test_eigen_diagonal_estimator_contains_computational_basis(self):
        plan = next_plan("eigen", DensityMatrix(np.diag([0.9, 0.1])),
                         np.random.default_rng(0))
        first = [from_stokes(plan.vectors[i]) for i in plan.groups[0]]
        assert np.max(np.abs(sorted_diag(first) - np.eye(2))) <= 1e-12

    def test_eigen_frame_is_estimator_aligned_mub(self, rng):
        rho = regularize_full_rank(random_pure_haar(rng), 1e-2)
        plan = next_plan("eigen", rho, rng)
        assert len(plan.groups) == 3
        mats = from_stokes(plan.vectors)
        for g in plan.groups:
            total = sum(mats[i] for i in g)
            assert np.max(np.abs(total - np.eye(2))) <= 1e-9
        # eigenbasis group diagonalizes the estimator
        probs = sorted(np.trace(mats[i] @ rho.matrix).real for i in plan.groups[0])
        assert np.allclose(probs, np.linalg.eigvalsh(rho.matrix), atol=1e-9)

    def test_eigen_frame_moves_continuously_with_the_estimate(self, rng):
        # The frame is a function of the Bloch direction alone, smooth away
        # from -z: a 1e-15 move of r moves every four-vector by O(1e-15),
        # also across r_z = 0, where the first estimate lands whenever the
        # H and V counts tie.
        for k in range(400):
            r = rng.standard_normal(3)
            if k % 2:
                r[2] = 0.0
            r *= rng.uniform(0.1, 0.99) / np.linalg.norm(r)
            move = rng.standard_normal(3)
            move *= 1e-15 / np.linalg.norm(move)
            plans = [next_plan("eigen", DensityMatrix(quantum.from_stokes(np.r_[1.0, x])),
                               rng).vectors for x in (r, r + move)]
            assert np.max(np.abs(plans[1] - plans[0])) <= 1e-13

    def test_eigen_frame_at_minus_z_is_the_half_turn_about_x(self):
        plan = next_plan("eigen", DensityMatrix(np.diag([0.1, 0.9])),
                         np.random.default_rng(0))
        axes = [[0, 0, -1], [0, 0, 1], [1, 0, 0], [-1, 0, 0], [0, -1, 0], [0, 1, 0]]
        assert np.array_equal(plan.vectors, np.column_stack([np.ones(6), axes]))

    def test_random_plan_is_fresh_basis(self, rng):
        p1 = next_plan("random", maximally_mixed(), rng)
        p2 = next_plan("random", maximally_mixed(), rng)
        assert len(p1.groups) == 1
        total = from_stokes(p1.vectors).sum(axis=0)
        assert np.max(np.abs(total - np.eye(2))) <= 1e-9
        assert np.max(np.abs(from_stokes(p1.vectors[0] - p2.vectors[0]))) > 1e-3

    def test_rankp_nc_mixed_estimator_recovers_mub(self, rng):
        plan = next_plan("rankp-nc", maximally_mixed(), rng, delta=1e-4)
        assert len(plan.time_weights) == 6
        assert plan.groups == tuple((i,) for i in range(6))
        for time, mat, base in zip(plan.time_weights, from_stokes(plan.vectors), MUB):
            assert time == pytest.approx(1.0, abs=1e-6)
            assert np.max(np.abs(mat - base.matrix)) <= 1e-6

    def test_rankp_time_weight_probability_rule(self, rng):
        # Tr(projector rho_reg) * time_weight = 1/D for every transformed
        # element; in a rankp-b plan that is the first member of each group
        rho = regularize_full_rank(random_pure_haar(rng), 1e-4)
        reg = regularize_full_rank(rho, 1e-4)

        plan_nc = next_plan("rankp-nc", rho, rng, delta=1e-4)
        assert len(plan_nc.time_weights) == 6
        for time, mat in zip(plan_nc.time_weights, from_stokes(plan_nc.vectors)):
            p = np.trace(mat @ reg.matrix).real
            assert p * time == pytest.approx(0.5, abs=1e-9)

        plan_b = next_plan("rankp-b", rho, rng, delta=1e-4)
        assert len(plan_b.groups) == 6
        for g in plan_b.groups:
            p = np.trace(from_stokes(plan_b.vectors[g[0]]) @ reg.matrix).real
            assert p * plan_b.time_weights[g[0]] == pytest.approx(0.5, abs=1e-9)

    def test_rankp_b_groups_sum_to_identity(self, rng):
        rho = regularize_full_rank(random_pure_haar(rng), 1e-4)
        plan = next_plan("rankp-b", rho, rng)
        assert len(plan.groups) == 6
        mats = from_stokes(plan.vectors)
        for g in plan.groups:
            assert len(g) == 2
            total = sum(mats[i] for i in g)
            assert np.max(np.abs(total - np.eye(2))) <= 1e-9
            tws = [plan.time_weights[i] for i in g]
            assert tws[0] == pytest.approx(tws[1], rel=1e-12)

    def test_rankp_m_global_decomposition(self, rng):
        for _ in range(50):
            rho = regularize_full_rank(random_pure_haar(rng), 1e-3)
            plan = next_plan("rankp-m", rho, rng)
            total = np.einsum("k,kij->ij", plan.time_weights, from_stokes(plan.vectors))
            assert np.max(np.abs(total - np.eye(2))) <= 1e-9

    def test_transformed_projectors_rank_one(self, rng):
        rho = regularize_full_rank(random_pure_haar(rng), 1e-4)
        for proto in ("rankp-nc", "rankp-b", "rankp-m"):
            plan = next_plan(proto, rho, rng)
            for mat in from_stokes(plan.vectors):
                assert numeric_rank(mat, 1e-8) == 1

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            next_plan("bogus", maximally_mixed(), np.random.default_rng(0))

    def test_rankp_nc_localization_on_purifying_trace(self, rng):
        # as the estimator purity grows toward a fixed pure state, the total
        # exposition time grows beyond 6 and every measurement direction
        # drifts toward the state orthogonal to the estimator (overlap
        # Tr(M rho_hat) -> 0; in Bloch terms the signed projection onto the
        # estimator axis sinks toward -1)
        psi = random_pure_haar(rng)
        max_overlaps = []
        totals = []
        for mix in (0.5, 0.2, 0.05, 0.01, 1e-3):
            rho_hat = DensityMatrix(
                (1 - mix) * psi.matrix + mix * np.eye(2) / 2)
            plan = next_plan("rankp-nc", rho_hat, rng, delta=1e-4)
            b_hat = bloch(rho_hat.matrix)  # unnormalized: length = Bloch radius
            mats = from_stokes(plan.vectors)
            overlaps = [np.trace(mat @ rho_hat.matrix).real for mat in mats]
            projections = [np.dot(bloch(mat), b_hat) for mat in mats]
            assert np.allclose(overlaps, (1 + np.array(projections)) / 2, atol=1e-9)
            max_overlaps.append(max(overlaps))
            totals.append(plan.time_weights.sum())
        assert totals[-1] > 6.0
        assert all(np.diff(totals) > 0)
        assert all(np.diff(max_overlaps) < 0)
        assert max_overlaps[-1] < 0.01


def definition_plan(protocol, rho, v, delta):
    """(timed elements t M, groups) of a RankP plan, built from the matrix
    definitions: rho_reg = (1 - delta) rho + delta eye/2, the map
    lmap = V rho_reg^-1/2 / sqrt(2) by eigh, each element conjugated as
    L M L^dag with L = lmap^dag, inert elements dropped after the minimal
    completion (from eigh of the sum) or before each element's completion
    to an orthonormal basis."""
    w, u = np.linalg.eigh((1.0 - delta) * rho.matrix + delta * np.eye(2) / 2)
    lop = (v @ (u * w ** -0.5) @ u.conj().T / np.sqrt(2)).conj().T
    elements = [lop @ e.matrix @ lop.conj().T for e in MUB]
    if protocol == "rankp-m":
        lam, vecs = np.linalg.eigh(sum(elements))
        elements = [e / lam[-1] for e in elements] + [
            (1.0 - x / lam[-1]) * projector(col) for x, col in zip(lam, vecs.T)]
    elements = [e for e in elements if np.trace(e).real > quantum.INERT_WEIGHT]
    if protocol == "rankp-b":
        pairs = [(e, np.trace(e).real * np.eye(2) - e) for e in elements]
        return (np.array([m for pair in pairs for m in pair]),
                tuple((2 * i, 2 * i + 1) for i in range(len(pairs))))
    return np.array(elements), tuple((i,) for i in range(len(elements)))


@pytest.mark.parametrize("random_v", [False, True], ids=["identity-v", "seeded-v"])
@pytest.mark.parametrize("protocol", ["rankp-nc", "rankp-b", "rankp-m"])
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 7999), pure=st.booleans())
def test_rankp_plans_match_matrix_definition(protocol, random_v, seed, pure):
    # Haar-pure and Bures estimators at delta = 1e-4: every plan holds the
    # matrix construction's elements, in the same order and the same groups,
    # each as its trace (the time) times a unit-trace projector. The error
    # is the eigh oracle's round-off: at most 7.5e-12 of the largest time
    # over all 48000 plans of seeds 0-7999.
    rho = (random_pure_haar if pure else quantum.random_bures_mixed)(np.random.default_rng(seed))
    v = haar_unitary(np.random.default_rng(seed)) if random_v else np.eye(2)
    plan = next_plan(protocol, rho, np.random.default_rng(seed), delta=1e-4, random_v=random_v)
    want, groups = definition_plan(protocol, rho, v, 1e-4)
    assert plan.groups == groups
    assert plan.time_weights.shape == (len(want),)
    tol = 1e-11 * plan.time_weights.max()
    np.testing.assert_allclose(plan.time_weights, np.trace(want, axis1=1, axis2=2).real,
                               rtol=0, atol=tol)
    np.testing.assert_allclose(plan.time_weights[:, None, None] * from_stokes(plan.vectors),
                               want, rtol=0, atol=tol)


def sorted_diag(mats):
    """Stack of diagonal parts sorted by first entry, as a matrix."""
    order = np.argsort([m[0, 0].real for m in mats])[::-1]
    return np.array([np.diag(mats[i]).real for i in order])


class TestInitialPlan:
    def test_rankp_initial_is_pair_grouped_mub(self, rng):
        for proto in ("rankp-nc", "rankp-b", "rankp-m"):
            plan = initial_plan(proto, rng)
            assert len(plan.time_weights) == 6
            assert plan.groups == ((0, 1), (2, 3), (4, 5))
            assert all(t == pytest.approx(1.0) for t in plan.time_weights)

    def test_eigen_initial_is_computational_frame(self, rng):
        plan = initial_plan("eigen", rng)
        first = from_stokes(plan.vectors[plan.groups[0][0]])
        assert np.max(np.abs(first - np.diag([1.0, 0.0]))) <= 1e-12

    def test_rankp_plans_transform_the_mub_four_vectors(self, rng):
        # The MUB set RankP reads is to_stokes of mub_qubit()'s matrices,
        # bit for bit: their traces are 1 only to within an ulp.
        plan = initial_plan("rankp-nc", rng)
        assert np.array_equal(plan.vectors, MUB_VECS / MUB_VECS[:, :1])
        assert np.array_equal(plan.time_weights, MUB_VECS[:, 0])
        rho = quantum.random_bures_mixed(rng)
        expected = MUB_VECS @ rank_preserving_map(rho).T
        plan = next_plan("rankp-nc", rho, rng)
        assert np.array_equal(plan.vectors, expected / expected[:, :1])
        assert np.array_equal(plan.time_weights, expected[:, 0])

    def test_plan_exposure_weight(self, rng):
        plan = initial_plan("rankp-nc", rng)
        assert plan.exposure_weight() == pytest.approx(3.0)
        plan_nc = next_plan("rankp-nc", maximally_mixed(), rng)
        assert plan_nc.exposure_weight() == pytest.approx(6.0, abs=1e-4)


class TestPlanValidation:
    @pytest.mark.parametrize("matrix, time, message", [
        (projector(quantum.KET_H), np.nan, "time_weight must be positive"),
        (projector(quantum.KET_H), 0.0, "time_weight must be positive"),
        (np.diag([0.5, 0.0]), -1.0, "time_weight must be positive"),
        (np.diag([0.5, 0.0]), 1.0, "projector must have unit trace"),
        (np.diag([0.5, 0.5]), 1.0, "projector must be rank 1")],
        ids=["nan-time", "zero-time", "negative-time-first", "half-trace", "rank-2"])
    def test_one_measurement_checks_in_order(self, matrix, time, message):
        # The checks of a one-measurement plan, first failure first.
        with pytest.raises(ValueError, match=message):
            MeasurementPlan([to_stokes(matrix)], [time], ((0,),))

    def test_groups_must_partition(self):
        with pytest.raises(ValueError, match="partition"):
            MeasurementPlan([to_stokes(projector(quantum.KET_H))], [1.0], ((0, 0),))

    @pytest.mark.parametrize("groups", [((1, 0),), ((2, 3), (0, 1))],
                             ids=["reversed-pair", "later-group-first"])
    def test_groups_must_list_indices_in_order(self, groups):
        # Every plan lists each group's members next to each other, in
        # index order; the same measurements in that order are accepted.
        k = sum(map(len, groups))
        vecs = to_stokes(np.array([projector(quantum.KET_H), projector(quantum.KET_V)] * 2))[:k]
        with pytest.raises(ValueError, match=r"^groups must partition the measurement "
                                             r"indices in index order$"):
            MeasurementPlan(vecs, np.ones(k), groups)
        in_order = tuple(sorted(tuple(sorted(g)) for g in groups))
        assert MeasurementPlan(vecs, np.ones(k), in_order).groups == in_order

    def test_grouped_projectors_must_be_orthogonal(self):
        vecs = to_stokes(np.array([projector(quantum.KET_H), projector(quantum.KET_D)]))
        with pytest.raises(ValueError, match="not orthogonal"):
            MeasurementPlan(vecs, [1.0, 1.0], ((0, 1),))

    @pytest.mark.parametrize("vectors", [
        np.eye(2)[None], projector(quantum.KET_H)[None], [1.0, 0.0, 0.0, 1.0],
        [[1.0, 0.0], [0.0, 1.0]]], ids=["identity-stack", "projector-stack", "flat", "two-columns"])
    def test_only_four_vectors_taken(self, vectors):
        # A (K, 2, 2) matrix stack holds 4K numbers too; it is rejected, not
        # read as four-vectors (eye(2) would read as |0><0|).
        with pytest.raises(ValueError, match=r"^expected \(K, 4\) four-vectors, got shape"):
            MeasurementPlan(vectors, [1.0], ((0,),))

    def test_non_finite_projector_rejected(self):
        with pytest.raises(ValueError, match="rank 1"):
            MeasurementPlan([[1.0, np.nan, 0.0, 0.0]], [1.0], ((0,),))


def matrix_failure(vecs, groups):
    """What the matrix definitions find wrong with four-vectors of
    unit-trace projectors held in groups: "rank 1" for the first matrix
    from_stokes builds that is not rank 1 by eigvalsh (|lowest| above 1e-8
    of the highest eigenvalue), else (a, b) for the first pair sharing a
    group with |Tr Ma Mb| > 1e-8, else None. Every matrix must first build
    a PovmElement (Hermitian, PSD) of unit trace."""
    mats = from_stokes(vecs)
    for mat in mats:
        assert PovmElement(mat).weight == pytest.approx(1.0, abs=1e-9)
        low, high = np.linalg.eigvalsh(mat)
        if abs(low) > 1e-8 * high:
            return "rank 1"
    for g in groups:
        for a, b in combinations(g, 2):
            if abs(np.trace(mats[a] @ mats[b])) > 1e-8:
                return a, b
    return None


def _random_plan(seed, protocol, random_v):
    rng = np.random.default_rng(seed)
    rho = (random_pure_haar if seed % 2 else quantum.random_bures_mixed)(rng)
    return next_plan(protocol, rho, rng, random_v=random_v)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), protocol=st.sampled_from(PROTOCOLS),
       random_v=st.booleans())
def test_every_plan_passes_the_matrix_checks(seed, protocol, random_v):
    # Every plan's projectors, as matrices, are Hermitian, PSD, of unit
    # trace and rank 1, and orthogonal within their groups.
    plan = _random_plan(seed, protocol, random_v)
    assert matrix_failure(plan.vectors, plan.groups) is None


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), protocol=st.sampled_from(PROTOCOLS),
       pick=st.integers(0, 11), defect=st.sampled_from(["rank", "orthogonality"]),
       size=st.floats(1e-3, 0.5))
def test_four_vector_checks_fail_as_the_matrix_checks(seed, protocol, pick, defect, size):
    # A four-vector perturbed off rank 1 (shortened Bloch vector, still PSD)
    # or off orthogonality within its group (Bloch vector turned by an
    # angle) fails the plan's checks where the matrix definitions fail.
    plan = _random_plan(seed, protocol, False)
    vecs = plan.vectors.copy()
    if defect == "rank":
        vecs[pick % len(vecs), 1:] *= 1.0 - size
    else:
        pairs = [g for g in plan.groups if len(g) > 1]
        if not pairs:
            return
        a, b = pairs[pick % len(pairs)]
        m = vecs[b, 1:]
        axis = np.cross(m, [1.0, 0.0, 0.0] if abs(m[0]) < 0.9 else [0.0, 1.0, 0.0])
        axis /= np.linalg.norm(axis)
        vecs[b, 1:] = m * np.cos(size) + np.cross(axis, m) * np.sin(size)
    with pytest.raises(ValueError) as failed:
        MeasurementPlan(vecs, plan.time_weights, plan.groups)
    want = matrix_failure(vecs, plan.groups)
    if defect == "rank":
        assert want == "rank 1" and str(failed.value) == "projector must be rank 1"
    else:
        assert want == (a, b)
        assert str(failed.value).startswith(f"grouped projectors {a},{b} not orthogonal")
