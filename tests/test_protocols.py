import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomosim import protocols, quantum
from tomosim.estimation import regularize_full_rank
from tomosim.protocols import (
    PROTOCOLS,
    MeasurementPlan,
    TimedMeasurement,
    TransformOperator,
    apply_unitary_freedom,
    complement_minimal,
    complement_to_basis,
    initial_plan,
    next_plan,
    normalize_with_time,
    rank_preserving_map,
    transform_measurement,
)
from tomosim.quantum import (
    DensityMatrix,
    PovmElement,
    haar_unitary,
    maximally_mixed,
    mub_qubit,
    projector,
    random_pure_haar,
)
from conftest import numeric_rank

MUB = mub_qubit()


def bloch(mat):
    """Bloch vector of a 2x2 Hermitian matrix (unnormalized operator ok)."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return np.array([np.trace(mat @ s).real for s in (sx, sy, sz)])


class TestRankPreservingMap:
    def test_mixed_estimator_gives_identity(self):
        op = rank_preserving_map(maximally_mixed(), 1e-4)
        assert np.max(np.abs(op.lmap - np.eye(2))) <= 1e-9

    def test_diagonal_estimator(self):
        # oracle: the map sends the estimator to eye/2; for a diagonal
        # estimator the map is diag(1/sqrt(1.8), 1/sqrt(0.2)) exactly
        rho = DensityMatrix(np.diag([0.9, 0.1]))
        op = rank_preserving_map(rho, 1e-12)
        mapped = op.lmap @ op.source_estimator.matrix @ op.lmap.conj().T
        assert np.max(np.abs(mapped - np.eye(2) / 2)) <= 1e-9
        expected = np.diag([0.7453559924999299, 2.23606797749979])
        assert np.max(np.abs(op.lmap - expected)) <= 1e-5

    def test_rotated_estimator(self, rng):
        w = haar_unitary(rng)
        rho = DensityMatrix(w @ np.diag([0.7, 0.3]) @ w.conj().T)
        op = rank_preserving_map(rho, 1e-12)
        mapped = op.lmap @ op.source_estimator.matrix @ op.lmap.conj().T
        assert np.max(np.abs(mapped - np.eye(2) / 2)) <= 1e-12

    def test_invariant_sweep(self, rng):
        for _ in range(200):
            rho = regularize_full_rank(random_pure_haar(rng), 1e-4)
            op = rank_preserving_map(rho, 1e-4)
            mapped = op.lmap @ op.source_estimator.matrix @ op.lmap.conj().T
            assert np.max(np.abs(mapped - np.eye(2) / 2)) <= 1e-9
            assert numeric_rank(op.lmap, 1e-8) == 2


class TestTransformMeasurement:
    def test_identity_op_keeps_element(self):
        op = rank_preserving_map(maximally_mixed(), 1e-4)
        m = MUB.elements[2]
        out = transform_measurement(op, m)
        assert np.max(np.abs(out.matrix - m.matrix)) <= 1e-8

    def test_diagonal_estimator_d_projector(self):
        # frozen arithmetic: L M L^dag = (1/4)[[10/9, 10/3], [10/3, 10]]
        rho = DensityMatrix(np.diag([0.9, 0.1]))
        op = rank_preserving_map(rho, 1e-12)
        out = transform_measurement(op, PovmElement(projector(quantum.KET_D)))
        expected = 0.25 * np.array([[10 / 9, 10 / 3], [10 / 3, 10.0]])
        assert np.max(np.abs(out.matrix - expected)) <= 1e-9
        assert out.weight == pytest.approx(25 / 9, abs=1e-9)
        # oracle from the defining property: Tr(M_new rho_reg) = Tr(M)/D
        got = np.trace(out.matrix @ op.source_estimator.matrix).real
        assert got == pytest.approx(0.5, abs=1e-9)

    def test_trace_rule_and_rank_sweep(self, rng):
        for _ in range(100):
            rho = regularize_full_rank(random_pure_haar(rng), 1e-4)
            op = rank_preserving_map(rho, 1e-4)
            m = PovmElement(projector(haar_unitary(rng)[:, 0]))
            out = transform_measurement(op, m)
            got = np.trace(out.matrix @ op.source_estimator.matrix).real
            assert got == pytest.approx(m.weight / 2, abs=1e-9)
            assert numeric_rank(out.matrix, 1e-8) == 1


    def test_transfer_is_scaled_lorentz_boost(self, rng):
        # On four-vectors (Tr M, Tr sigma M) the symmetric map acts as
        # gamma Lambda(r): the boost with velocity r of the regularized
        # estimator, scaled by gamma = 1/sqrt(1 - r^2).
        for _ in range(50):
            op = rank_preserving_map(random_pure_haar(rng), 1e-4)
            r = bloch(op.source_estimator.matrix)
            gamma = 1.0 / np.sqrt(1.0 - r @ r)
            boost = np.block([[np.array([[gamma]]), -gamma * r[None, :]],
                              [-gamma * r[:, None],
                               np.eye(3) + gamma ** 2 / (gamma + 1) * np.outer(r, r)]])
            for e in MUB.elements:
                got = quantum.to_stokes(transform_measurement(op, e).matrix)
                want = gamma * boost @ quantum.to_stokes(e.matrix)
                assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


class TestUnitaryFreedom:
    def test_identity_unchanged(self):
        op = rank_preserving_map(DensityMatrix(np.diag([0.8, 0.2])), 1e-6)
        out = apply_unitary_freedom(op, np.eye(2))
        assert np.allclose(out.lmap, op.lmap)

    def test_random_v_keeps_mapping(self, rng):
        rho = DensityMatrix(np.diag([0.8, 0.2]))
        op = rank_preserving_map(rho, 1e-6)
        for _ in range(20):
            out = apply_unitary_freedom(op, haar_unitary(rng))
            mapped = out.lmap @ out.source_estimator.matrix @ out.lmap.conj().T
            assert np.max(np.abs(mapped - np.eye(2) / 2)) <= 1e-9

    def test_probabilities_on_estimator_invariant(self, rng):
        rho = regularize_full_rank(random_pure_haar(rng), 1e-4)
        op = rank_preserving_map(rho, 1e-4)
        for m in MUB.elements:
            base = transform_measurement(op, m)
            rotated = transform_measurement(
                apply_unitary_freedom(op, haar_unitary(rng)), m)
            p0 = np.trace(base.matrix @ op.source_estimator.matrix).real
            p1 = np.trace(rotated.matrix @ op.source_estimator.matrix).real
            assert p1 == pytest.approx(p0, abs=1e-9)
            assert p1 == pytest.approx(m.weight / 2, abs=1e-9)

    def test_rejects_non_unitary(self):
        op = rank_preserving_map(maximally_mixed(), 1e-4)
        with pytest.raises(ValueError, match="unitary"):
            apply_unitary_freedom(op, np.diag([1.0, 2.0]))


class TestNormalizeWithTime:
    def test_transformed_element_splits(self):
        rho = DensityMatrix(np.diag([0.9, 0.1]))
        op = rank_preserving_map(rho, 1e-12)
        out = transform_measurement(op, PovmElement(projector(quantum.KET_D)))
        timed = normalize_with_time(out)
        assert timed.time_weight == pytest.approx(25 / 9, abs=1e-9)
        assert timed.projector.weight == pytest.approx(1.0, abs=1e-12)
        recon = timed.projector.matrix * timed.time_weight
        assert np.max(np.abs(recon - out.matrix)) <= 1e-12

    def test_untransformed_mub_weight_one(self):
        timed = normalize_with_time(MUB.elements[0])
        assert timed.time_weight == pytest.approx(1.0, abs=1e-12)

    def test_vanishing_trace_rejected(self):
        with pytest.raises(ValueError, match="vanishing"):
            normalize_with_time(PovmElement(np.zeros((2, 2))))


class TestTimedMeasurement:
    @pytest.mark.parametrize("matrix, time, message", [
        (projector(quantum.KET_H), np.nan, "time_weight must be positive"),
        (projector(quantum.KET_H), 0.0, "time_weight must be positive"),
        (np.diag([0.5, 0.0]), -1.0, "time_weight must be positive"),
        (np.diag([0.5, 0.0]), 1.0, "projector must have unit trace"),
        (np.diag([0.5, 0.5]), 1.0, "projector must be rank 1")])
    def test_checks_in_order(self, matrix, time, message):
        # The checks of a one-measurement plan, first failure first.
        with pytest.raises(ValueError, match=message):
            TimedMeasurement(PovmElement(matrix), time)


class TestComplementToBasis:
    def test_h_completes_to_v(self):
        m = TimedMeasurement(PovmElement(projector(quantum.KET_H)), 2.5)
        plan = complement_to_basis(m)
        assert len(plan.measurements) == 2
        assert plan.groups == ((0, 1),)
        mats = [t.projector.matrix for t in plan.measurements]
        assert np.max(np.abs(mats[0] + mats[1] - np.eye(2))) <= 1e-9
        assert np.max(np.abs(mats[1] - projector(quantum.KET_V))) <= 1e-9
        assert all(t.time_weight == pytest.approx(2.5) for t in plan.measurements)

    def test_orthonormal_completion_sweep(self, rng):
        for _ in range(100):
            v = haar_unitary(rng)[:, 0]
            m = TimedMeasurement(PovmElement(projector(v)), 1.0)
            plan = complement_to_basis(m)
            total = sum(t.projector.matrix for t in plan.measurements)
            assert np.max(np.abs(total - np.eye(2))) <= 1e-9
            a, b = (t.projector.matrix for t in plan.measurements)
            assert abs(np.trace(a @ b)) <= 1e-9


class TestComplementMinimal:
    def test_untransformed_mub_needs_nothing(self):
        scaled, extra = complement_minimal(MUB.elements)
        total = sum(e.matrix for e in scaled)
        assert np.max(np.abs(total - np.eye(2))) <= 1e-12
        assert all(e.weight == pytest.approx(1 / 3, abs=1e-12) for e in scaled)
        assert len(extra) == 1 and extra[0].inert

    def test_synthetic_diagonal_sum(self):
        # elements summing to diag(2, 1): mu_max = 2, residual diag(0, 0.5)
        elements = [PovmElement(np.diag([1.0, 0.0])),
                    PovmElement(np.diag([1.0, 0.0])),
                    PovmElement(np.diag([0.0, 1.0]))]
        scaled, extra = complement_minimal(elements)
        assert all(e.weight == pytest.approx(0.5) for e in scaled)
        weights = sorted(e.weight for e in extra)
        assert weights == pytest.approx([0.5], abs=1e-12)
        live = [e for e in extra if not e.inert]
        assert np.max(np.abs(live[0].matrix - np.diag([0.0, 0.5]))) <= 1e-12
        total = sum(e.matrix for e in scaled) + sum(e.matrix for e in extra)
        assert np.max(np.abs(total - np.eye(2))) <= 1e-9

    def test_transformed_set_completeness_sweep(self, rng):
        for _ in range(100):
            rho = regularize_full_rank(random_pure_haar(rng), 1e-3)
            op = rank_preserving_map(rho, 1e-3)
            transformed = [transform_measurement(op, e) for e in MUB.elements]
            scaled, extra = complement_minimal(transformed)
            assert len(extra) == 1
            total = sum(e.matrix for e in scaled) + sum(e.matrix for e in extra)
            assert np.max(np.abs(total - np.eye(2))) <= 1e-9


class TestNextPlan:
    def test_eigen_diagonal_estimator_contains_computational_basis(self):
        plan = next_plan("eigen", DensityMatrix(np.diag([0.9, 0.1])),
                         np.random.default_rng(0))
        first = [plan.measurements[i].projector.matrix for i in plan.groups[0]]
        assert np.max(np.abs(sorted_diag(first) - np.eye(2))) <= 1e-12

    def test_eigen_frame_is_estimator_aligned_mub(self, rng):
        rho = regularize_full_rank(random_pure_haar(rng), 1e-2)
        plan = next_plan("eigen", rho, rng)
        assert len(plan.groups) == 3
        for g in plan.groups:
            total = sum(plan.measurements[i].projector.matrix for i in g)
            assert np.max(np.abs(total - np.eye(2))) <= 1e-9
        # eigenbasis group diagonalizes the estimator
        probs = sorted(
            np.trace(plan.measurements[i].projector.matrix @ rho.matrix).real
            for i in plan.groups[0])
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
        total = sum(t.projector.matrix for t in p1.measurements)
        assert np.max(np.abs(total - np.eye(2))) <= 1e-9
        assert np.max(np.abs(p1.measurements[0].projector.matrix
                             - p2.measurements[0].projector.matrix)) > 1e-3

    def test_rankp_nc_mixed_estimator_recovers_mub(self, rng):
        plan = next_plan("rankp-nc", maximally_mixed(), rng, delta=1e-4)
        assert len(plan.measurements) == 6
        assert plan.groups == tuple((i,) for i in range(6))
        for timed, base in zip(plan.measurements, MUB.elements):
            assert timed.time_weight == pytest.approx(1.0, abs=1e-6)
            assert np.max(np.abs(timed.projector.matrix - base.matrix)) <= 1e-6

    def test_rankp_time_weight_probability_rule(self, rng):
        # Tr(projector rho_reg) * time_weight = 1/D for every transformed
        # element; in a rankp-b plan that is the first member of each group
        rho = regularize_full_rank(random_pure_haar(rng), 1e-4)
        reg = regularize_full_rank(rho, 1e-4)

        plan_nc = next_plan("rankp-nc", rho, rng, delta=1e-4)
        assert len(plan_nc.measurements) == 6
        for t in plan_nc.measurements:
            p = np.trace(t.projector.matrix @ reg.matrix).real
            assert p * t.time_weight == pytest.approx(0.5, abs=1e-9)

        plan_b = next_plan("rankp-b", rho, rng, delta=1e-4)
        assert len(plan_b.groups) == 6
        for g in plan_b.groups:
            t = plan_b.measurements[g[0]]
            p = np.trace(t.projector.matrix @ reg.matrix).real
            assert p * t.time_weight == pytest.approx(0.5, abs=1e-9)

    def test_rankp_b_groups_sum_to_identity(self, rng):
        rho = regularize_full_rank(random_pure_haar(rng), 1e-4)
        plan = next_plan("rankp-b", rho, rng)
        assert len(plan.groups) == 6
        for g in plan.groups:
            assert len(g) == 2
            total = sum(plan.measurements[i].projector.matrix for i in g)
            assert np.max(np.abs(total - np.eye(2))) <= 1e-9
            tws = [plan.measurements[i].time_weight for i in g]
            assert tws[0] == pytest.approx(tws[1], rel=1e-12)

    def test_rankp_m_global_decomposition(self, rng):
        for _ in range(50):
            rho = regularize_full_rank(random_pure_haar(rng), 1e-3)
            plan = next_plan("rankp-m", rho, rng)
            total = sum(t.projector.matrix * t.time_weight
                        for t in plan.measurements)
            # rescale by mu_max: reconstruct it from the scaled weights
            op = rank_preserving_map(rho, 1e-3)
            s = sum(transform_measurement(op, e).matrix for e in MUB.elements)
            mu_max = np.linalg.eigvalsh(s)[-1]
            assert np.max(np.abs(total - np.eye(2))) <= 1e-9

    def test_transformed_projectors_rank_one(self, rng):
        rho = regularize_full_rank(random_pure_haar(rng), 1e-4)
        for proto in ("rankp-nc", "rankp-b", "rankp-m"):
            plan = next_plan(proto, rho, rng)
            for t in plan.measurements:
                assert numeric_rank(t.projector.matrix, 1e-8) == 1

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
            overlaps = [
                np.trace(t.projector.matrix @ rho_hat.matrix).real
                for t in plan.measurements
            ]
            projections = [
                np.dot(bloch(t.projector.matrix), b_hat)
                for t in plan.measurements
            ]
            assert np.allclose(overlaps, (1 + np.array(projections)) / 2, atol=1e-9)
            max_overlaps.append(max(overlaps))
            totals.append(sum(t.time_weight for t in plan.measurements))
        assert totals[-1] > 6.0
        assert all(np.diff(totals) > 0)
        assert all(np.diff(max_overlaps) < 0)
        assert max_overlaps[-1] < 0.01


def definition_plan(protocol, rho, v, delta=1e-4):
    """(time_weight * projector list, groups) of a RankP plan, built from
    the matrix definitions: L M L^dag with L = lmap^dag and
    lmap = V rho_reg^-1/2 / sqrt(2) by eigh, each element's completion to
    an orthonormal basis, and the minimal completion from eigh of the sum."""
    w, u = np.linalg.eigh(regularize_full_rank(rho, delta).matrix)
    lop = (v @ (u * w ** -0.5) @ u.conj().T / np.sqrt(2)).conj().T
    elements = [lop @ e.matrix @ lop.conj().T for e in MUB.elements]
    if protocol == "rankp-m":
        lam, vecs = np.linalg.eigh(sum(elements))
        elements = [e / lam[-1] for e in elements] + [
            (1.0 - x / lam[-1]) * projector(col) for x, col in zip(lam, vecs.T)]
    elements = [e for e in elements if np.trace(e).real > quantum.INERT_WEIGHT]
    if protocol == "rankp-b":
        pairs = [(e, np.trace(e).real * np.eye(2) - e) for e in elements]
        return ([m for pair in pairs for m in pair],
                tuple((2 * i, 2 * i + 1) for i in range(len(pairs))))
    return elements, tuple((i,) for i in range(len(elements)))


@pytest.mark.parametrize("random_v", [False, True], ids=["identity-v", "seeded-v"])
@pytest.mark.parametrize("protocol", ["rankp-nc", "rankp-b", "rankp-m"])
def test_rankp_plans_match_matrix_definition(protocol, random_v):
    # Pure and Bures estimators: every timed projector of the plan equals
    # the matrix construction, in the same order and the same groups.
    rng = np.random.default_rng(31)
    for k in range(200):
        rho = (random_pure_haar if k % 2 else quantum.random_bures_mixed)(rng)
        v = haar_unitary(np.random.default_rng(k)) if random_v else np.eye(2)
        plan = next_plan(protocol, rho, np.random.default_rng(k), random_v=random_v)
        want, groups = definition_plan(protocol, rho, v)
        assert plan.groups == groups
        assert len(plan.measurements) == len(want)
        for t, m in zip(plan.measurements, want):
            got = t.time_weight * t.projector.matrix
            assert np.max(np.abs(got - m)) <= 1e-9 * np.max(np.abs(m))


def sorted_diag(mats):
    """Stack of diagonal parts sorted by first entry, as a matrix."""
    order = np.argsort([m[0, 0].real for m in mats])[::-1]
    return np.array([np.diag(mats[i]).real for i in order])


class TestInitialPlan:
    def test_rankp_initial_is_pair_grouped_mub(self, rng):
        for proto in ("rankp-nc", "rankp-b", "rankp-m"):
            plan = initial_plan(proto, rng)
            assert len(plan.measurements) == 6
            assert plan.groups == ((0, 1), (2, 3), (4, 5))
            assert all(t.time_weight == pytest.approx(1.0) for t in plan.measurements)

    def test_eigen_initial_is_computational_frame(self, rng):
        plan = initial_plan("eigen", rng)
        first = plan.measurements[plan.groups[0][0]].projector.matrix
        assert np.max(np.abs(first - np.diag([1.0, 0.0]))) <= 1e-12

    def test_rankp_plans_transform_the_mub_four_vectors(self, rng):
        # The MUB set RankP reads is to_stokes of mub_qubit()'s matrices,
        # bit for bit: their traces are 1 only to within an ulp.
        mub = quantum.to_stokes(np.array([e.matrix for e in MUB.elements]))
        plan = initial_plan("rankp-nc", rng)
        assert np.array_equal(plan.vectors, mub / mub[:, :1])
        assert np.array_equal(plan.time_weights, mub[:, 0])
        rho = quantum.random_bures_mixed(rng)
        expected = mub @ protocols._boost(rho, protocols.DEFAULT_DELTA).T
        plan = next_plan("rankp-nc", rho, rng)
        assert np.array_equal(plan.vectors, expected / expected[:, :1])
        assert np.array_equal(plan.time_weights, expected[:, 0])

    def test_plan_exposure_weight(self, rng):
        plan = initial_plan("rankp-nc", rng)
        assert plan.exposure_weight() == pytest.approx(3.0)
        plan_nc = next_plan("rankp-nc", maximally_mixed(), rng)
        assert plan_nc.exposure_weight() == pytest.approx(6.0, abs=1e-4)


class TestPlanValidation:
    def test_groups_must_partition(self):
        with pytest.raises(ValueError, match="partition"):
            MeasurementPlan([projector(quantum.KET_H)], [1.0], ((0, 0),))

    def test_grouped_projectors_must_be_orthogonal(self):
        with pytest.raises(ValueError, match="not orthogonal"):
            MeasurementPlan([projector(quantum.KET_H), projector(quantum.KET_D)], [1.0, 1.0],
                            ((0, 1),))

    def test_non_finite_projector_rejected(self):
        for bad in (np.nan, np.inf):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="POVM element has a non-finite entry"):
                    MeasurementPlan([[[bad, 0.0], [0.0, 0.0]]], [1.0], ((0,),))
        with pytest.raises(ValueError, match="rank 1"):
            MeasurementPlan.of_vectors([[1.0, np.nan, 0.0, 0.0]], [1.0], ((0,),))

    def test_transform_operator_validates_mapping(self):
        with pytest.raises(ValueError, match="eye/D"):
            TransformOperator(np.eye(2), DensityMatrix(np.diag([0.9, 0.1])))

    def test_pickle_rebuilds_frozen_transform(self):
        op = rank_preserving_map(DensityMatrix(np.diag([0.8, 0.2])), 1e-4)
        back = pickle.loads(pickle.dumps(op))
        assert np.array_equal(back.lmap, op.lmap)
        assert not back.lmap.flags.writeable
        assert not back.source_estimator.matrix.flags.writeable


def _random_plan(seed, protocol, random_v):
    rng = np.random.default_rng(seed)
    rho = (random_pure_haar if seed % 2 else quantum.random_bures_mixed)(rng)
    return next_plan(protocol, rho, rng, random_v=random_v)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), protocol=st.sampled_from(PROTOCOLS),
       random_v=st.booleans())
def test_matrix_constructor_rebuilds_every_plan(seed, protocol, random_v):
    # The matrix checks (Hermitian, PSD) and the four-vector checks pass
    # the same plans: a plan's matrix view rebuilds it.
    plan = _random_plan(seed, protocol, random_v)
    again = MeasurementPlan(plan.matrices, plan.time_weights, plan.groups)
    np.testing.assert_allclose(again.vectors, plan.vectors, rtol=0, atol=1e-15)
    assert np.array_equal(again.time_weights, plan.time_weights)
    assert again.groups == plan.groups
    assert np.array_equal(again.order, plan.order)
    assert np.array_equal(again.group_of, plan.group_of)
    assert again.exposure_weight() == plan.exposure_weight()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), protocol=st.sampled_from(PROTOCOLS),
       pick=st.integers(0, 11), defect=st.sampled_from(["rank", "orthogonality"]),
       size=st.floats(1e-3, 0.5))
def test_four_vector_checks_fail_as_the_matrix_checks(seed, protocol, pick, defect, size):
    # A four-vector perturbed off rank 1 (shortened Bloch vector, still PSD)
    # or off orthogonality within its group (Bloch vector turned by an
    # angle) raises what its matrix raises.
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
    with pytest.raises(ValueError) as from_vectors:
        MeasurementPlan.of_vectors(vecs, plan.time_weights, plan.groups)
    with pytest.raises(ValueError) as from_matrices:
        MeasurementPlan(quantum.from_stokes(vecs), plan.time_weights, plan.groups)
    assert str(from_vectors.value) == str(from_matrices.value)
    assert ("rank 1" if defect == "rank" else "not orthogonal") in str(from_vectors.value)
