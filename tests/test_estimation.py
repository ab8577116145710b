import numpy as np
import pytest

from tomosim import quantum
from tomosim.estimation import (
    LikelihoodData,
    MeasurementRecord,
    MleOptions,
    NonIdentifiableDataError,
    log_likelihood,
    mle_estimate,
    regularize_full_rank,
)
from tomosim.quantum import (
    DensityMatrix,
    PovmElement,
    born_probability,
    fidelity,
    maximally_mixed,
    mub_qubit,
    projector,
    pure_state,
    random_bures_mixed,
)

H_PROJ = PovmElement(projector(quantum.KET_H))
V_PROJ = PovmElement(projector(quantum.KET_V))


def mub_records(rho_true, intensity, time=1.0):
    """Noiseless expected counts (rounded) for the full MUB set."""
    recs = []
    for e in mub_qubit().elements:
        p = born_probability(e, rho_true)
        recs.append(MeasurementRecord(e, time, int(round(intensity * p * time))))
    return LikelihoodData(tuple(recs), intensity)


class TestRecordTypes:
    def test_requires_unit_trace_element(self):
        with pytest.raises(ValueError, match="unit trace"):
            MeasurementRecord(PovmElement(2.0 * projector(quantum.KET_H)), 1.0, 3)

    def test_zero_time_forces_zero_counts(self):
        MeasurementRecord(H_PROJ, 0.0, 0)
        with pytest.raises(ValueError, match="zero exposition"):
            MeasurementRecord(H_PROJ, 0.0, 1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            MeasurementRecord(H_PROJ, 1.0, -1)

    def test_intensity_positive(self):
        with pytest.raises(ValueError):
            LikelihoodData((MeasurementRecord(H_PROJ, 1.0, 1),), 0.0)


class TestLogLikelihood:
    def test_zero_probability_zero_counts(self):
        data = LikelihoodData((MeasurementRecord(H_PROJ, 1.0, 0),), 10.0)
        assert log_likelihood(data, pure_state(quantum.KET_V)) == pytest.approx(0.0, abs=1e-15)

    def test_single_record_value(self):
        # 5*ln(10 * 0.5 * 1) - 10*0.5*1 = 5 ln 5 - 5, frozen by direct arithmetic
        data = LikelihoodData((MeasurementRecord(H_PROJ, 1.0, 5),), 10.0)
        assert log_likelihood(data, maximally_mixed(2)) == pytest.approx(
            3.0471895621705016, abs=1e-12)

    def test_duplicate_records_double_the_sum(self, rng):
        rho = random_bures_mixed(2, rng)
        recs = []
        for i, e in enumerate(mub_qubit().elements):
            recs.append(MeasurementRecord(e, 0.5 + 0.25 * i, 3 + 2 * i))
        single = LikelihoodData(tuple(recs), 25.0)
        double = LikelihoodData(tuple(recs + recs), 25.0)

        # oracle: term-by-term summation in arbitrary order
        def oracle(data):
            total = 0.0
            for r in data.records:
                if r.time == 0:
                    continue
                p = born_probability(r.element, rho)
                if r.counts > 0:
                    p = max(p, 1e-12)
                    total += r.counts * np.log(data.intensity * p * r.time) \
                        - data.intensity * p * r.time
                else:
                    total += -data.intensity * p * r.time
            return total

        assert log_likelihood(single, rho) == pytest.approx(oracle(single), abs=1e-12)
        assert log_likelihood(double, rho) == pytest.approx(2 * oracle(single), abs=1e-12)

    def test_zero_time_records_contribute_nothing(self):
        base = LikelihoodData((MeasurementRecord(H_PROJ, 1.0, 5),), 10.0)
        padded = LikelihoodData(
            (MeasurementRecord(H_PROJ, 1.0, 5), MeasurementRecord(V_PROJ, 0.0, 0)),
            10.0)
        rho = maximally_mixed(2)
        assert log_likelihood(padded, rho) == log_likelihood(base, rho)


class TestMleEstimate:
    def test_diagonal_counts_recover_diagonal_state(self):
        # stationarity of the Poisson likelihood for 700/300 counts is
        # p_H = 0.7 exactly (d/dp [700 ln p - 300 ln(1-p)] = 0)
        data = LikelihoodData(
            (MeasurementRecord(H_PROJ, 1.0, 700), MeasurementRecord(V_PROJ, 1.0, 300)),
            1000.0)
        est = mle_estimate(data)
        assert abs(est.matrix[0, 0].real - 0.7) <= 1e-6
        assert abs(est.matrix[1, 1].real - 0.3) <= 1e-6
        assert abs(est.matrix[0, 1]) <= 1e-6

    def test_noiseless_mixed_state_is_fixed_point(self):
        est = mle_estimate(mub_records(maximally_mixed(2), 1000.0))
        assert np.max(np.abs(est.matrix - np.eye(2) / 2)) <= 1e-4

    def test_noiseless_pure_state_consistency(self):
        rho = pure_state(quantum.KET_D)
        est = mle_estimate(mub_records(rho, 10 ** 6))
        assert fidelity(est, rho) >= 0.9999

    def test_zero_counts_returns_mixed_start(self):
        data = LikelihoodData(
            (MeasurementRecord(H_PROJ, 1.0, 0), MeasurementRecord(V_PROJ, 1.0, 0)),
            10.0)
        assert np.allclose(mle_estimate(data).matrix, np.eye(2) / 2)

    def test_monotone_ascent(self, rng):
        for _ in range(100):
            rho = random_bures_mixed(2, rng)
            recs = []
            for e in mub_qubit().elements:
                mean = 2000.0 * born_probability(e, rho)
                recs.append(MeasurementRecord(e, 1.0, int(rng.poisson(mean))))
            data = LikelihoodData(tuple(recs), 2000.0)
            lls = []
            mle_estimate(data, logliks=lls)
            diffs = np.diff(np.array(lls))
            assert np.all(diffs >= -1e-9)

    def test_estimate_validity(self, rng):
        rho = random_bures_mixed(2, rng)
        recs = []
        for e in mub_qubit().elements:
            recs.append(MeasurementRecord(
                e, 1.0, int(rng.poisson(500.0 * born_probability(e, rho)))))
        est = mle_estimate(LikelihoodData(tuple(recs), 500.0))
        assert abs(est.matrix.trace().real - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(est.matrix)[0] >= -1e-10

    def test_noiseless_consistency_sweep(self, rng):
        # full-rank true states, exact expected counts, large sample
        for _ in range(100):
            rho = regularize_full_rank(random_bures_mixed(2, rng), 0.05)
            est = mle_estimate(mub_records(rho, 10 ** 7))
            assert fidelity(est, rho) >= 1 - 1e-6

    def test_beats_truth_on_sampled_data(self, rng):
        for _ in range(100):
            rho = random_bures_mixed(2, rng)
            recs = []
            for e in mub_qubit().elements:
                mean = 300.0 * born_probability(e, rho)
                recs.append(MeasurementRecord(e, 1.0, int(rng.poisson(mean))))
            data = LikelihoodData(tuple(recs), 300.0)
            est = mle_estimate(data)
            assert log_likelihood(data, est) >= log_likelihood(data, rho) - 1e-9

    def test_non_identifiable_data_rejected(self):
        # counts on a direction whose operator has essentially no weight in G
        data = LikelihoodData(
            (MeasurementRecord(H_PROJ, 1.0, 5),
             MeasurementRecord(V_PROJ, 1e-300, 3)),
            10.0)
        with pytest.raises(NonIdentifiableDataError):
            mle_estimate(data)

    def test_mle_needs_live_records(self):
        data = LikelihoodData((MeasurementRecord(H_PROJ, 0.0, 0),), 10.0)
        with pytest.raises(ValueError, match="positive time"):
            mle_estimate(data)

    def test_mix_floor_applied(self):
        data = LikelihoodData(
            (MeasurementRecord(H_PROJ, 1.0, 1000), MeasurementRecord(V_PROJ, 1.0, 0)),
            1000.0)
        est = mle_estimate(data, MleOptions(mix_floor=0.01))
        assert np.linalg.eigvalsh(est.matrix)[0] >= 0.005 - 1e-12


class TestMleOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            MleOptions(max_iter=0)
        with pytest.raises(ValueError):
            MleOptions(tol=0.0)
        with pytest.raises(ValueError):
            MleOptions(dilution=0.0)
        with pytest.raises(ValueError):
            MleOptions(mix_floor=1.0)
        for tol in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                MleOptions(tol=tol)

    def test_defaults(self):
        opts = MleOptions()
        assert opts.max_iter == 1000
        assert opts.tol == 1e-10
        assert opts.dilution == 0.5
        assert opts.mix_floor == 0.0


class TestRegularizeFullRank:
    def test_mixed_state_unchanged(self):
        rho = maximally_mixed(2)
        assert np.allclose(regularize_full_rank(rho, 0.01).matrix, rho.matrix)

    def test_pure_state_arithmetic(self):
        reg = regularize_full_rank(DensityMatrix(np.diag([1.0, 0.0])), 0.01)
        assert np.allclose(reg.matrix, np.diag([0.995, 0.005]))

    def test_eigenvalue_floor(self, rng):
        for _ in range(50):
            rho = quantum.random_pure_haar(2, rng)
            reg = regularize_full_rank(rho, 1e-4)
            assert np.linalg.eigvalsh(reg.matrix)[0] >= 5e-5 - 1e-15

    def test_delta_range_checked(self):
        with pytest.raises(ValueError):
            regularize_full_rank(maximally_mixed(2), 0.0)
        with pytest.raises(ValueError):
            regularize_full_rank(maximally_mixed(2), 1.0)
