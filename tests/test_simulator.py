import numpy as np
import pytest

from tomosim.protocols import TimedMeasurement, initial_plan
from tomosim.quantum import (
    DensityMatrix,
    PovmElement,
    maximally_mixed,
    mub_qubit,
    projector,
    pure_state,
    random_bures_mixed,
    random_pure_haar,
)
from tomosim import quantum
from tomosim.simulator import (
    Schedule,
    SourceModel,
    emitted_copies,
    read_records,
    replay_counts,
    run_tomography,
    sample_counts,
    write_records,
)

SRC = SourceModel(1000.0)


def h_measurement(weight=1.0):
    return TimedMeasurement(PovmElement(projector(quantum.KET_H)), weight)


class TestSampleCounts:
    def test_zero_probability_never_counts(self, rng):
        m = h_measurement()
        rho = pure_state(quantum.KET_V)
        assert all(sample_counts(m, rho, SRC, 0.01, rng) == 0 for _ in range(200))

    def test_poisson_moments(self, rng):
        # I * p * t = 100
        m = h_measurement()
        rho = maximally_mixed(2)
        draws = np.array([sample_counts(m, rho, SRC, 0.2, rng) for _ in range(10 ** 4)])
        assert 97 <= draws.mean() <= 103
        assert 90 <= draws.var() <= 110

    def test_group_total_is_poisson_sum(self, rng):
        # basis pair on the mixed state: the exposure total has mean I*t
        rho = maximally_mixed(2)
        ms = [h_measurement(), TimedMeasurement(PovmElement(projector(quantum.KET_V)), 1.0)]
        totals = [
            sum(sample_counts(m, rho, SRC, 1.0, rng) for m in ms)
            for _ in range(2000)
        ]
        mean = np.mean(totals)
        assert abs(mean - 1000.0) <= 3 * np.sqrt(1000.0 / 2000) * 2

    def test_detection_efficiency_thins(self, rng):
        src = SourceModel(1000.0, efficiency=0.5)
        m = h_measurement()
        rho = pure_state(quantum.KET_H)
        draws = [sample_counts(m, rho, src, 1.0, rng) for _ in range(2000)]
        assert abs(np.mean(draws) - 500.0) <= 5 * np.sqrt(500 / 2000) * 3


class TestEmittedCopies:
    def test_zero_time(self):
        assert emitted_copies(0.0, SRC) == 0.0

    def test_mub_pass_with_pair_grouping(self, rng):
        # 3 group exposures of unit duration at I = 100 emit 300 copies
        src = SourceModel(100.0)
        plan = initial_plan("rankp-nc", mub_qubit(), 2, rng)
        assert plan.exposure_weight() == pytest.approx(3.0)
        assert emitted_copies(plan.exposure_weight() * 1.0, src) == pytest.approx(300.0)

    def test_singleton_weights_sum(self):
        # six singleton exposures with weights t sum as I * sum(t)
        total_time = sum([0.5, 1.5, 2.0])
        assert emitted_copies(total_time, SRC) == pytest.approx(4000.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            emitted_copies(-1.0, SRC)


class TestRunTomography:
    def test_deterministic_replay(self):
        rho = pure_state(quantum.KET_D)
        sched = Schedule(50, 1.3, 2000)
        t1 = run_tomography("rankp-nc", rho, SRC, sched, 7)
        t2 = run_tomography("rankp-nc", rho, SRC, sched, 7)
        assert len(t1.entries) == len(t2.entries)
        for a, b in zip(t1.entries, t2.entries):
            assert a.n_emit == b.n_emit
            assert a.n_det == b.n_det
            assert a.d_bures_sq == b.d_bures_sq
            assert np.array_equal(a.estimator.matrix, b.estimator.matrix)

    def test_mixed_state_convergence_sanity(self):
        # desk-scale version of the 9/(4N) sanity bound
        rho = maximally_mixed(2)
        sched = Schedule(100, 1.25, 3 * 10 ** 4)
        bound = 10 * 9 / (4 * 3e4)
        ok = 0
        for seed in range(6):
            tr = run_tomography("eigen", rho, SRC, sched, seed)
            ok += tr.entries[-1].d_bures_sq <= bound
        assert ok >= 5

    def test_eigen_large_budget_consistency(self):
        rho = DensityMatrix(np.diag([0.9, 0.1]))
        tr = run_tomography("eigen", rho, SRC, Schedule(100, 1.25, 10 ** 7), 3)
        assert tr.entries[-1].fidelity >= 0.9999

    def test_n_emit_follows_budget_schedule(self):
        tr = run_tomography("random", maximally_mixed(2), SRC, Schedule(100, 1.25, 10 ** 4), 5)
        n = [e.n_emit for e in tr.entries]
        assert n[0] == pytest.approx(100.0)
        assert n[1] == pytest.approx(100.0 + 125.0)
        assert np.all(np.diff(n) > 0)
        assert n[-1] >= 10 ** 4

    def test_n_det_monotone(self):
        tr = run_tomography("rankp-m", random_pure_haar(2, np.random.default_rng(0)),
                            SRC, Schedule(100, 1.3, 10 ** 4), 5)
        det = [e.n_det for e in tr.entries]
        assert all(np.diff(det) >= 0)

    def test_complete_protocol_detects_all(self):
        # E[N_det] = N_emit for decomposition-of-unity protocols
        rho = random_bures_mixed(2, np.random.default_rng(1))
        for proto in ("eigen", "random", "rankp-b"):
            tr = run_tomography(proto, rho, SRC, Schedule(100, 1.25, 10 ** 5), 11)
            e = tr.entries[-1]
            assert abs(e.n_det - e.n_emit) <= 5 * np.sqrt(e.n_emit)

    def test_rankp_nc_discards_outcomes_on_pure_states(self):
        rho = random_pure_haar(2, np.random.default_rng(2))
        tr = run_tomography("rankp-nc", rho, SRC, Schedule(100, 1.25, 10 ** 5), 13)
        e = tr.entries[-1]
        assert e.n_det / e.n_emit < 0.9

    def test_exposure_grouping_rule(self, rng):
        # Eigen iterations consume one exposure per basis; RankP-NC six
        from tomosim.protocols import next_plan
        rho = regularized_pure(rng)
        assert len(next_plan("eigen", rho, mub_qubit(), rng).groups) == 3
        assert len(next_plan("random", rho, mub_qubit(), rng).groups) == 1
        assert len(next_plan("rankp-nc", rho, mub_qubit(), rng).groups) == 6

    def test_detector_efficiency_enters_the_likelihood(self):
        # Counts arrive at rate I * eff. Before the estimator was told I, a
        # non-complemented set read the missing counts as state information:
        # these runs gave mean N * d_B^2 = 204 at eff = 0.5 (4.7 at eff = 1).
        vals = []
        for i in range(4):
            rho = random_bures_mixed(2, np.random.default_rng(100 + i))
            tr = run_tomography("rankp-nc", rho, SourceModel(1000.0, 0.5),
                                Schedule(100, 1.25, 2 * 10 ** 4), 7 + i)
            vals.append(tr.entries[-1].n_emit * tr.entries[-1].d_bures_sq)
        assert np.mean(vals) < 40.0

    def test_rejects_non_qubit_state(self):
        with pytest.raises(ValueError, match="only qubits"):
            run_tomography("eigen", maximally_mixed(3), SRC, Schedule(50, 1.3, 2000), 1)


def regularized_pure(rng):
    from tomosim.estimation import regularize_full_rank
    return regularize_full_rank(random_pure_haar(2, rng), 1e-3)


class TestReplayCounts:
    def make_trace(self, n_max=3 * 10 ** 4, seed=21):
        rho = random_bures_mixed(2, np.random.default_rng(4))
        return run_tomography("eigen", rho, SRC, Schedule(100, 1.25, n_max), seed)

    def test_final_prefix_distance_zero(self):
        tr = self.make_trace()
        rep = replay_counts(tr.records, SRC.intensity)
        assert rep.entries[-1].d_bures_sq == pytest.approx(0.0, abs=1e-12)

    def test_prefix_at_n0_is_reference(self):
        tr = self.make_trace()
        n0 = tr.entries[-1].n_emit
        rep = replay_counts(tr.records, SRC.intensity, n0=n0)
        assert rep.entries[-1].d_bures_sq == 0.0

    def test_median_distance_decreases(self):
        # statistical smoke check across a few replays
        firsts, lasts = [], []
        for seed in (31, 32, 33, 34, 35):
            tr = self.make_trace(seed=seed)
            rep = replay_counts(tr.records, SRC.intensity)
            d = [e.d_bures_sq for e in rep.entries[:-1]]  # drop the exact zero
            n = [e.n_emit for e in rep.entries[:-1]]
            split = np.searchsorted(n, np.sqrt(n[0] * n[-1]))
            firsts.append(np.median(d[:split]))
            lasts.append(np.median(d[split:]))
        assert np.median(lasts) < np.median(firsts)

    def test_reference_prefix_estimated_once(self, monkeypatch):
        from tomosim import simulator
        calls = []

        def counted(data, opts=None, logliks=None):
            calls.append(len(data.records))
            return mle_estimate(data, opts, logliks)

        records = self.make_trace().records
        mle_estimate = simulator.mle_estimate
        monkeypatch.setattr(simulator, "mle_estimate", counted)
        rep = replay_counts(records, SRC.intensity)
        assert len(calls) == len(rep.entries)
        assert calls.count(max(calls)) == 1

    def test_n_grid_is_increasing(self):
        tr = self.make_trace()
        rep = replay_counts(tr.records, SRC.intensity)
        n = [e.n_emit for e in rep.entries]
        assert all(np.diff(n) > 0)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            replay_counts([], 100.0)


class TestRecordIO:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        rho = random_pure_haar(2, rng)
        tr = run_tomography("rankp-m", rho, SRC, Schedule(100, 1.3, 5000), 17)
        path = tmp_path / "records.csv"
        write_records(path, tr.records, SRC.intensity)
        back, dim, intensity = read_records(path)
        assert dim == 2
        assert intensity == SRC.intensity
        assert len(back) == len(tr.records)
        for (g1, r1), (g2, r2) in zip(tr.records, back):
            assert g1 == g2
            assert r1.time == r2.time
            assert r1.counts == r2.counts
            assert np.array_equal(r1.element.matrix, r2.element.matrix)

    def test_rewrite_identical_bytes(self, tmp_path, rng):
        rho = random_pure_haar(2, rng)
        tr = run_tomography("eigen", rho, SRC, Schedule(100, 1.3, 2000), 23)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records(p1, tr.records, SRC.intensity)
        back, _, intensity = read_records(p1)
        write_records(p2, back, intensity)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("not,a,header\n")
        with pytest.raises(ValueError, match="malformed"):
            read_records(p)

    def test_non_qubit_stream_rejected(self, tmp_path):
        p = tmp_path / "qutrit.csv"
        p.write_text("3,100.0\n")
        with pytest.raises(ValueError, match="only qubits"):
            read_records(p)

    def test_malformed_row_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("2,100.0\n0,1.0,0.0\n")
        with pytest.raises(ValueError, match="malformed record"):
            read_records(p)


class TestScheduleAndSource:
    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            Schedule(initial_budget=0)
        with pytest.raises(ValueError):
            Schedule(growth=0.5)
        with pytest.raises(ValueError):
            Schedule(initial_budget=100, n_max=50)
        for growth in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                Schedule(growth=growth)
        with pytest.raises(ValueError, match="finite"):
            Schedule(n_max=float("inf"))
        with pytest.raises(ValueError):
            Schedule(initial_budget=float("nan"))

    def test_source_validation(self):
        with pytest.raises(ValueError):
            SourceModel(0.0)
        with pytest.raises(ValueError):
            SourceModel(10.0, efficiency=0.0)
        with pytest.raises(ValueError):
            SourceModel(10.0, efficiency=1.5)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                SourceModel(value)
            with pytest.raises(ValueError):
                SourceModel(10.0, efficiency=value)
