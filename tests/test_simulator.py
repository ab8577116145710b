import csv
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tomosim.protocols import (
    PROTOCOLS,
    MeasurementPlan,
    next_plan,
)
from tomosim.quantum import (
    DensityMatrix,
    PovmElement,
    from_stokes,
    maximally_mixed,
    projector,
    pure_state,
    random_bures_mixed,
    random_pure_haar,
    to_stokes,
)
from tomosim import quantum
from tomosim.simulator import (
    _TRACE_COLUMNS,
    POISSON_MAX,
    RecordStream,
    Schedule,
    SourceModel,
    read_records,
    replay_counts,
    run_tomography,
    sample_counts,
    write_records,
)
from conftest import born_probability, regularize_full_rank

SRC = SourceModel(1000.0)


def h_plan(weight=1.0):
    return MeasurementPlan([to_stokes(projector(quantum.KET_H))], [weight], ((0,),))


class TestSampleCounts:
    def test_zero_probability_never_counts(self, rng):
        plan = h_plan()
        rho = pure_state(quantum.KET_V)
        assert all(sample_counts(plan, rho, SRC, 0.01, rng)[0] == 0 for _ in range(200))

    def test_poisson_moments(self, rng):
        # I * p * t = 100
        plan = h_plan()
        rho = maximally_mixed()
        draws = np.array([sample_counts(plan, rho, SRC, 0.2, rng)[0] for _ in range(10 ** 4)])
        assert 97 <= draws.mean() <= 103
        assert 90 <= draws.var() <= 110

    def test_group_total_is_poisson_sum(self, rng):
        # basis pair on the mixed state: the exposure total has mean I*t
        rho = maximally_mixed()
        plan = MeasurementPlan(to_stokes(np.array([projector(quantum.KET_H),
                                                   projector(quantum.KET_V)])),
                               [1.0, 1.0], ((0, 1),))
        totals = [sample_counts(plan, rho, SRC, 1.0, rng).sum() for _ in range(2000)]
        mean = np.mean(totals)
        assert abs(mean - 1000.0) <= 3 * np.sqrt(1000.0 / 2000) * 2

    def test_detection_efficiency_thins(self, rng):
        src = SourceModel(1000.0, efficiency=0.5)
        plan = h_plan()
        rho = pure_state(quantum.KET_H)
        draws = [sample_counts(plan, rho, src, 1.0, rng)[0] for _ in range(2000)]
        assert abs(np.mean(draws) - 500.0) <= 5 * np.sqrt(500 / 2000) * 3

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_plan_draw_matches_per_measurement_draws(self, protocol):
        # One rng.poisson call over the plan draws what one call per
        # measurement, in index order, drew, and leaves the same state.
        src = SourceModel(1000.0, efficiency=0.8)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            rho = random_bures_mixed(rng)
            plan = next_plan(protocol, random_bures_mixed(rng), rng,
                             random_v=seed % 2 == 1)
            base_time = 0.01 * (seed + 1)
            mine, loop = np.random.default_rng(seed), np.random.default_rng(seed)
            counts = sample_counts(plan, rho, src, base_time, mine)
            mats = from_stokes(plan.vectors)
            for i in range(len(mats)):
                m = PovmElement(mats[i])
                mean = (src.intensity * src.efficiency * born_probability(m, rho)
                        * plan.time_weights[i] * base_time)
                assert counts[i] == int(loop.poisson(mean))
            assert mine.bit_generator.state == loop.bit_generator.state

    def test_rejects_non_positive_base_time(self, rng):
        with pytest.raises(ValueError, match="base_time"):
            sample_counts(h_plan(), maximally_mixed(), SRC, 0.0, rng)

    @pytest.mark.parametrize("base_time", [-1.0, np.inf, np.nan])
    def test_rejects_base_time_not_positive_and_finite(self, rng, base_time):
        # As an extreme intensity gives: the message names the intensity.
        with pytest.raises(ValueError, match=r"^base_time must be positive and finite, "
                                             r"got .* at intensity 1000\.0$"):
            sample_counts(h_plan(), maximally_mixed(), SRC, base_time, rng)


class TestRunTomography:
    def test_deterministic_replay(self):
        rho = pure_state(quantum.KET_D)
        sched = Schedule(50, 1.3, 2000)
        t1, r1 = run_tomography("rankp-nc", rho, SRC, sched, 7)
        t2, r2 = run_tomography("rankp-nc", rho, SRC, sched, 7)
        for c in _TRACE_COLUMNS:
            assert np.array_equal(getattr(t1, c), getattr(t2, c))
        assert len(r1) == len(r2)
        for (g1, a), (g2, b) in zip(r1, r2):
            assert g1 == g2 and a.time == b.time and a.counts == b.counts
            assert np.array_equal(a.element.matrix, b.element.matrix)

    def test_mixed_state_convergence_sanity(self):
        # desk-scale version of the 9/(4N) sanity bound
        rho = maximally_mixed()
        sched = Schedule(100, 1.25, 3 * 10 ** 4)
        bound = 10 * 9 / (4 * 3e4)
        ok = 0
        for seed in range(6):
            tr, _ = run_tomography("eigen", rho, SRC, sched, seed)
            ok += tr.d_bures_sq[-1] <= bound
        assert ok >= 5

    def test_eigen_large_budget_consistency(self):
        rho = DensityMatrix(np.diag([0.9, 0.1]))
        tr, _ = run_tomography("eigen", rho, SRC, Schedule(100, 1.25, 10 ** 7), 3)
        assert tr.fidelity[-1] >= 0.9999

    def test_n_emit_follows_budget_schedule(self):
        tr, _ = run_tomography("random", maximally_mixed(), SRC, Schedule(100, 1.25, 10 ** 4), 5)
        n = tr.n_emit
        assert n[0] == pytest.approx(100.0)
        assert n[1] == pytest.approx(100.0 + 125.0)
        assert np.all(np.diff(n) > 0)
        assert n[-1] >= 10 ** 4

    def test_n_emit_counts_each_group_exposure_once(self):
        # N_emit grows by I times each exposure group's time, once per group
        # however many members it reads out: the MUB pass's three basis
        # pairs emit I * 3 * base_time = the initial budget, not twice it.
        src = SourceModel(100.0)
        tr, stream = run_tomography("rankp-nc", maximally_mixed(), src,
                                    Schedule(100, 2.0, 1000), 3)
        starts = np.flatnonzero(np.diff(stream.group_ids, prepend=-1))
        group_times = np.maximum.reduceat(stream.times, starts)
        assert tr.n_emit[0] == pytest.approx(100.0)
        assert src.intensity * 3 * stream.times[0] == pytest.approx(100.0)
        assert tr.n_emit[-1] == pytest.approx(src.intensity * group_times.sum(), rel=1e-12)

    def test_n_det_monotone(self):
        tr, _ = run_tomography("rankp-m", random_pure_haar(np.random.default_rng(0)),
                               SRC, Schedule(100, 1.3, 10 ** 4), 5)
        assert all(np.diff(tr.n_det) >= 0)

    def test_complete_protocol_detects_all(self):
        # E[N_det] = N_emit for decomposition-of-unity protocols
        rho = random_bures_mixed(np.random.default_rng(1))
        for proto in ("eigen", "random", "rankp-b"):
            tr, _ = run_tomography(proto, rho, SRC, Schedule(100, 1.25, 10 ** 5), 11)
            assert abs(tr.n_det[-1] - tr.n_emit[-1]) <= 5 * np.sqrt(tr.n_emit[-1])

    def test_rankp_nc_discards_outcomes_on_pure_states(self):
        rho = random_pure_haar(np.random.default_rng(2))
        tr, _ = run_tomography("rankp-nc", rho, SRC, Schedule(100, 1.25, 10 ** 5), 13)
        assert tr.n_det[-1] / tr.n_emit[-1] < 0.9

    def test_exposure_grouping_rule(self, rng):
        # Eigen iterations consume one exposure per basis; RankP-NC six
        from tomosim.protocols import next_plan
        rho = regularized_pure(rng)
        assert len(next_plan("eigen", rho, rng).groups) == 3
        assert len(next_plan("random", rho, rng).groups) == 1
        assert len(next_plan("rankp-nc", rho, rng).groups) == 6

    def test_detector_efficiency_enters_the_likelihood(self):
        # Counts arrive at rate I * eff. Before the estimator was told I, a
        # non-complemented set read the missing counts as state information:
        # these runs gave mean N * d_B^2 = 204 at eff = 0.5 (4.7 at eff = 1).
        vals = []
        for i in range(4):
            rho = random_bures_mixed(np.random.default_rng(100 + i))
            tr, _ = run_tomography("rankp-nc", rho, SourceModel(1000.0, 0.5),
                                   Schedule(100, 1.25, 2 * 10 ** 4), 7 + i)
            vals.append(tr.n_emit[-1] * tr.d_bures_sq[-1])
        assert np.mean(vals) < 40.0

    def test_rejects_non_qubit_state(self):
        with pytest.raises(ValueError, match="only qubits"):
            run_tomography("eigen", DensityMatrix(np.eye(3) / 3), SRC,
                           Schedule(50, 1.3, 2000), 1)


class TestRunArrays:
    """Each iteration's LikelihoodData holds views of arrays the run grows."""

    @staticmethod
    def run_datas(monkeypatch, protocol, seed=3):
        from tomosim import simulator
        datas = []

        def keep(data, opts=None, logliks=None):
            datas.append(data)
            return mle_estimate(data, opts, logliks)

        mle_estimate = simulator.mle_estimate
        monkeypatch.setattr(simulator, "mle_estimate", keep)
        rho = random_bures_mixed(np.random.default_rng(seed))
        run_tomography(protocol, rho, SRC, Schedule(100, 1.25, 2 * 10 ** 4), seed)
        return datas

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_arrays_equal_restacked_records_and_share_the_buffer(self, monkeypatch, protocol):
        datas = self.run_datas(monkeypatch, protocol)
        final = datas[-1].arrays()
        for data in datas:
            traces, bloch, times, counts = data.arrays()
            mats = np.array([r.element.matrix for r in data.records])
            # The arrays hold the four-vectors (Tr M, Tr sigma M), and the
            # records are their views M = (Tr M + m.sigma)/2.
            vecs = np.column_stack([traces, bloch])
            assert np.array_equal(mats, quantum.from_stokes(vecs))
            np.testing.assert_allclose(quantum.to_stokes(mats), vecs, rtol=0, atol=1e-15)
            assert np.array_equal(times, [r.time for r in data.records])
            assert np.array_equal(counts, [r.counts for r in data.records])
            for mine, run in zip((traces, bloch, times, counts), final):
                assert np.shares_memory(mine, run)

    def test_records_of_every_iteration_kept(self, monkeypatch):
        datas = self.run_datas(monkeypatch, "rankp-b")
        for prev, data in zip(datas, datas[1:]):
            # Records are views built from the run's arrays, so compared by value.
            for old, new in zip(prev.records, data.records, strict=False):
                assert np.array_equal(old.element.matrix, new.element.matrix)
                assert (old.time, old.counts) == (new.time, new.counts)
            assert len(data.records) > len(prev.records)
            assert data.records[0].element.matrix.shape == (2, 2)

    def test_extending_an_older_data_leaves_the_newer_one(self):
        from tomosim.estimation import LikelihoodData, MeasurementRecord
        h, v = PovmElement(projector(quantum.KET_H)), PovmElement(projector(quantum.KET_V))
        first = LikelihoodData((MeasurementRecord(h, 1.0, 3),), 100.0)
        hs, vs = to_stokes(h.matrix), to_stokes(v.matrix)
        newer = first.extended_arrays(vs[None], np.array([2.0]), np.array([5]))
        branch = first.extended_arrays(np.array([vs, hs]), np.array([0.5, 0.0]),
                                       np.array([7, 0]))
        assert list(newer.arrays()[2]) == [1.0, 2.0]
        assert list(newer.arrays()[3]) == [3.0, 5.0]
        assert list(branch.arrays()[2]) == [1.0, 0.5, 0.0]    # t = 0 records are kept
        assert list(first.arrays()[3]) == [3.0]
        assert len(branch.records) == 3
        assert not np.shares_memory(newer.arrays()[2], branch.arrays()[2])
        with pytest.raises(ValueError, match="normal float"):
            first.extended_arrays(vs[None], np.array([1e-320]), np.array([0]))

    def test_n_det_matches_the_golden_campaigns(self, golden_campaigns):
        # Every trace row's n_det of two five-protocol campaigns: the same
        # plans and draws as when the golden file was written.
        expected = _golden_rows("ndet_golden.csv")
        assert [{k: row[k] for k in expected[0]} for row in golden_campaigns] == expected


def _golden_rows(name: str) -> list[dict]:
    with open(Path(__file__).parent / "data" / name) as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def _campaign_rows(tmp_path_factory, protocols, *options) -> list[dict]:
    """Every trace row, tagged with its states, of `simulate --protocol
    <protocols> --states {pure,bures} --runs 2 --n-max 1e4 --seed 7
    <options>`."""
    from tomosim.cli import main
    rows = []
    for states in ("pure", "bures"):
        out = tmp_path_factory.mktemp(states)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "mle_estimate. max_iter")
            assert main(["simulate", "--protocol", ",".join(protocols), "--states", states,
                         "--runs", "2", "--n-max", "1e4", "--seed", "7", "--workers", "1",
                         "--out", str(out), *options]) == 0
        for protocol in protocols:
            for run in range(2):
                with open(out / f"trace_{protocol}_{run:03d}.csv") as fh:
                    rows += [{"states": states, **row} for row in csv.DictReader(fh)]
    return rows


@pytest.fixture(scope="module")
def golden_campaigns(tmp_path_factory) -> list[dict]:
    """The trace rows of the five-protocol campaigns."""
    return _campaign_rows(tmp_path_factory, PROTOCOLS)


def _assert_trace_columns_match(rows: list[dict], name: str) -> None:
    """Every column of every trace row as the golden file holds them:
    integers exactly, floats to a relative 1e-12, which allows for the
    order in which SIMD code sums on another host."""
    expected = _golden_rows(name)
    assert len(rows) == len(expected)
    for column in expected[0]:
        mine, want = ([row[column] for row in table] for table in (rows, expected))
        if column in ("n_emit", "d_bures_sq", "fidelity", "loglik"):
            np.testing.assert_allclose(np.array(mine, dtype=float),
                                       np.array(want, dtype=float), rtol=1e-12, atol=0)
        else:
            assert mine == want, column


def test_every_trace_column_matches_the_golden_campaigns(golden_campaigns):
    _assert_trace_columns_match(golden_campaigns, "trace_golden.csv")


def test_every_random_v_trace_column_matches_its_golden_campaigns(tmp_path_factory):
    # The RankP campaigns with a Haar-random V composed into each transform.
    rows = _campaign_rows(tmp_path_factory, ("rankp-nc", "rankp-b", "rankp-m"), "--random-v")
    _assert_trace_columns_match(rows, "trace_golden_random_v.csv")


def regularized_pure(rng):
    return regularize_full_rank(random_pure_haar(rng), 1e-3)


class TestReplayCounts:
    def make_trace(self, n_max=3 * 10 ** 4, seed=21):
        rho = random_bures_mixed(np.random.default_rng(4))
        return run_tomography("eigen", rho, SRC, Schedule(100, 1.25, n_max), seed)

    def test_final_prefix_distance_zero(self):
        _, records = self.make_trace()
        rep = replay_counts(records)
        assert rep.d_bures_sq[-1] == pytest.approx(0.0, abs=1e-12)

    def test_prefix_at_n0_is_reference(self):
        tr, records = self.make_trace()
        rep = replay_counts(records, n0=tr.n_emit[-1])
        assert rep.d_bures_sq[-1] == 0.0

    def test_median_distance_decreases(self):
        # statistical smoke check across a few replays
        firsts, lasts = [], []
        for seed in (31, 32, 33, 34, 35):
            _, records = self.make_trace(seed=seed)
            rep = replay_counts(records)
            d = rep.d_bures_sq[:-1]  # drop the exact zero
            n = rep.n_emit[:-1]
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

        _, records = self.make_trace()
        mle_estimate = simulator.mle_estimate
        monkeypatch.setattr(simulator, "mle_estimate", counted)
        rep = replay_counts(records)
        assert len(calls) == len(rep.n_emit)
        assert calls.count(max(calls)) == 1

    def test_n_grid_is_increasing(self):
        _, records = self.make_trace()
        rep = replay_counts(records)
        assert all(np.diff(rep.n_emit) > 0)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            replay_counts(RecordStream([], [], [], [], 100.0, 1.0))

    def test_zero_time_group_changes_no_row(self, tmp_path):
        # A group of t = 0 records added to a record file mid-stream: it
        # adds no emitted copies, so its prefix repeats the n_emit of the
        # one before and is never picked; every later prefix holds it, and
        # every row is the one without it, the group index past it shifted.
        _, records = self.make_trace()
        path = tmp_path / "records.csv"
        write_records(path, records)
        lines = path.read_text().splitlines()
        ends = records.group_ends()
        cut = int(ends[len(ends) // 2 - 1])    # records up to a group's end
        lines[1 + cut:1 + cut] = ["999,1,0,0,0,0,0,0,0,0,0", "999,0,0,0,0,0,0,1,0,0,0"]
        path.write_text("\n".join(lines) + "\n")
        padded = read_records(path)[0]
        assert len(padded) == len(records) + 2 and not padded.times[cut:cut + 2].any()

        rep, rep_padded = replay_counts(records), replay_counts(padded)
        assert np.array_equal(rep_padded.iteration,
                              rep.iteration + (rep.iteration >= len(ends) // 2))
        assert np.array_equal(rep_padded.n_emit, rep.n_emit)
        assert np.array_equal(rep_padded.n_det, rep.n_det)
        for column in ("d_bures_sq", "fidelity", "loglik"):
            np.testing.assert_allclose(getattr(rep_padded, column), getattr(rep, column),
                                       rtol=1e-12, atol=1e-15)


class TestRecordIO:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        rho = random_pure_haar(rng)
        _, records = run_tomography("rankp-m", rho, SRC, Schedule(100, 1.3, 5000), 17)
        path = tmp_path / "records.csv"
        write_records(path, records)
        back, dim, intensity = read_records(path)
        assert dim == 2
        assert intensity == SRC.intensity
        assert len(back) == len(records)
        for (g1, r1), (g2, r2) in zip(records, back):
            assert g1 == g2
            assert r1.time == r2.time
            assert r1.counts == r2.counts
            assert np.array_equal(r1.element.matrix, r2.element.matrix)
        assert (back.rate, back.efficiency) == (SRC.intensity, 1.0)
        # A rate and an efficiency that only 17 digits carry bit for bit.
        odd = replace(records, rate=SRC.intensity / 3, efficiency=0.1 + 0.2)
        write_records(path, odd)
        back = read_records(path)[0]
        assert (back.rate, back.efficiency) == (odd.rate, odd.efficiency)

    def test_rewrite_identical_bytes(self, tmp_path, rng):
        rho = random_pure_haar(rng)
        _, records = run_tomography("eigen", rho, SRC, Schedule(100, 1.3, 2000), 23)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records(p1, records)
        back, _, _ = read_records(p1)
        write_records(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seven_field_file_round_trips_bit_for_bit(self, tmp_path, rng):
        # Records are written as group id, four-vector, time and counts, and
        # read back to the very arrays the run's estimator read.
        _, records = run_tomography("rankp-m", random_bures_mixed(rng), SourceModel(1000.0, 0.8),
                                    Schedule(100, 1.3, 3000), 29, random_v=True)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records(p1, records)
        head, *lines = p1.read_text().splitlines()
        assert head == "2,800,0.80000000000000004"
        assert {len(line.split(",")) for line in lines} == {7}
        back = read_records(p1)[0]
        for name in ("group_ids", "vectors", "times", "counts"):
            want, got = getattr(records, name), getattr(back, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        write_records(p2, back)
        assert p2.read_bytes() == p1.read_bytes()

    def test_matrix_lines_read_as_four_vectors(self, tmp_path):
        # An older file's 11-field line carries the element's 2x2 matrix; it
        # reads as the four-vector to_stokes gives, beside a 7-field line.
        p = tmp_path / "old.csv"
        p.write_text("2,1000\n0,0.5,0,0.5,0,0.5,0,0.5,0,1,3\n0,0.5,0,-0.5,0,-0.5,0,0.5,0,1,2\n"
                     "1,1,0,0,1,2,4\n")
        back = read_records(p)[0]
        assert back.vectors.tolist() == [[1, 1, 0, 0], [1, -1, 0, 0], [1, 0, 0, 1]]
        assert back.times.tolist() == [1, 1, 2] and back.counts.tolist() == [3, 2, 4]

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

    def test_non_finite_stream_matrix_rejected(self):
        # Rejected by name before the PSD check, which would read inf - inf
        # as NaN, and without a numpy warning on the way.
        for vector in ([np.nan, 0, 0, 0], [np.inf, 0, 0, 0], [1, 0, 0, -np.inf],
                       [1, np.inf, 0, 0], [np.inf, 0, np.inf, 0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError,
                                   match="^record 0: POVM element has a non-finite entry$"):
                    RecordStream([0], [vector], [1.0], [3], 100.0, 1.0)

    @pytest.mark.parametrize("rate, efficiency, time, message", [
        (np.nan, 1.0, 1.0, "intensity must be positive and finite, got nan"),
        (np.inf, 1.0, 1.0, "intensity must be positive and finite, got inf"),
        (0.0, 1.0, 1.0, "intensity must be positive and finite, got 0.0"),
        (-5.0, 1.0, 1.0, "intensity must be positive and finite, got -5.0"),
        (800.0, np.nan, 1.0, "detector efficiency must be in (0, 1], got nan"),
        (800.0, np.inf, 1.0, "detector efficiency must be in (0, 1], got inf"),
        (800.0, 0.0, 1.0, "detector efficiency must be in (0, 1], got 0.0"),
        (800.0, -0.5, 1.0, "detector efficiency must be in (0, 1], got -0.5"),
        (800.0, 1.5, 1.0, "detector efficiency must be in (0, 1], got 1.5"),
        (1000.0, 1.0, 1e306,
         "intensity * total record time must be finite, got 1000.0 * 1e+306"),
        (1e-320, 1.0, 1.0,
         "intensity * record time must be a normal float, got 1e-320 * 1.0")],
        ids=["rate-nan", "rate-inf", "rate-zero", "rate-negative", "efficiency-nan",
             "efficiency-inf", "efficiency-zero", "efficiency-negative", "efficiency-1.5",
             "time-overflow", "rate-subnormal"])
    def test_stream_checks_rate_and_efficiency(self, rate, efficiency, time, message):
        # The record with t = 0 is left out of the least I * t.
        projector = [1, 0, 0, 1]    # |0><0|
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RecordStream([0, 0], [projector, projector], [time, 0.0], [3, 0], rate, efficiency)

    @pytest.mark.parametrize("vectors", [[[[1, 0], [0, 0]]], [1, 0, 0, 1], [[1, 0], [0, 1]]],
                             ids=["matrix-stack", "flat", "two-columns"])
    def test_stream_takes_only_four_vectors(self, vectors):
        # A (K, 2, 2) matrix stack holds 4K numbers too; it is rejected, not
        # read as four-vectors (|0><0| would read as the I/2 four-vector).
        with pytest.raises(ValueError, match=r"^expected \(K, 4\) four-vectors, got shape"):
            RecordStream([0], vectors, [1.0], [3], 100.0, 1.0)

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

    @pytest.mark.parametrize("n_max, growth", [(1e20, 1e10), (POISSON_MAX, 1.0),
                                               (8e18, 1.25)])
    def test_schedule_keeps_poisson_means_in_numpy_range(self, n_max, growth):
        # Every Poisson mean stays below n_max * growth, and numpy's
        # Generator.poisson rejects means above POISSON_MAX.
        with pytest.raises(ValueError, match=r"n_max \* growth = .* must be below 9\.223e\+18"):
            Schedule(n_max=n_max, growth=growth)
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(0).poisson(np.nextafter(POISSON_MAX, np.inf))
        Schedule(n_max=7e18, growth=1.25)
        np.random.default_rng(0).poisson(POISSON_MAX)

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
