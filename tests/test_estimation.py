import pickle
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tomosim import estimation, quantum
from tomosim.estimation import (
    LikelihoodData,
    MeasurementRecord,
    MleOptions,
    NonIdentifiableDataError,
    checked_records,
    log_likelihood,
    mle_estimate,
)
from tomosim.quantum import (
    DensityMatrix,
    PovmElement,
    fidelity,
    from_stokes,
    haar_unitary,
    maximally_mixed,
    mub_qubit,
    projector,
    pure_state,
    random_bures_mixed,
    random_pure_haar,
    to_stokes,
)
from conftest import bloch_ball_fit, bloch_ball_optimum, born_probability, regularize_full_rank

H_PROJ = PovmElement(projector(quantum.KET_H))
V_PROJ = PovmElement(projector(quantum.KET_V))
D_PROJ = PovmElement(projector(quantum.KET_D))


def spy_line_search(monkeypatch) -> list:
    """Record the max_iter of every call to the estimator's line search."""
    calls, original = [], estimation._line_search

    def spied(lik, max_iter, logliks):
        calls.append(max_iter)
        return original(lik, max_iter, logliks)

    monkeypatch.setattr(estimation, "_line_search", spied)
    return calls


def mub_records(rho_true, intensity, time=1.0):
    """Noiseless expected counts (rounded) for the full MUB set."""
    recs = []
    for e in mub_qubit():
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

    def test_counts_beyond_int64_rejected(self):
        with pytest.raises(ValueError, match="64-bit"):
            LikelihoodData((MeasurementRecord(H_PROJ, 1.0, 10 ** 20),), 10.0)

    def test_intensity_positive(self):
        with pytest.raises(ValueError):
            LikelihoodData((MeasurementRecord(H_PROJ, 1.0, 1),), 0.0)

    def test_empty_data_holds_no_records(self):
        # The start of every run and replay: no records, nothing to estimate.
        data = LikelihoodData((), 10.0)
        assert data.records == ()
        assert [a.shape[0] for a in data.arrays()] == [0, 0, 0, 0]
        assert data.matrices().shape == (0, 2, 2)
        with pytest.raises(ValueError, match="need at least one record with positive time"):
            mle_estimate(data)

    @pytest.mark.parametrize("rate", [0.0, -1.0, np.inf, np.nan])
    def test_empty_data_checks_its_rate_when_built(self, rate):
        with pytest.raises(ValueError, match="intensity must be positive and finite"):
            LikelihoodData((), rate)

    def test_pickle_rebuilds_frozen_element(self):
        rec = pickle.loads(pickle.dumps(MeasurementRecord(H_PROJ, 1.5, 3)))
        assert (rec.time, rec.counts) == (1.5, 3)
        assert np.array_equal(rec.element.matrix, H_PROJ.matrix)
        assert not rec.element.matrix.flags.writeable


class TestLogLikelihood:
    def test_zero_probability_zero_counts(self):
        data = LikelihoodData((MeasurementRecord(H_PROJ, 1.0, 0),), 10.0)
        assert log_likelihood(data, pure_state(quantum.KET_V)) == pytest.approx(0.0, abs=1e-15)

    def test_single_record_value(self):
        # 5*ln(10 * 0.5 * 1) - 10*0.5*1 = 5 ln 5 - 5, frozen by direct arithmetic
        data = LikelihoodData((MeasurementRecord(H_PROJ, 1.0, 5),), 10.0)
        assert log_likelihood(data, maximally_mixed()) == pytest.approx(
            3.0471895621705016, abs=1e-12)

    def test_duplicate_records_double_the_sum(self, rng):
        rho = random_bures_mixed(rng)
        recs = []
        for i, e in enumerate(mub_qubit()):
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
        rho = maximally_mixed()
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
        est = mle_estimate(mub_records(maximally_mixed(), 1000.0))
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
            rho = random_bures_mixed(rng)
            recs = []
            for e in mub_qubit():
                mean = 2000.0 * born_probability(e, rho)
                recs.append(MeasurementRecord(e, 1.0, int(rng.poisson(mean))))
            data = LikelihoodData(tuple(recs), 2000.0)
            lls = []
            mle_estimate(data, logliks=lls)
            diffs = np.diff(np.array(lls))
            assert np.all(diffs >= -1e-9)

    def test_estimate_validity(self, rng):
        rho = random_bures_mixed(rng)
        recs = []
        for e in mub_qubit():
            recs.append(MeasurementRecord(
                e, 1.0, int(rng.poisson(500.0 * born_probability(e, rho)))))
        est = mle_estimate(LikelihoodData(tuple(recs), 500.0))
        assert abs(est.matrix.trace().real - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(est.matrix)[0] >= -1e-10

    def test_noiseless_consistency_sweep(self, rng):
        # full-rank true states, exact expected counts, large sample
        for _ in range(100):
            rho = regularize_full_rank(random_bures_mixed(rng), 0.05)
            est = mle_estimate(mub_records(rho, 10 ** 7))
            assert fidelity(est, rho) >= 1 - 1e-6

    def test_beats_truth_on_sampled_data(self, rng):
        for _ in range(100):
            rho = random_bures_mixed(rng)
            recs = []
            for e in mub_qubit():
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

    def test_max_iter_cap_warns(self):
        data = LikelihoodData(
            (MeasurementRecord(H_PROJ, 1.0, 700), MeasurementRecord(V_PROJ, 1.0, 300)),
            1000.0)
        with pytest.warns(RuntimeWarning, match="max_iter = 1 "):
            mle_estimate(data, MleOptions(max_iter=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mle_estimate(data)

    def test_max_iter_cap_warns_from_the_line_search(self, monkeypatch):
        # H counted and D exposed without counts: the exposure term tilts
        # the likelihood along x, which nothing counted measures, so the
        # optimum lies on the sphere and the call goes to the line search
        # at once; one step of it is not enough.
        data = LikelihoodData(
            (MeasurementRecord(H_PROJ, 1.0, 1000), MeasurementRecord(D_PROJ, 1.0, 0)),
            1000.0)
        calls = spy_line_search(monkeypatch)
        with pytest.warns(RuntimeWarning, match="max_iter = 1 "):
            mle_estimate(data, MleOptions(max_iter=1))
        assert calls == [1]

    @staticmethod
    def sampled_mub_data():
        """MUB counts of a Bures state at t = 1, I = 1000, and their optimum."""
        rng = np.random.default_rng(2)
        rho = random_bures_mixed(rng)
        elements = mub_qubit()
        counts = [int(rng.poisson(1000.0 * born_probability(e, rho))) for e in elements]
        data = LikelihoodData(tuple(
            MeasurementRecord(e, 1.0, n) for e, n in zip(elements, counts)), 1000.0)
        # Each MUB basis sums to eye(2) and is held for the same time, so an
        # interior optimum gives each outcome its frequency within its
        # basis: rho = sum_k f_k M_k - eye(2).
        freqs = [n / (counts[k] + counts[k ^ 1]) for k, n in enumerate(counts)]
        optimum = sum(f * e.matrix for f, e in zip(freqs, elements)) - np.eye(2)
        return data, log_likelihood(data, DensityMatrix(optimum))

    def test_default_call_ends_at_roundoff_optimum(self):
        # The only end rule: a call ends once no step raises the
        # log-likelihood beyond its round-off, soon and without a warning,
        # instead of running to max_iter on a likelihood that no longer moves.
        data, ll_opt = self.sampled_mub_data()
        logliks = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = mle_estimate(data, logliks=logliks)
        assert len(logliks) < 100
        assert abs(log_likelihood(data, est) - ll_opt) <= 1e-9

    def test_newton_step_reaches_interior_optimum_quickly(self):
        # The Bloch-coordinate Newton step converges quadratically on an
        # interior optimum: 5 steps here, against 19 for the fixed point
        # with its gradient and Aitken steps alone.
        data, ll_opt = self.sampled_mub_data()
        logliks = []
        est = mle_estimate(data, logliks=logliks)
        assert len(logliks) - 1 <= 8
        assert abs(log_likelihood(data, est) - ll_opt) <= 1e-9

    def test_interior_call_ends_on_newton_decrement(self, monkeypatch):
        # An interior call is Newton's method on the Bloch vector alone and
        # ends on the Newton decrement, with no matrix iterate: its one
        # eigensolve is the returned DensityMatrix's own check, whatever
        # the step count (5 here).
        data, ll_opt = self.sampled_mub_data()
        solves = []

        def counted(fn):
            def wrapped(*args, **kwargs):
                solves.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
        logliks = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = mle_estimate(data, logliks=logliks)
        monkeypatch.undo()
        assert abs(log_likelihood(data, est) - ll_opt) <= 1e-9
        assert len(solves) <= 1


def basis_records(m, n_plus, n_minus, time=1.0):
    """The records of the basis of Bloch vectors +-m (unit), both held for
    time, with n_plus and n_minus counts."""
    return [MeasurementRecord(PovmElement(from_stokes(np.array([1.0, *(sign * m)]))), time, n)
            for sign, n in ((1.0, n_plus), (-1.0, n_minus))]


def bloch_vector(rho: DensityMatrix) -> np.ndarray:
    return to_stokes(rho.matrix)[1:]


def no_line_search(*_):
    raise AssertionError("handed over to the line search")


class TestSpanNewton:
    """Counts on fewer than three directions: Newton's method on their span,
    as in the first two estimates of a random-basis run."""

    def test_one_basis_gives_its_count_ratio(self, rng, monkeypatch):
        # The likelihood is n+ ln(1 + x) + n- ln(1 - x) along m and flat
        # across it: the minimum-norm maximizer is x m with x the count ratio.
        monkeypatch.setattr(estimation, "_line_search", no_line_search)
        m = bloch_vector(random_pure_haar(rng))
        data = LikelihoodData(basis_records(m, 613, 387), 1000.0)
        logliks = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = mle_estimate(data, logliks=logliks)
        assert np.abs(bloch_vector(est) - (613 - 387) / 1000 * m).max() <= 1e-12
        assert len(logliks) - 1 <= 3

    def test_two_bases_reach_the_ball_optimum_in_their_plane(self, rng, monkeypatch):
        monkeypatch.setattr(estimation, "_line_search", no_line_search)
        m1, m2 = bloch_vector(random_pure_haar(rng)), bloch_vector(random_pure_haar(rng))
        assert 0.1 < abs(m1 @ m2) < 0.9
        recs = basis_records(m1, 700, 300) + basis_records(m2, 240, 260, time=0.5)
        data = LikelihoodData(tuple(recs), 1000.0)
        feasible, _ = bloch_ball_fit(recs, 1000.0)
        logliks = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = mle_estimate(data, logliks=logliks)
        assert log_likelihood(data, est) >= feasible - 1e-9
        assert abs(bloch_vector(est) @ np.cross(m1, m2)) <= 1e-12
        assert len(logliks) - 1 <= 3

    def test_optimum_on_the_sphere_goes_to_the_line_search(self, rng, monkeypatch):
        # No counts on -m: the optimum is m itself, which the Newton loop's
        # cut steps only approach.
        calls = spy_line_search(monkeypatch)
        m = bloch_vector(random_pure_haar(rng))
        est = mle_estimate(LikelihoodData(basis_records(m, 800, 0), 1000.0))
        assert calls == [MleOptions().max_iter]
        assert bloch_vector(est) @ m > 0.99

    def test_drift_off_the_span_goes_to_the_line_search(self, monkeypatch):
        # D held without counts adds I t x to the exposure term, which the
        # counted H record cannot balance: the optimum leans to -x, onto
        # the sphere.
        calls = spy_line_search(monkeypatch)
        data = LikelihoodData(
            (MeasurementRecord(H_PROJ, 1.0, 500), MeasurementRecord(D_PROJ, 1.0, 0)),
            1000.0)
        est = mle_estimate(data)
        assert calls == [MleOptions().max_iter]
        assert bloch_vector(est)[0] < 0


class TestMleOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            MleOptions(max_iter=0)

    def test_defaults(self):
        opts = MleOptions()
        assert opts.max_iter == 1000


# Property tests: transformations of the data that leave the likelihood's
# state dependence unchanged must leave the optimum unchanged. Estimates
# are compared by their log-likelihood on the original data. The data is
# the MUB set held for one time, as in a run's first iteration; with a
# time per record, near-pure states can exhaust max_iter far enough from
# the optimum to break the tolerance.
LL_TOL = 1e-6  # nats
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def datasets(draw):
    """Poisson counts of a pure or Bures-mixed qubit on the MUB set, with
    the generator that made them."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rho = (random_pure_haar if draw(st.booleans()) else random_bures_mixed)(rng)
    t = 10.0 ** rng.uniform(-1, 1)
    recs = tuple(MeasurementRecord(e, t, int(rng.poisson(1000.0 * born_probability(e, rho) * t)))
                 for e in mub_qubit())
    return LikelihoodData(recs, 1000.0), rng


def assert_same_optimum(data, est):
    assert abs(log_likelihood(data, est) - log_likelihood(data, mle_estimate(data))) <= LL_TOL


@PROPERTY_SETTINGS
@given(datasets())
def test_mle_unitarily_covariant(case):
    data, rng = case
    u = haar_unitary(rng)
    rotated = LikelihoodData(tuple(
        MeasurementRecord(PovmElement(quantum.hermitize(u @ r.element.matrix @ u.conj().T)),
                          r.time, r.counts) for r in data.records), data.intensity)
    est = mle_estimate(rotated).matrix
    assert_same_optimum(data, DensityMatrix(quantum.hermitize(u.conj().T @ est @ u)))


@PROPERTY_SETTINGS
@given(datasets(), st.permutations(range(6)))
def test_mle_invariant_under_record_permutation(case, order):
    data, _ = case
    shuffled = tuple(data.records[i] for i in order)
    assert_same_optimum(data, mle_estimate(LikelihoodData(shuffled, data.intensity)))


@PROPERTY_SETTINGS
@given(datasets(), st.floats(0.05, 0.95))
def test_mle_invariant_under_record_split(case, share):
    # Poisson additivity: (M, t, n) and the pair (M, s t, m), (M, (1-s) t, n - m)
    # carry the same state dependence for any m in [0, n].
    data, rng = case
    first, rest = data.records[0], data.records[1:]
    m = int(rng.integers(0, first.counts + 1))
    halves = (MeasurementRecord(first.element, share * first.time, m),
              MeasurementRecord(first.element, (1 - share) * first.time, first.counts - m))
    assert_same_optimum(data, mle_estimate(LikelihoodData(halves + rest, data.intensity)))


def haar_projectors(rng):
    """3 to 8 projectors onto Haar-random pure states."""
    return [PovmElement(random_pure_haar(rng).matrix) for _ in range(rng.integers(3, 9))]


def bures_records(elements, seed):
    """Poisson counts of a Bures-mixed state at I = 1000 on elements(rng),
    each record held for its own time, all drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    rho = random_bures_mixed(rng)
    recs = []
    for e in elements(rng):
        t = 10.0 ** rng.uniform(-1, 1)
        n = int(rng.poisson(1000.0 * born_probability(e, rho) * t))
        recs.append(MeasurementRecord(e, t, n))
    return recs


@pytest.mark.parametrize("elements", [lambda rng: mub_qubit(), haar_projectors],
                         ids=["mub", "haar"])
@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_mle_reaches_bloch_ball_optimum_on_bures_data(elements, seed):
    # A Bures-mixed state on the MUB set, or on a few Haar-random
    # projectors: where the optimum is interior, the estimate is as good
    # as scipy's BFGS on the Bloch-ball likelihood.
    recs = bures_records(elements, seed)
    optimum = bloch_ball_optimum(recs, 1000.0)
    assume(optimum is not None)
    data = LikelihoodData(tuple(recs), 1000.0)
    assert abs(log_likelihood(data, mle_estimate(data)) - optimum) <= 1e-9


@pytest.mark.xfail(strict=True, reason="the line search ends this boundary call at "
                   "max_iter, 0.0363 nats below a feasible point; a Newton step on "
                   "the sphere should reach the optimum")
@pytest.mark.filterwarnings("ignore:mle_estimate. max_iter")
def test_mle_reaches_boundary_optimum_of_haar_data():
    # Seed 239 of the haar family above: BFGS ends at |x| = 137, beyond
    # INTERIOR_X, near an optimum on the sphere, so the property test
    # leaves it out.
    recs = bures_records(haar_projectors, 239)
    feasible, _ = bloch_ball_fit(recs, 1000.0)
    data = LikelihoodData(tuple(recs), 1000.0)
    assert log_likelihood(data, mle_estimate(data)) >= feasible - 1e-9


class TestZeroTimeRecords:
    """A record held for t = 0 has n = 0 and adds exact zeros to the
    likelihood, its sums and its derivatives: placed between the MUB
    records, such records change no estimate or log-likelihood beyond
    round-off."""

    ZERO_TIME = (H_PROJ, D_PROJ, PovmElement(projector([0.6, 0.8j])))

    @classmethod
    def padded(cls, data):
        """data with a t = 0 record after each of its records."""
        recs = []
        for i, rec in enumerate(data.records):
            recs += [rec, MeasurementRecord(cls.ZERO_TIME[i % 3], 0.0, 0)]
        return LikelihoodData(tuple(recs), data.intensity)

    @pytest.mark.parametrize("rho, line_search", [
        (random_bures_mixed(np.random.default_rng(5)), False),
        (random_pure_haar(np.random.default_rng(5)), True)],
        ids=["interior", "boundary"])
    def test_estimate_and_loglik_unchanged(self, monkeypatch, rho, line_search):
        data = mub_records(rho, 1000.0)
        padded = self.padded(data)
        assert len(padded.records) == 2 * len(data.records)
        calls = spy_line_search(monkeypatch)
        lls, lls_padded = [], []
        est = mle_estimate(data, logliks=lls)
        est_padded = mle_estimate(padded, logliks=lls_padded)
        # The interior optimum ends in the Newton loop, the one on the
        # sphere in the line search.
        assert len(calls) == (2 if line_search else 0)
        assert lls_padded[-1] == pytest.approx(lls[-1], rel=1e-12)
        # On the sphere the likelihood is flat to its round-off over about
        # sqrt(round-off / N) ~ 1e-7 of arc: the zeros the t = 0 records add
        # regroup its sums, and the line search, which ends once no step
        # ascends above the round-off, stops within that arc.
        np.testing.assert_allclose(to_stokes(est_padded.matrix), to_stokes(est.matrix),
                                   rtol=1e-12, atol=1e-7 if line_search else 1e-12)
        assert fidelity(est_padded, est) == pytest.approx(1.0, abs=1e-12)
        for state in (est, rho, maximally_mixed()):
            assert log_likelihood(padded, state) == pytest.approx(
                log_likelihood(data, state), rel=1e-12)

    def test_zero_counts_loglik_unchanged(self):
        data = LikelihoodData(
            (MeasurementRecord(H_PROJ, 1.0, 0), MeasurementRecord(V_PROJ, 2.0, 0)), 10.0)
        lls, lls_padded = [], []
        for d, out in ((data, lls), (self.padded(data), lls_padded)):
            assert np.array_equal(mle_estimate(d, logliks=out).matrix, np.eye(2) / 2)
        assert lls_padded == pytest.approx(lls, rel=1e-12)
        assert lls == [-15.0]


class TestRegularizeFullRank:
    def test_mixed_state_unchanged(self):
        rho = maximally_mixed()
        assert np.allclose(regularize_full_rank(rho, 0.01).matrix, rho.matrix)

    def test_pure_state_arithmetic(self):
        reg = regularize_full_rank(DensityMatrix(np.diag([1.0, 0.0])), 0.01)
        assert np.allclose(reg.matrix, np.diag([0.995, 0.005]))

    def test_eigenvalue_floor(self, rng):
        for _ in range(50):
            rho = quantum.random_pure_haar(rng)
            reg = regularize_full_rank(rho, 1e-4)
            assert np.linalg.eigvalsh(reg.matrix)[0] >= 5e-5 - 1e-15

    def test_delta_range_checked(self):
        with pytest.raises(ValueError):
            regularize_full_rank(maximally_mixed(), 0.0)
        with pytest.raises(ValueError):
            regularize_full_rank(maximally_mixed(), 1.0)


# The estimator's arrays are pre-scaled by powers of two; these are the
# formulas it takes on the unscaled arrays, written out.
def _unscaled_value_and_step(data, lik, r):
    traces, bloch, times, counts = data.arrays()
    intensity, pos = data.intensity, counts > 0
    bloch_pos, counts_pos = bloch[pos], counts[pos]
    exposure = intensity * times @ traces
    drift = intensity * times @ bloch
    total_rate = intensity * times.sum()
    p = 0.5 * (traces[pos] + bloch_pos @ r)
    logs = np.log(intensity * times[pos] * np.maximum(p, estimation.PROB_CLAMP))
    ll = float(counts_pos @ logs) - 0.5 * (exposure + drift @ r)
    p = np.maximum(p, estimation.PROB_CLAMP)
    ratios = counts_pos / p
    noise = estimation._ROUNDOFF * (counts_pos @ np.abs(logs) + total_rate)
    grad = 0.5 * (ratios @ bloch_pos - drift)
    coords = bloch_pos if lik.span is None else bloch_pos @ lik.span
    products = coords[:, estimation._ROWS] * coords[:, estimation._COLS]
    hess = 0.25 * ((ratios / p) @ products)
    if lik.span is None:
        step, decrement = estimation._solve_spd(hess, grad)
        solvable = True
    else:
        step, decrement = estimation._solve_spd(hess + lik.pad, grad @ lik.span)
        step = None if step is None else lik.span @ step
        off = drift - lik.span @ (drift @ lik.span)
        lam = np.sqrt(drift @ drift)
        solvable = (0.5 * np.sqrt(off @ off) <= estimation._ROUNDOFF * total_rate
                    and exposure - lam > estimation._SUPPORT_RTOL * (exposure + lam))
    line_hess = 0.25 * (bloch_pos.T * (ratios / p)) @ bloch_pos
    return (ll, p, logs), (noise, step, decrement), solvable, (line_hess, grad)


def _same_bits(a, b):
    return a is b or np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), layout=st.sampled_from(["ball", "plane", "line"]))
def test_prescaled_likelihood_is_the_unscaled_formulas(seed, layout):
    # Halved and quartered arrays give, bit for bit, the value, the Newton
    # step and the solvability the unscaled formulas give, on data whose
    # counted Bloch vectors span the ball, a plane or a line.
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 40))
    m = rng.standard_normal((k, 3))
    if layout == "plane":
        m[:, 2] = 0.0
    elif layout == "line":
        m = np.outer(rng.choice([-1.0, 1.0], k), m[0])
    m /= np.linalg.norm(m, axis=1)[:, None]
    times = 10.0 ** rng.uniform(-1, 1, k) * (rng.random(k) > 0.1)
    counts = rng.poisson(50.0 * times * rng.random(k))
    assume(counts.sum() > 0)
    data = LikelihoodData((), 1000.0).extended_arrays(np.column_stack([np.ones(k), m]),
                                                       times, counts)
    lik = estimation._Likelihood(data, *data.arrays())
    r = rng.standard_normal(3)
    r *= 0.99 * rng.random() / np.linalg.norm(r)
    value, step, solvable, line = _unscaled_value_and_step(data, lik, r)
    got_value = lik.value(r)
    assert all(map(_same_bits, got_value, value))
    assert all(map(_same_bits, lik.step(*got_value[1:]), step))
    assert lik.solvable == solvable
    if lik.span is None:
        p_all = 0.5 * (data.arrays()[0] + data.arrays()[1] @ r)
        _, _, line_step, _ = lik.newton(p_all)
        try:
            want = np.linalg.solve(*line)
        except np.linalg.LinAlgError:
            want = None
        assert _same_bits(line_step, want)


_PAIR = np.array([[1.0, 0, 0, 1], [1.0, 0, 0, -1]])


@pytest.mark.parametrize("call, message", [
    (lambda: checked_records(_PAIR, [1.0, 1.0, 1.0], [1, 1]),
     "2 records but times of shape (3,) and counts of shape (2,)"),
    (lambda: checked_records(_PAIR[:1], [1.0], [1.0]), "record counts must be integers"),
    (lambda: checked_records([[2.0, 0, 0, 1]], [1.0], [1]),
     "record 0: record element must have unit trace, got 2.0"),
    (lambda: MeasurementRecord(mub_qubit()[0], np.inf, 0),
     "record time must be finite and >= 0, got inf"),
], ids=["shapes", "float-counts", "unit-trace", "record-time"])
def test_boundary_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
