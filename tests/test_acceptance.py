"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-3 and 8-9 share four 50-run campaigns to N_emit = 1e6 (cached
per session, runs fanned out over worker processes). Criteria 4-7 are
exactness suites; criterion 10 exercises the CLI end to end.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import numpy as np
import pytest

from tomosim import quantum
from tomosim.analysis import average_curves, efficiency_ratio, fit_power_law
from tomosim.cli import CampaignConfig, main, run_campaign
from tomosim.estimation import (
    LikelihoodData,
    MeasurementRecord,
    mle_estimate,
)
from tomosim.protocols import (
    complement_minimal,
    complement_to_basis,
    normalize_with_time,
    rank_preserving_map,
)
from tomosim.quantum import (
    PovmElement,
    fidelity,
    from_stokes,
    mub_qubit,
    projector,
    random_bures_mixed,
    random_pure_haar,
)
from tomosim.simulator import Schedule, SourceModel
from conftest import born_probability, numeric_rank, regularize_full_rank

RUNS = 50
N_MAX = 10 ** 6
SEED = 424242

_CAMPAIGN_CACHE = {}


def campaign(states: str, protocols: tuple, random_v: bool = False):
    key = (states, protocols, random_v)
    if key not in _CAMPAIGN_CACHE:
        cfg = CampaignConfig(
            protocols=protocols, states=states, runs=RUNS, seed=SEED,
            schedule=Schedule(100, 1.25, N_MAX),
            source=SourceModel(1000.0), random_v=random_v,
        )
        traces = {p: [None] * RUNS for p in protocols}
        for protocol, run, trace, *_ in run_campaign(cfg):
            traces[protocol][run] = trace
        _CAMPAIGN_CACHE[key] = traces
    return _CAMPAIGN_CACHE[key]


@pytest.fixture(scope="module")
def pure_campaign():
    return campaign("pure", ("random", "eigen", "rankp-nc", "rankp-b", "rankp-m"))


@pytest.fixture(scope="module")
def mixed_campaign():
    return campaign("bures", ("eigen", "rankp-nc", "rankp-b", "rankp-m"))


@pytest.fixture(scope="module")
def random_v_campaign():
    return campaign("pure", ("rankp-nc",), random_v=True)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def beta(traces, window):
    return fit_power_law(average_curves(traces), window).beta


def test_criterion_1_pure_state_exponents(pure_campaign):
    b_random = beta(pure_campaign["random"], (1e3, 1e6))
    b_eigen = beta(pure_campaign["eigen"], (1e3, 1e6))
    b_nc = beta(pure_campaign["rankp-nc"], (1e3, 1e6))
    ok = (-0.65 <= b_random <= -0.40) and (-1.15 <= b_eigen <= -0.85) \
        and (-1.15 <= b_nc <= -0.85)
    report(1, ok,
           f"pure-state betas over [1e3,1e6]: random={b_random:+.3f} "
           f"(in [-0.65,-0.40]), eigen={b_eigen:+.3f}, rankp-nc={b_nc:+.3f} "
           f"(in [-1.15,-0.85])")


def test_criterion_2_mixed_state_asymptote(mixed_campaign):
    details = []
    ok = True
    for proto in ("eigen", "rankp-nc"):
        curve = average_curves(mixed_campaign[proto])
        i6 = int(np.argmin(np.abs(curve.n - 1e6)))
        assert abs(curve.n[i6] - 1e6) < 1.0
        ratio = curve.mean[i6] / (2.25 / 1e6)
        b = fit_power_law(curve, (1e3, 1e6)).beta
        ok = ok and (0.8 <= ratio <= 3.0) and (-1.1 <= b <= -0.85)
        details.append(f"{proto}: d(1e6)={ratio:.2f}x(9/4N), beta={b:+.3f}")
    report(2, ok, "mixed-state asymptote: " + "; ".join(details))


def test_criterion_3_complementation_ratios(pure_campaign, mixed_campaign):
    def fit26(traces):
        return fit_power_law(average_curves(traces), (1e2, 1e6))

    r_m_nc_pure = efficiency_ratio(
        fit26(pure_campaign["rankp-nc"]), fit26(pure_campaign["rankp-m"]), 1e2, 1e6)
    r_b_nc_pure = efficiency_ratio(
        fit26(pure_campaign["rankp-nc"]), fit26(pure_campaign["rankp-b"]), 1e2, 1e6)
    r_m_nc_mixed = efficiency_ratio(
        fit26(mixed_campaign["rankp-nc"]), fit26(mixed_campaign["rankp-m"]), 1e2, 1e6)
    r_b_eigen_mixed = efficiency_ratio(
        fit26(mixed_campaign["eigen"]), fit26(mixed_campaign["rankp-b"]), 1e2, 1e6)
    ok = (abs(r_m_nc_pure - 1.83) <= 0.35 and abs(r_b_nc_pure - 1.00) <= 0.15
          and abs(r_m_nc_mixed - 1.43) <= 0.30 and abs(r_b_eigen_mixed - 1.07) <= 0.20)
    report(3, ok,
           f"ratios over [1e2,1e6]: M/NC pure={r_m_nc_pure:.2f} (1.83+-0.35), "
           f"B/NC pure={r_b_nc_pure:.2f} (1.00+-0.15), "
           f"M/NC mixed={r_m_nc_mixed:.2f} (1.43+-0.30), "
           f"B/Eigen mixed={r_b_eigen_mixed:.2f} (1.07+-0.20)")


def mub_four_vectors():
    """The (6, 4) four-vectors (Tr M, Tr sigma M) of the MUB projectors."""
    return quantum.to_stokes(np.array([e.matrix for e in mub_qubit()]))


def test_criterion_4_transformation_exactness():
    # The transfer matrix next_plan applies, checked on the matrices
    # from_stokes rebuilds: L M L^dag for each MUB element, and
    # lmap rho_reg lmap^dag, whose four-vector the transpose maps.
    rng = np.random.default_rng(11)
    mub = mub_four_vectors()
    worst_map = 0.0
    worst_prob = 0.0
    ranks_ok = True
    for _ in range(1000):
        rho = random_pure_haar(rng) if rng.uniform() < 0.5 \
            else random_bures_mixed(rng)
        transfer = rank_preserving_map(rho, 1e-4)
        reg = regularize_full_rank(rho, 1e-4)
        mapped = from_stokes(transfer.T @ reg.stokes)
        worst_map = max(worst_map, float(np.max(np.abs(mapped - np.eye(2) / 2))))
        for vec, out in zip(mub, from_stokes(mub @ transfer.T)):
            p = float(np.einsum("ij,ji->", out, reg.matrix).real)
            worst_prob = max(worst_prob, abs(p - vec[0] / 2))
            ranks_ok = ranks_ok and numeric_rank(out, 1e-8) == 1
    ok = worst_map <= 1e-9 and worst_prob <= 1e-9 and ranks_ok
    report(4, ok,
           f"1000 estimators: max|L rho L - 1/D|={worst_map:.2e} (<=1e-9), "
           f"max|Tr(Mnew rho)-TrM/D|={worst_prob:.2e} (<=1e-9), ranks all 1: {ranks_ok}")


def test_criterion_5_completion_exactness():
    # The completions next_plan applies to the transformed four-vectors,
    # checked on the matrices from_stokes rebuilds.
    rng = np.random.default_rng(13)
    mub = mub_four_vectors()
    worst_m = 0.0
    worst_b = 0.0
    for _ in range(1000):
        rho = random_pure_haar(rng) if rng.uniform() < 0.5 \
            else random_bures_mixed(rng)
        transformed = mub @ rank_preserving_map(rho, 1e-4).T
        total = from_stokes(complement_minimal(transformed)).sum(axis=0)
        worst_m = max(worst_m, float(np.max(np.abs(total - np.eye(2)))))
        for vec in transformed:
            plan = normalize_with_time(complement_to_basis(vec[None]), ((0, 1),))
            group_total = from_stokes(plan.vectors).sum(axis=0)
            worst_b = max(worst_b, float(np.max(np.abs(group_total - np.eye(2)))))
    ok = worst_m <= 1e-9 and worst_b <= 1e-9
    report(5, ok,
           f"1000 estimators: minimal-completion residual={worst_m:.2e}, "
           f"basis-completion residual={worst_b:.2e} (both <=1e-9)")


def test_criterion_6_mle_suite():
    rng = np.random.default_rng(17)
    mub = mub_qubit()

    monotone_ok = True
    for _ in range(100):
        rho = random_bures_mixed(rng)
        recs = [MeasurementRecord(e, 1.0, int(rng.poisson(
            1500.0 * born_probability(e, rho)))) for e in mub]
        lls = []
        mle_estimate(LikelihoodData(tuple(recs), 1500.0), logliks=lls)
        monotone_ok = monotone_ok and bool(np.all(np.diff(lls) >= -1e-9))

    worst_fid = 1.0
    for _ in range(100):
        rho = regularize_full_rank(random_bures_mixed(rng), 0.02)
        recs = [MeasurementRecord(e, 1.0, int(round(
            10 ** 7 * born_probability(e, rho)))) for e in mub]
        est = mle_estimate(LikelihoodData(tuple(recs), 10 ** 7.0))
        worst_fid = min(worst_fid, fidelity(est, rho))

    h = PovmElement(projector(quantum.KET_H))
    v = PovmElement(projector(quantum.KET_V))
    est = mle_estimate(LikelihoodData(
        (MeasurementRecord(h, 1.0, 700), MeasurementRecord(v, 1.0, 300)), 1000.0))
    diag_err = max(abs(est.matrix[0, 0].real - 0.7),
                   abs(est.matrix[1, 1].real - 0.3),
                   abs(est.matrix[0, 1]))

    ok = monotone_ok and worst_fid >= 1 - 1e-6 and diag_err <= 1e-6
    report(6, ok,
           f"monotone ascent on 100 datasets: {monotone_ok}; noiseless "
           f"consistency worst fidelity={worst_fid:.8f} (>=1-1e-6); "
           f"diagonal 700/300 error={diag_err:.2e} (<=1e-6)")


class _SyntheticTrace:
    def __init__(self, alpha, beta):
        self.n = np.geomspace(1e2, 1e6, 41)
        self.d = alpha * self.n ** beta

    def curve_points(self):
        return self.n, self.d


def test_criterion_7_analysis_suite():
    curve = average_curves([_SyntheticTrace(2.25, -1.0)] * 2)
    fit = fit_power_law(curve, (1e2, 1e6))
    resid = float(np.max(np.abs(
        np.log(curve.mean) - np.log(fit.alpha * curve.n ** fit.beta))))
    self_ratio = efficiency_ratio(fit, fit, 1e2, 1e6)

    fit_b = fit_power_law(average_curves([_SyntheticTrace(5.0, -0.8)] * 2), (1e2, 1e6))
    anti = efficiency_ratio(fit, fit_b, 1e2, 1e6) * efficiency_ratio(fit_b, fit, 1e2, 1e6)

    ok = resid < 1e-9 and abs(self_ratio - 1.0) <= 1e-12 and abs(anti - 1.0) <= 1e-12
    report(7, ok,
           f"power-law recovery residual={resid:.2e} (<1e-9); R(f,f)={self_ratio}; "
           f"antisymmetry product={anti}")


def test_criterion_8_incomplete_measurement_accounting(pure_campaign):
    nc_ok = True
    worst_ratio = 0.0
    for tf in pure_campaign["rankp-nc"]:
        mask = tf.n_emit >= 1e5
        ratio = float(np.max(tf.n_det[mask] / tf.n_emit[mask]))
        worst_ratio = max(worst_ratio, ratio)
        nc_ok = nc_ok and ratio < 0.9

    eigen_ok = True
    worst_dev = 0.0
    for tf in pure_campaign["eigen"]:
        dev = float(np.max(np.abs(tf.n_det - tf.n_emit) / np.sqrt(tf.n_emit)))
        worst_dev = max(worst_dev, dev)
        eigen_ok = eigen_ok and dev <= 5.0

    ok = nc_ok and eigen_ok
    report(8, ok,
           f"rankp-nc pure: worst N_det/N_emit={worst_ratio:.3f} (<0.9 at N>=1e5); "
           f"eigen: worst |N_det-N_emit|={worst_dev:.2f} sigma (<=5)")


def test_criterion_9_unitary_freedom(pure_campaign, random_v_campaign):
    base = average_curves(pure_campaign["rankp-nc"])
    randv = average_curves(random_v_campaign["rankp-nc"])
    b_base = fit_power_law(base, (1e3, 1e6)).beta
    b_randv = fit_power_law(randv, (1e3, 1e6)).beta

    n_common = np.intersect1d(base.n, randv.n)
    idx_b = np.searchsorted(base.n, n_common)
    idx_r = np.searchsorted(randv.n, n_common)
    within = np.abs(base.mean[idx_b] - randv.mean[idx_r]) \
        <= 2 * (base.std_of_mean[idx_b] + randv.std_of_mean[idx_r])
    frac = float(np.mean(within))

    ok = abs(b_base - b_randv) <= 0.1 and frac >= 0.9
    report(9, ok,
           f"random-V vs identity-V: |dbeta|={abs(b_base - b_randv):.3f} (<=0.1), "
           f"curves within 2 std-of-mean bands at {100 * frac:.0f}% of points (>=90%)")


def test_criterion_10_reproducibility(tmp_path):
    args = ["simulate", "--protocol", "rankp-b,eigen", "--states", "pure",
            "--runs", "2", "--n-max", "3e3", "--seed", "99", "--workers", "2"]
    out1, out2 = tmp_path / "one", tmp_path / "two"
    rc1 = main(args + ["--out", str(out1)])
    rc2 = main(args + ["--out", str(out2)])
    files1 = sorted(p.name for p in out1.glob("*.csv"))
    files2 = sorted(p.name for p in out2.glob("*.csv"))
    same = files1 == files2 and all(
        (out1 / f).read_bytes() == (out2 / f).read_bytes() for f in files1)
    ok = rc1 == 0 and rc2 == 0 and len(files1) == 6 and same
    report(10, ok,
           f"two seeded invocations wrote {len(files1)} files, byte-identical: {same}")
