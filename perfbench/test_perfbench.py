"""Self-tests of the benchmark's own pieces.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import streams  # noqa: E402
from spans import Recorder, layer_metrics, self_times  # noqa: E402


def test_self_times_subtract_direct_children_only():
    #      name  start end parent op
    spans = [["a", 0.0, 10.0, -1, 0],
             ["b", 1.0, 4.0, 0, 0],
             ["c", 5.0, 6.0, 0, 0],
             ["d", 2.0, 3.0, 1, 0],
             ["b", 12.0, 13.0, -1, 1]]
    own = self_times(spans)
    assert own == {"a": 6.0, "b": 3.0, "c": 1.0, "d": 1.0}
    assert sum(own.values()) == 11.0  # the time covered by root spans


def test_kind_rate_caps_each_kind_and_weighs_kinds_equally():
    # kind a: nine operations, one far out; kind b: five operations
    ops = [run.Op("a", t) for t in (1.0,) * 8 + (50.0,)] + [run.Op("b", 3.0)] * 5
    assert run.capped_mean([1.0] * 8 + [50.0]) == 10.0 / 9   # 50 counts as 2
    assert run.kind_rate(ops, "seconds") == pytest.approx((10.0 / 9 * 3.0) ** -0.5)
    assert hostspeed.kernel_seconds() > 0


def test_layer_times_and_other_add_up_to_wall():
    rec = Recorder()
    rec.spans = [["cli.command", 0.5, 9.0, -1, -1],
                 ["simulator.loop", 1.0, 8.0, 0, 0],
                 ["estimation.mle", 2.0, 7.0, 1, 0]]
    rec.mle_iters = [10, 30]
    out = layer_metrics(rec, wall=10.0)
    assert out["estimation.mle_s"] == 5.0
    assert out["simulator.loop_s"] == 2.0
    assert out["cli.command_s"] == 1.5
    assert out["other_s"] == 1.5
    assert out["estimation.mle_iters"] == 40
    assert out["estimation.s_per_iter"] == 5.0 / 40


def _interior_data(seed):
    """Many counts on the six MUB projectors of a mixed qubit: the optimum
    is the interior point the counts invert to."""
    rng = np.random.default_rng(seed)
    r_true = 0.6 * streams._unit(rng.standard_normal(3))
    m = np.array([s * a for a in np.eye(3) for s in (1.0, -1.0)])
    t = np.full(6, 2.0)
    n = rng.poisson(1000.0 * 0.5 * (1 + m @ r_true) * t)
    return m, t, n


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reference_agrees_with_mle_estimate_on_interior_optimum(seed):
    from tomosim.estimation import (LikelihoodData, MeasurementRecord,
                                    log_likelihood, mle_estimate)
    from tomosim.quantum import PovmElement

    m, t, n = _interior_data(seed)
    data = LikelihoodData(tuple(
        MeasurementRecord(PovmElement(reference.from_bloch(mm)), tt, int(nn))
        for mm, tt, nn in zip(m, t, n)), 1000.0)
    est = mle_estimate(data)
    program = log_likelihood(data, est)
    best, r = reference.optimum(reference.Likelihood(m, t, n, 1000.0))
    assert abs(best - program) < 1e-6
    assert np.linalg.norm(r - reference.bloch(est.matrix)) < 1e-5
    assert np.linalg.norm(r) < 1.0


def test_reference_not_below_scipy():
    from scipy.optimize import minimize

    for seed in range(3):
        rng = np.random.default_rng(seed)
        st = streams.make_stream(streams.STYLES[seed], 3e3, rng)
        lik = reference.Likelihood(*st.prefix(len(st.groups) - 1), streams.INTENSITY)
        best, _ = reference.optimum(lik)
        res = minimize(lambda x: -lik.value(x), np.zeros(3), method="SLSQP",
                       jac=lambda x: -lik.grad_hess(x)[0],
                       constraints=[{"type": "ineq", "fun": lambda x: 1 - x @ x}])
        x = res.x / max(1.0, np.linalg.norm(res.x))  # SLSQP may step just outside
        assert best >= lik.value(x) - 1e-9


def test_streams_are_deterministic_per_seed(tmp_path):
    def written(seed):
        rng = np.random.default_rng(seed)
        out = []
        for i, style in enumerate(streams.STYLES):
            path = tmp_path / f"{seed}_{i}.txt"
            streams.write_stream(path, streams.make_stream(style, 2e3, rng))
            out.append(path.read_bytes())
        return out

    assert written(5) == written(5)
    assert written(5) != written(6)


def test_streams_replay_through_the_program(tmp_path):
    from tomosim.simulator import read_records

    rng = np.random.default_rng(0)
    for style in streams.STYLES:
        st = streams.make_stream(style, 2e3, rng)
        streams.write_stream(tmp_path / "s.txt", st)
        grouped, dim, intensity = read_records(tmp_path / "s.txt")
        assert (dim, intensity) == (2, streams.INTENSITY)
        assert len(grouped) == sum(len(g) for g in st.groups)
        assert [r.record.counts for r in grouped] == [n for g in st.groups for *_, n in g]


def _trace_csv(path, rows):
    lines = [",".join(checks.COLUMNS)]
    lines += [f"random,0,0,{i},{ne!r},0,{d!r},{f!r},-1.5" for i, (ne, d, f) in enumerate(rows)]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_trace_checks(tmp_path):
    good = [(100.0, 2 * (1 - 0.9 ** 0.5), 0.9), (200.0, 0.0, 1.0)]
    assert checks.trace_problems(_trace_csv(tmp_path / "g.csv", good), 200.0) == []
    assert checks.trace_problems(_trace_csv(tmp_path / "s.csv", good), 300.0)
    falls = [(200.0, 0.0, 1.0), (100.0, 0.0, 1.0)]
    assert checks.trace_problems(_trace_csv(tmp_path / "f.csv", falls), 100.0)
    bad_f = [(100.0, 0.0, 1.5)]
    assert checks.trace_problems(_trace_csv(tmp_path / "b.csv", bad_f), 100.0)
    mismatch = [(100.0, 0.1, 1.0)]
    assert checks.trace_problems(_trace_csv(tmp_path / "m.csv", mismatch), 100.0)
    nan = [(100.0, float("nan"), 1.0)]
    assert checks.trace_problems(_trace_csv(tmp_path / "n.csv", nan), 100.0)
