"""Frozen estimator corpus: no estimator change may lower the optimum found.

`tests/data/corpus_*.csv` are record streams of every protocol on a pure
and a Bures-mixed state (N_emit up to 1e4), and `corpus_loglik.csv` holds
the log-likelihood that the diluted fixed-point estimator with a 60-halving
line search reached at each `replay_counts` prefix of them. See
`tests/data/make_mle_corpus.py`.
"""

import csv
import warnings
from collections import defaultdict
from pathlib import Path

import pytest

from tomosim.estimation import LikelihoodData, log_likelihood, mle_estimate
from tomosim.protocols import PROTOCOLS
from tomosim.simulator import read_records, replay_counts, write_records, write_trace_file
from conftest import bloch_ball_optimum

DATA = Path(__file__).parent / "data"
LL_TOL = 1e-9  # nats


def _expected():
    out = defaultdict(list)
    with open(DATA / "corpus_loglik.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            out[row["stream"]].append((int(row["iteration"]), float(row["loglik"])))
    return dict(out)


EXPECTED = _expected()


def test_corpus_covers_every_protocol_and_family():
    assert sorted(EXPECTED) == sorted(f"corpus_{p}_{f}.csv"
                                      for p in PROTOCOLS for f in ("pure", "bures"))


@pytest.mark.parametrize("stream", sorted(EXPECTED))
def test_loglik_not_below_frozen_optimum(stream):
    grouped, _, _ = read_records(DATA / stream)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)    # max_iter on pure states
        trace = replay_counts(grouped)
    iterations, frozen = zip(*EXPECTED[stream])
    assert tuple(trace.iteration) == iterations
    shortfall = [f - ll for f, ll in zip(frozen, trace.loglik)]
    assert max(shortfall) <= LL_TOL, (stream, max(shortfall))


def test_default_call_reaches_optimum_of_short_stop_prefix():
    # Exposure groups 0-26 (30 records) of this stream: an optimum that a
    # stop on a small trace-norm step misses by 2.345 nats.
    grouped, _, intensity = read_records(DATA / "corpus_rankp-nc_bures.csv")
    records = tuple(r for gid, r in grouped if gid <= 26)
    data = LikelihoodData(records, intensity)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ll = log_likelihood(data, mle_estimate(data))
    optimum = bloch_ball_optimum(records, intensity)
    assert optimum is not None, "optimum on the sphere"
    assert abs(ll - optimum) <= 1e-6


def test_rewritten_corpus_replays_to_the_same_trace(tmp_path):
    # The corpus holds an older file's 11-field matrix lines; write_records
    # rewrites them as 7-field four-vector lines, which replay the same.
    legacy = read_records(DATA / "corpus_eigen_bures.csv")[0]
    write_records(tmp_path / "rewritten.csv", legacy)
    rewritten = read_records(tmp_path / "rewritten.csv")[0]
    for stream, name in ((legacy, "legacy"), (rewritten, "rewritten")):
        write_trace_file(tmp_path / f"{name}_trace.csv", replay_counts(stream))
    assert (tmp_path / "legacy_trace.csv").read_bytes() == (
        tmp_path / "rewritten_trace.csv").read_bytes()
