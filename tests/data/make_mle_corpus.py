"""Write the frozen estimator corpus used by tests/test_mle_corpus.py.

    PYTHONPATH=src python tests/data/make_mle_corpus.py tests/data

writes one record stream per (protocol, state family), `corpus_<protocol>_
<family>.csv` (the `write_records` format, N_emit up to 1e4 at I = 1000),
and `corpus_loglik.csv`: the log-likelihood of the estimate at every
`replay_counts` prefix of each stream. The expected values gate estimator
changes: a new estimator must reach at least the same log-likelihood,
so they are written once, by the estimator being replaced, and kept.
"""

import sys
from pathlib import Path

import numpy as np

from tomosim.protocols import PROTOCOLS
from tomosim.quantum import random_bures_mixed, random_pure_haar
from tomosim.simulator import (Schedule, SourceModel, _fmt, read_records,
                               replay_counts, run_tomography, write_records)

FAMILIES = {"pure": random_pure_haar, "bures": random_bures_mixed}
INTENSITY = 1000.0
# Growth 2 keeps each stream to eight exposure groups below N = 1e4.
SCHEDULE = Schedule(initial_budget=100, growth=2.0, n_max=10 ** 4)


def stream_names():
    return [f"corpus_{p}_{f}.csv" for p in PROTOCOLS for f in FAMILIES]


def main(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    rows = ["stream,iteration,loglik"]
    for k, name in enumerate(stream_names()):
        _, protocol, family = Path(name).stem.split("_")
        rng = np.random.default_rng(1000 + k)
        rho = FAMILIES[family](rng)
        _, records = run_tomography(protocol, rho, SourceModel(INTENSITY),
                                    SCHEDULE, 2000 + k)
        write_records(out / name, records)
        # Replay what was written, so the expected values belong to the file.
        grouped, _, _ = read_records(out / name)
        trace = replay_counts(grouped)
        rows += [f"{name},{i},{_fmt(ll)}" for i, ll in zip(trace.iteration, trace.loglik)]
    (out / "corpus_loglik.csv").write_text("\n".join(rows) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]))
