#!/usr/bin/env python3
"""Reproduce the headline convergence and efficiency-ratio results.

Runs pure-state and Bures-mixed campaigns for all five protocols, fits
the averaged convergence curves and prints the power-law exponents plus
the complementation efficiency ratios. Desk scale by default (12 runs to
N = 1e5); pass --full for the 50-run, N = 1e6 version used by the
acceptance suite. With --workers 2 on a 2-vCPU VM, desk scale takes about
9 s of wall time and --full about 51 s.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from tomosim.analysis import average_curves, efficiency_ratio, fit_power_law
from tomosim.cli import CampaignConfig, _parse_positive_int, cmd_simulate, read_trace_file
from tomosim.simulator import Schedule


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--full", action="store_true",
                    help="50 runs to N=1e6 (acceptance scale)")
    ap.add_argument("--out", default="results/reproduction")
    ap.add_argument("--seed", type=int, default=424242)
    ap.add_argument("--workers", type=_parse_positive_int, default=None)
    args = ap.parse_args()

    runs = 50 if args.full else 12
    n_max = 10 ** 6 if args.full else 10 ** 5
    out = Path(args.out)
    t0 = time.time()

    curves = {}
    for states in ("pure", "bures"):
        cfg = CampaignConfig(
            protocols=("random", "eigen", "rankp-nc", "rankp-b", "rankp-m"),
            states=states, runs=runs, seed=args.seed,
            schedule=Schedule(n_max=n_max),
            out_dir=out / states,
        )
        rc = cmd_simulate(cfg, workers=args.workers)
        if rc != 0:
            return rc
        for proto in cfg.protocols:
            traces = [read_trace_file(p) for p in
                      sorted((out / states).glob(f"trace_{proto}_*.csv"))]
            curves[(states, proto)] = average_curves(traces)
        print(f"{states} campaigns done ({time.time() - t0:.0f}s)")

    window = (1e2, n_max)
    fits = {k: fit_power_law(c, window) for k, c in curves.items()}

    print(f"\npower-law fits d_B^2 = alpha * N^beta over [{window[0]:g}, {window[1]:g}]:")
    for (states, proto), f in sorted(fits.items()):
        print(f"  {states:5s} {proto:9s} alpha={f.alpha:8.3f}  "
              f"beta={f.beta:+.3f} +- {f.beta_err:.3f}")

    n1, n2 = window
    print("\nmean accuracy ratios (geometric mean of fitted-curve ratios at the edges):")
    for label, a, b, paper in (
        ("RankP-M vs RankP-NC, pure ", ("pure", "rankp-m"), ("pure", "rankp-nc"), 1.83),
        ("RankP-B vs RankP-NC, pure ", ("pure", "rankp-b"), ("pure", "rankp-nc"), 0.986),
        ("RankP-M vs RankP-NC, mixed", ("bures", "rankp-m"), ("bures", "rankp-nc"), 1.43),
        ("RankP-B vs Eigen,    mixed", ("bures", "rankp-b"), ("bures", "eigen"), 1.07),
    ):
        r = efficiency_ratio(fits[b], fits[a], n1, n2)
        print(f"  {label}: {r:5.2f}   (reference {paper})")

    for states, proto in (("bures", "eigen"), ("bures", "rankp-nc")):
        c = curves[(states, proto)]
        i = int(np.argmin(np.abs(c.n - n_max)))
        print(f"\n  {proto} mixed at N={c.n[i]:.0f}: mean d_B^2 = {c.mean[i]:.3e} "
              f"= {c.mean[i] / (9 / (4 * c.n[i])):.2f} x (9/4N)")
    print(f"\ntotal {time.time() - t0:.0f}s; files under {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
