#!/usr/bin/env python3
"""Plot aggregated convergence-curve files against the reference bounds.

Reads the curve_*.csv files that `tomosim simulate` writes (and a replay's
replay_curve.csv) and renders a log-log figure with two guide lines: the
mixed-state bound 9/(4N) and 1/sqrt(N), the rate of a non-adaptive scheme
on pure states. Requires matplotlib (not a core dependency).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from tomosim.cli import read_curve_file


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("curves", nargs="+", help="curve_*.csv files")
    ap.add_argument("--out", default="curves.png")
    args = ap.parse_args()

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("plot_curves.py needs matplotlib (pip install matplotlib)",
              file=sys.stderr)
        return 1

    fig, ax = plt.subplots(figsize=(7, 5))
    n_lo, n_hi = np.inf, 0.0
    for path in args.curves:
        curve, meta = read_curve_file(path)
        label = meta.get("protocol", Path(path).stem)
        ax.plot(curve.n, curve.mean, label=label)
        ax.fill_between(curve.n, curve.mean - curve.std_of_mean,
                        curve.mean + curve.std_of_mean, alpha=0.25)
        n_lo, n_hi = min(n_lo, curve.n[0]), max(n_hi, curve.n[-1])

    guide = np.geomspace(n_lo, n_hi, 50)
    ax.plot(guide, 9 / (4 * guide), "k-.", lw=1, label="9/(4N)")
    ax.plot(guide, 1 / np.sqrt(guide), "k:", lw=1, label="1/sqrt(N)")
    ax.set_xscale("log")
    ax.set_yscale("log")
    ax.set_xlabel("N (emitted copies)")
    ax.set_ylabel("squared Bures distance")
    ax.legend()
    fig.tight_layout()
    fig.savefig(args.out, dpi=150)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
