"""Checks on the program's trace CSVs, and their fingerprint."""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

COLUMNS = ("protocol", "run_id", "seed", "iteration", "n_emit", "n_det",
           "d_bures_sq", "fidelity", "loglik")


def read_rows(path: Path) -> list[dict[str, float]]:
    """Rows of a trace CSV with numeric columns as floats."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader)) != COLUMNS:
            raise ValueError(f"{path.name}: unexpected header")
        return [{k: float(v) for k, v in zip(COLUMNS[3:], row[3:])}
                for row in reader]


def trace_problems(path: Path, n_max: float) -> list[str]:
    """Everything wrong with one trace CSV; empty when it passes.

    Every value finite; 0 <= d_B^2 <= 2; 0 <= F <= 1; d_B^2 = 2(1 - sqrt F)
    within 1e-9; n_emit never falls and ends at n_max or beyond.
    """
    try:
        rows = read_rows(path)
    except (OSError, ValueError, StopIteration) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    if not rows:
        return [f"{path.name}: no rows"]
    out = []
    for i, r in enumerate(rows):
        where = f"{path.name} row {i}"
        if not all(math.isfinite(v) for v in r.values()):
            out.append(f"{where}: non-finite value")
            continue
        d, f = r["d_bures_sq"], r["fidelity"]
        if not 0.0 <= d <= 2.0:
            out.append(f"{where}: d_B^2 = {d!r} outside [0, 2]")
        if not 0.0 <= f <= 1.0:
            out.append(f"{where}: F = {f!r} outside [0, 1]")
        elif abs(d - 2.0 * (1.0 - math.sqrt(f))) > 1e-9:
            out.append(f"{where}: d_B^2 != 2(1 - sqrt F)")
        if i and r["n_emit"] < rows[i - 1]["n_emit"]:
            out.append(f"{where}: n_emit falls")
    if rows[-1]["n_emit"] < n_max * (1.0 - 1e-12):
        out.append(f"{path.name}: last n_emit {rows[-1]['n_emit']!r} < {n_max!r}")
    return out


def fingerprint(dirs) -> str:
    """sha256 over the names and bytes of every CSV under `dirs`, in order."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(Path(d).glob("*.csv")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()
