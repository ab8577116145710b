"""Command-line surface: simulate | analyze | replay.

Runs simulation campaigns fanned out over worker processes, aggregates
and fits convergence curves, and replays recorded count streams. All
outputs are flat delimiter-separated text files; floats carry 17
significant digits so every file round-trips bit-exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import warnings
from contextlib import closing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from . import __version__
from .analysis import (
    ConvergenceCurve,
    average_curves,
    efficiency_ratio,
    fit_power_law,
    gill_massar_bound,
)
from .estimation import MleOptions
from .protocols import DEFAULT_DELTA, PROTOCOLS
from .quantum import (
    DensityMatrix,
    random_bures_mixed,
    random_pure_haar,
    require_qubit,
)
from .simulator import (
    RecordStream,
    Schedule,
    SourceModel,
    Trace,
    _fmt,
    _naming,
    _numbered_lines,
    _qubit_matrix,
    read_records,
    read_trace_file,
    replay_counts,
    run_tomography,
    write_records,
    write_trace_file,
)

OUTPUT_ENV_VAR = "TOMOSIM_OUT"


# ---------------------------------------------------------------------------
# Curve files


def _write_table(path, head: list[str], columns) -> None:
    """The head lines, then one line per index of the columns, their values
    at that index."""
    rows = (",".join(_fmt(c[i]) for c in columns) for i in range(len(columns[0])))
    Path(path).write_text("\n".join([*head, *rows]) + "\n")


def write_curve_file(path, curve: ConvergenceCurve, meta: dict) -> None:
    _write_table(path, [*(f"# {k}={v}" for k, v in meta.items()), "n,mean,std_of_mean"],
                 [curve.n, curve.mean, curve.std_of_mean])


def read_curve_file(path) -> tuple[ConvergenceCurve, dict]:
    """Parse a curve file; returns the curve and its metadata. An error
    names the file, and the line where it has one."""
    meta: dict[str, str] = {}
    rows = []
    runs = 0
    header_seen = False
    for no, ln in _numbered_lines(path):
        with _naming(f"{path}:{no}"):
            if ln.startswith("#"):
                key, _, value = ln[1:].strip().partition("=")
                meta[key] = value
                if key == "runs":
                    runs = int(value)
            elif ln == "n,mean,std_of_mean":
                header_seen = True
            else:
                rows.append([float(x) for x in ln.split(",")])
                if len(rows[-1]) != 3:
                    raise ValueError(f"curve row {ln!r} needs 3 values")
    if not header_seen or not rows:
        raise ValueError(f"{path}: not a curve file")
    arr = np.array(rows)
    with _naming(str(path)):
        return ConvergenceCurve(arr[:, 0], arr[:, 1], arr[:, 2], runs=runs), meta


# ---------------------------------------------------------------------------
# Campaigns


@dataclass
class CampaignConfig:
    protocols: tuple[str, ...]
    states: str = "pure"          # pure | bures | path to a state file
    runs: int = 50
    seed: int = 0
    schedule: Schedule = field(default_factory=Schedule)
    source: SourceModel = field(default_factory=lambda: SourceModel(1000.0))
    delta: float = DEFAULT_DELTA
    random_v: bool = False
    out_dir: Path = Path("results")

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.protocols:
            raise ValueError(f"no protocol given; expected a subset of {PROTOCOLS}")
        for i, p in enumerate(self.protocols):
            if p not in PROTOCOLS:
                raise ValueError(f"unknown protocol {p!r}; expected one of {PROTOCOLS}")
            if p in self.protocols[:i]:
                raise ValueError(f"protocol {p!r} given more than once")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.states not in ("pure", "bures"):
            if not Path(self.states).exists():
                raise ValueError(f"state file {self.states!r} does not exist")
            read_state_file(self.states)    # fail before any output exists


def read_state_file(path) -> DensityMatrix:
    """Explicit true state: first line D = 2, second line 8 reals (re/im
    interleaved). An error names the file and line."""
    lines = _numbered_lines(path)
    if len(lines) != 2:
        raise ValueError(f"{path}: expected two lines (dimension, entries)")
    (dim_no, dim), (no, entries) = lines
    with _naming(f"{path}:{dim_no}"):
        dim = int(dim)
    require_qubit(dim, f"{path}:{dim_no}")
    with _naming(f"{path}:{no}"):
        return DensityMatrix(_qubit_matrix(entries.split(",")))


def _true_states(cfg: CampaignConfig) -> list[DensityMatrix]:
    """The true state of each run; runs share states across protocols, and
    a state file is read once, for every run."""
    if cfg.states not in ("pure", "bures"):
        return [read_state_file(cfg.states)] * cfg.runs
    draw = random_pure_haar if cfg.states == "pure" else random_bures_mixed
    return [draw(np.random.default_rng(
                np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0, r))))
            for r in range(cfg.runs)]


def _run_one(cfg: CampaignConfig, protocol: str, run_idx: int,
             rho_true: DensityMatrix) -> tuple[Trace, RecordStream, list[int]]:
    """A run's trace, its record stream and the iteration count of each of
    its estimator calls."""
    # One substream per (master seed, run index), shared by all protocols:
    # paired noise across protocols tightens ratio comparisons.
    run_seed = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1, run_idx))
    mle_iters: list[int] = []
    trace, records = run_tomography(
        protocol, rho_true, cfg.source, cfg.schedule, run_seed,
        delta=cfg.delta, random_v=cfg.random_v, mle_iters=mle_iters,
    )
    return replace(trace, run_id=run_idx, seed=cfg.seed), records, mle_iters


def run_campaign(cfg: CampaignConfig, workers: int | None = None):
    """Execute all (protocol, run) jobs, optionally in parallel, yielding
    (protocol, run index, trace, record stream, iteration count of each of
    the run's estimator calls) as each job completes.

    Results are deterministic for a fixed config regardless of worker
    count; with more than one worker, the order they arrive in is not.
    Closing the generator early shuts its process pool down.
    """
    jobs = [(p, r) for p in cfg.protocols for r in range(cfg.runs)]
    workers = _worker_count(workers)
    states = _true_states(cfg)
    if workers <= 1 or len(jobs) == 1:
        yield from ((p, r, *_run_one(cfg, p, r, states[r])) for p, r in jobs)
        return
    # Imported here: a serial campaign does not pay for the import.
    from concurrent.futures import ProcessPoolExecutor, as_completed

    # The pool starts all its processes at once: no more than there are jobs.
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        futures = {pool.submit(_run_one, cfg, p, r, states[r]): (p, r) for p, r in jobs}
        for fut in as_completed(futures):
            yield *futures[fut], *fut.result()


def _worker_count(workers: int | None) -> int:
    """Worker processes a campaign uses: unless given, one per CPU this
    process may run on."""
    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _campaign_meta(cfg: CampaignConfig) -> dict[str, str]:
    """Every setting of a campaign under its field name, with the schedule's
    and the source's fields in line; booleans as 0/1. Each curve names its
    own protocol, and the output directory is not a setting."""
    values = {}
    for f in fields(cfg):
        if f.name not in ("protocols", "out_dir"):
            v = getattr(cfg, f.name)
            values.update(asdict(v) if is_dataclass(v) else {f.name: v})
    return {k: str(int(v)) if isinstance(v, bool) else str(v) for k, v in values.items()}


def cmd_simulate(cfg: CampaignConfig, workers: int | None = None,
                 records: bool = False) -> int:
    """Run campaigns and write per-run trace files plus aggregated curves.

    With ``records``, also write each run's record stream, whose header
    carries the detected rate I * eff the counts follow and eff, for
    ``replay``. Last, write manifest.json: the full config, the tomosim,
    numpy and Python versions, the worker count, the wall time and, per
    protocol, the estimator's calls, total iterations and ``max_iter``
    hits. It is the one output that differs between runs of the same
    config, and it is not a CSV. While the campaign runs, each completed
    run prints one progress line on stderr.
    """
    t0 = perf_counter()
    workers = _worker_count(workers)    # fail before any output exists
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traces = {p: [None] * cfg.runs for p in cfg.protocols}
    mle_iters = {p: [] for p in cfg.protocols}
    with closing(run_campaign(cfg, workers)) as runs:
        for done, (protocol, r, trace, stream, iters) in enumerate(runs, 1):
            print(f"tomosim: {protocol} run {r} done ({done}/{len(cfg.protocols) * cfg.runs}, "
                  f"{perf_counter() - t0:.1f} s)", file=sys.stderr, flush=True)
            name = f"{protocol}_{r:03d}.csv"
            write_trace_file(out / f"trace_{name}", trace)
            if records:
                write_records(out / f"records_{name}", stream)
            traces[protocol][r] = trace
            mle_iters[protocol] += iters
    for protocol, group in traces.items():
        if len(group) >= 2:
            curve = average_curves(group)
            meta = {"protocol": protocol, **_campaign_meta(cfg)}
            write_curve_file(out / f"curve_{protocol}.csv", curve, meta)
    cap = MleOptions().max_iter
    manifest = {
        "config": asdict(cfg),
        "versions": {"tomosim": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        "workers": workers,
        "wall_s": perf_counter() - t0,
        "estimator": {p: {"mle_calls": len(n), "mle_iters": sum(n),
                          "mle_cap_hits": sum(k >= cap for k in n)}
                      for p, n in mle_iters.items()},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, default=str) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Analyze


def _distinct_files(paths) -> list:
    """The paths, one per file however often it is named, in order of first
    mention and as first given."""
    first = {}
    for path in paths:
        first.setdefault(Path(path).resolve(), path)
    return list(first.values())


def _collect_trace_files(inputs) -> dict[str, list[Trace]]:
    """The traces of the input files and input directories' trace_*.csv by
    protocol, each file read once however often it is named (errors name it
    as first given). Two campaign traces of one run, the same protocol,
    run_id and seed >= 0, are rejected, naming both files; replay traces
    (seed -1) are not, as their run_id numbers streams within one replay."""
    paths = _distinct_files(path for p in map(Path, inputs)
                            for path in (sorted(p.glob("trace_*.csv")) if p.is_dir() else [p]))
    if not paths:
        raise ValueError("no trace files found among inputs")
    by_protocol, runs = {}, {}
    for path in paths:
        trace = read_trace_file(path)
        run = (trace.protocol, trace.run_id, trace.seed)
        if trace.seed >= 0 and run in runs:
            raise ValueError(f"{runs[run]} and {path} hold the same run (protocol "
                             f"{run[0]!r}, run_id {run[1]}, seed {run[2]})")
        runs[run] = path
        by_protocol.setdefault(trace.protocol, []).append(trace)
    return by_protocol


def cmd_analyze(inputs, window: tuple[float, float] | None,
                comparisons, out_dir) -> int:
    """Fit grouped traces, emit pairwise ratios and plot-ready columns.
    Every trace file is read and checked, and every curve, fit and ratio
    computed, before any output exists."""
    by_protocol = _collect_trace_files(inputs)
    report: list[str] = []
    fits, plots = {}, {}
    for protocol, group in sorted(by_protocol.items()):
        if len(group) < 2:
            raise ValueError(f"protocol {protocol!r} has {len(group)} trace(s); need >= 2")
        with _naming(f"protocol {protocol!r}"):
            curve = average_curves(group)
        win = window or (100.0, float(curve.n[-1]))
        with _naming(f"protocol {protocol!r}, fit window {_fmt(win[0])}:{_fmt(win[1])}"):
            fit = fit_power_law(curve, win)
        fits[protocol] = fit
        report += [f"fit.{protocol}.{k} = {_fmt(getattr(fit, k))}"
                   for k in ("alpha", "alpha_err", "beta", "beta_err")]
        report += [f"fit.{protocol}.window = {_fmt(fit.window[0])}:{_fmt(fit.window[1])}",
                   f"fit.{protocol}.runs = {len(group)}"]
        plots[protocol] = [curve.n, curve.mean, curve.std_of_mean,
                           *([gill_massar_bound(n, kind) for n in curve.n]
                             for kind in ("mixed-qubit", "pure-qubit"))]

    for comp in comparisons or []:
        subject, _, reference = comp.partition(":")
        if subject not in fits or reference not in fits:
            raise ValueError(f"comparison {comp!r} references unknown protocol")
        f_s, f_r = fits[subject], fits[reference]
        win = window or (100.0, min(f_s.window[1], f_r.window[1]))
        ratio = efficiency_ratio(f_r, f_s, win[0], win[1])
        report.append(f"ratio.{subject}_vs_{reference} = {_fmt(ratio)}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for protocol, columns in plots.items():
        _write_table(out / f"plot_{protocol}.csv",
                     ["n,mean,std_of_mean,bound_mixed,bound_pure"], columns)
    (out / "report.txt").write_text("\n".join(report) + "\n")
    print("\n".join(report))
    return 0


# ---------------------------------------------------------------------------
# Replay


def cmd_replay(record_files, n0: float | None, out_dir,
               window: tuple[float, float] | None = None,
               points_per_decade: int = 10) -> int:
    """Self-referenced replay of recorded count streams.

    Each stream is re-estimated on growing prefixes; distances are taken
    to the assessment at N0. The curve plunges to zero at N0 by
    construction, so the averaged curve keeps only points with N <= N0/4;
    the per-stream trace files keep every point. Each record file is read
    once however often it is named, and replay_NNN.csv numbers the files
    by first mention. Every stream is read, checked and replayed, and the
    averaged curve fitted, before any output exists.
    """
    if n0 is not None and not 0.0 < n0 < math.inf:
        raise ValueError(f"--n0 must be positive and finite, got {n0!r}")
    record_files = _distinct_files(record_files)
    streams = [read_records(path)[0] for path in record_files]
    traces: list[Trace] = []
    clipped: list[Trace] = []
    for i, (path, stream) in enumerate(zip(record_files, streams)):
        # Each capped estimator call warns; the stream's count is one line.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trace = replace(replay_counts(stream, n0, points_per_decade=points_per_decade),
                            run_id=i)
        capped = 0
        for w in caught:
            if str(w.message).startswith("mle_estimate: max_iter"):
                capped += 1
            else:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        if capped:
            print(f"tomosim: {path}: {capped} estimator call(s) took the max_iter = "
                  f"{MleOptions().max_iter} cap", file=sys.stderr)
        keep = trace.n_emit <= trace.n_emit[-1] / 4
        if not np.any(keep):
            raise ValueError(f"{path}: no points survive clipping at N0/4")
        traces.append(trace)
        clipped.append(trace.select(keep))

    report = [f"replay.files = {len(clipped)}"]
    curve = None
    if len(clipped) >= 2:
        with _naming("replay, streams clipped at N0/4, N0 = "
                     + (_fmt(n0) if n0 else "the last N of each stream")):
            curve = average_curves(clipped, per_decade=points_per_decade)
        win = window or (float(curve.n[0]), float(curve.n[-1]))
        with _naming(f"replay, fit window {_fmt(win[0])}:{_fmt(win[1])}"):
            fit = fit_power_law(curve, win)
        report += [f"replay.{k} = {_fmt(getattr(fit, k))}" for k in ("alpha", "beta", "beta_err")]

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, trace in enumerate(traces):
        write_trace_file(out / f"replay_{i:03d}.csv", trace)
    if curve is not None:
        meta = {"protocol": "replay", "runs": str(len(clipped)), "n0": _fmt(n0 or -1)}
        write_curve_file(out / "replay_curve.csv", curve, meta)
    (out / "replay_report.txt").write_text("\n".join(report) + "\n")
    print("\n".join(report))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _parse_count(text: str) -> int:
    """Accept scientific notation for counts (1e6 -> 1000000)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"count {text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"count {text!r} is not finite")
    return int(round(value))


def _parse_positive_int(text: str) -> int:
    rule = argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    try:
        value = int(text)
    except ValueError:
        raise rule from None
    if value < 1:
        raise rule
    return value


def _parse_window(text: str) -> tuple[float, float]:
    n1, _, n2 = text.partition(":")
    try:
        n1, n2 = float(n1), float(n2)
    except ValueError:
        n1 = n2 = math.nan    # not two numbers: fails the bounds below
    if not 0.0 < n1 < n2 < math.inf:
        raise argparse.ArgumentTypeError(f"must be N1:N2 with 0 < N1 < N2 finite, got {text!r}")
    return n1, n2


def _default_out() -> str:
    return os.environ.get(OUTPUT_ENV_VAR, "results")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tomosim",
        description="Adaptive quantum-state-tomography simulator and analyzer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Every simulate default is the one its config dataclass states.
    d = CampaignConfig(protocols=("rankp-nc",))
    sim = sub.add_parser("simulate", help="run tomography campaigns")
    sim.add_argument("--protocol", default=",".join(d.protocols),
                     help=f"comma-separated subset of {','.join(PROTOCOLS)}")
    sim.add_argument("--states", default=d.states,
                     help="pure | bures | path to an explicit state file")
    sim.add_argument("--runs", type=int, default=d.runs)
    sim.add_argument("--n-max", type=_parse_count, default=d.schedule.n_max)
    sim.add_argument("--seed", type=int, default=d.seed)
    sim.add_argument("--out", default=_default_out())
    sim.add_argument("--growth", type=float, default=d.schedule.growth)
    sim.add_argument("--initial-budget", type=_parse_count,
                     default=d.schedule.initial_budget)
    sim.add_argument("--delta", type=float, default=d.delta,
                     help="estimator regularization before the transformation")
    sim.add_argument("--random-v", action="store_true",
                     help="left-multiply the transformation by a Haar-random unitary")
    sim.add_argument("--intensity", type=float, default=d.source.intensity, metavar="I",
                     help="source intensity (expected emissions per exposition unit)")
    sim.add_argument("--det-efficiency", type=float, default=d.source.efficiency,
                     help="detector efficiency in (0, 1]")
    sim.add_argument("--workers", type=_parse_positive_int, default=None,
                     help="worker processes (default: all CPUs)")
    sim.add_argument("--records", action="store_true",
                     help="also write each run's record stream, records_<protocol>_<run>.csv")

    ana = sub.add_parser("analyze", help="fit traces and compute efficiency ratios")
    ana.add_argument("inputs", nargs="+", help="trace files or directories")
    ana.add_argument("--fit-window", type=_parse_window, default=None,
                     metavar="N1:N2")
    ana.add_argument("--compare", action="append", default=[],
                     metavar="SUBJECT:REFERENCE",
                     help="emit the mean accuracy ratio subject/reference")
    ana.add_argument("--out", default=_default_out())

    rep = sub.add_parser("replay", help="replay recorded count streams")
    rep.add_argument("records", nargs="+", help="record-stream files")
    rep.add_argument("--n0", type=float, default=None,
                     help="reference copy count for the final assessment")
    rep.add_argument("--fit-window", type=_parse_window, default=None,
                     metavar="N1:N2")
    rep.add_argument("--points-per-decade", type=_parse_positive_int, default=10)
    rep.add_argument("--out", default=_default_out())
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            cfg = CampaignConfig(
                protocols=tuple(p.strip() for p in args.protocol.split(",") if p.strip()),
                states=args.states,
                runs=args.runs,
                seed=args.seed,
                schedule=Schedule(initial_budget=args.initial_budget,
                                  growth=args.growth, n_max=args.n_max),
                source=SourceModel(intensity=args.intensity,
                                   efficiency=args.det_efficiency),
                delta=args.delta,
                random_v=args.random_v,
                out_dir=Path(args.out),
            )
            return cmd_simulate(cfg, workers=args.workers, records=args.records)
        if args.command == "analyze":
            return cmd_analyze(args.inputs, args.fit_window, args.compare, args.out)
        return cmd_replay(args.records, args.n0, args.out, window=args.fit_window,
                          points_per_decade=args.points_per_decade)
    except (ValueError, OSError) as exc:
        print(f"tomosim: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
