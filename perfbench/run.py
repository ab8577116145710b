"""tomosim benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload {pure,mixed,replay} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source tree: the program is imported from ./src.
With --trace 0 the workload runs in rounds for about S measured seconds and
the end-to-end metrics are printed. With --trace 1 the first CHECK_ROUNDS
rounds run once untraced and once traced, and the per-layer metrics are
printed. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. perfbench/README.md says why each
workload exists and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads; setup subprocesses inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import streams  # noqa: E402
from checks import fingerprint, read_rows, trace_problems  # noqa: E402
from hostspeed import KERNEL_REF_S, kernel_seconds  # noqa: E402
from spans import SELF_TIME_METRICS, Recorder, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("pure", "mixed", "replay")
PROTOCOLS = ("random", "eigen", "rankp-nc", "rankp-b", "rankp-m")
N_MAX = 10 ** 5          # campaign budget of emitted copies per run
PER_ROUND = 2            # runs, or streams, in a round; each round has one kind
STREAM_N = 1e4           # emitted copies per replay stream
POINTS_PER_DECADE = 4    # replayed prefix estimates per decade of N
CHECK_ROUNDS = len(PROTOCOLS)  # rounds every run makes; the traced run repeats them
# Rounds whose MLE outputs meet the reference optimum; every untraced run
# makes them. Mixed runs are cheap, and their share of short outputs varies
# most from seed to seed, so they check twice as many.
REF_ROUNDS = {"pure": 10, "mixed": 20, "replay": 10}
SETUP_REPEATS = 7
CAP = 2.0                # operation times count at most CAP x their kind's median
SHORT_TOL = 1e-6         # nats below the reference optimum that count as short
REF_SLACK = 1e-9         # reference below the program by more: benchmark error

# Program-side warm-up: a two-run campaign through the CLI, small enough
# that import and first-call costs dominate it.
WARMUP = f"""
import contextlib, io, tempfile, tomosim.cli
with tempfile.TemporaryDirectory(dir={str(OUT)!r}) as d, \\
        contextlib.redirect_stdout(io.StringIO()):
    tomosim.cli.main(["simulate", "--protocol", "random", "--runs", "2",
                      "--n-max", "200", "--workers", "1", "--out", d])
"""
# Setup time as a user pays it: a fresh interpreter importing and warming up.
SETUP = f"""
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {str(SRC)!r})
{WARMUP}
print(time.perf_counter() - t0)
"""


class BenchmarkError(RuntimeError):
    """The benchmark itself is broken; no result may be printed."""


@dataclass
class Op:
    kind: str                # protocol, or the style of a replayed stream
    seconds: float
    data: list = field(default_factory=list)  # LikelihoodData of each MLE call of a run
    full: float = 0.0        # seconds plus an even share of its round's other time
    scaled: float = 0.0      # full, at the reference host speed (hostspeed.py)


@dataclass
class Pass:
    """One pass over rounds of a workload."""

    rounds: list[list[Op]] = field(default_factory=list)
    round_walls: list[float] = field(default_factory=list)
    scaled_wall: float = 0.0     # sum of round walls at the reference host speed
    kernel_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    fingerprint: str = ""

    @property
    def ops(self) -> list[Op]:
        return [op for ops in self.rounds for op in ops]


def measure_setup() -> float:
    res = subprocess.run([sys.executable, "-c", SETUP], capture_output=True,
                         text=True, timeout=120, cwd=ROOT)
    if res.returncode != 0:
        raise BenchmarkError(f"setup subprocess failed:\n{res.stderr}")
    return float(res.stdout.split()[-1])


def measure_setups() -> tuple[list[float], list[float]]:
    """SETUP_REPEATS set-up times, as measured and at the reference host
    speed, each scaled by the kernel runs on either side of it."""
    kernel = [kernel_seconds()]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        raw.append(measure_setup())
        kernel.append(kernel_seconds())
        scaled.append(raw[-1] * KERNEL_REF_S / statistics.fmean(kernel[-2:]))
    return raw, scaled


class Workload:
    """Rounds of operations; round k depends only on (seed, k).

    Round k has one kind, PROTOCOLS[k % 5]: on a campaign workload it is one
    `cmd_simulate` of that protocol with PER_ROUND runs, on replay one
    `tomosim replay` of PER_ROUND streams of that style. Every round draws
    its own states, so that no state is shared between operations.
    """

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.streams: dict[int, list[streams.Stream]] = {}
        self.intensity = 0.0

    @staticmethod
    def kind(k: int) -> str:
        return PROTOCOLS[k % len(PROTOCOLS)]

    def prepare(self, k: int, out: Path) -> list[str]:
        """Write round k's input files under `out` (replay only); untimed."""
        if self.name != "replay":
            return []
        if k not in self.streams:
            rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(2, k)))
            self.streams[k] = [streams.make_stream(self.kind(k), STREAM_N, rng)
                               for _ in range(PER_ROUND)]
        files = []
        for i, st in enumerate(self.streams[k]):
            files.append(str(out / f"stream_{i:03d}.txt"))
            streams.write_stream(files[-1], st)
        return files

    def call(self, k: int, out: Path, files: list[str]) -> int:
        """Round k through the public CLI; returns its exit status."""
        import tomosim.cli as cli

        with contextlib.redirect_stdout(io.StringIO()):
            if self.name == "replay":
                self.intensity = streams.INTENSITY
                return cli.main(["replay", *files, "--out", str(out / "res"),
                                 "--points-per-decade", str(POINTS_PER_DECADE)])
            seed = np.random.SeedSequence(self.seed, spawn_key=(1, k)).generate_state(1)[0]
            cfg = cli.CampaignConfig(
                protocols=(self.kind(k),), states="pure" if self.name == "pure" else "bures",
                runs=PER_ROUND, seed=int(seed),
                schedule=cli.Schedule(n_max=N_MAX), out_dir=out / "res")
            self.intensity = cfg.source.intensity
            return cli.cmd_simulate(cfg, workers=1)

    def outputs(self, k: int, out: Path) -> list[tuple[str, Path, float]]:
        """(kind, trace CSV, n_max) of each operation of round k, in call order."""
        res = out / "res"
        if self.name == "replay":
            return [(st.style, res / f"replay_{i:03d}.csv", float(st.n_emit()[-1]))
                    for i, st in enumerate(self.streams[k])]
        p = self.kind(k)
        return [(p, res / f"trace_{p}_{r:03d}.csv", float(N_MAX)) for r in range(PER_ROUND)]


@contextlib.contextmanager
def op_clock(ops: list[Op], keep: bool):
    """Time each operation at the name the CLI calls it by. With `keep`,
    also hand each tomography run the data of every MLE call it makes."""
    import tomosim.cli as cli
    import tomosim.simulator as sim

    saved = run_tomography, replay_counts, mle_estimate = (
        cli.run_tomography, cli.replay_counts, sim.mle_estimate)
    data: list = []

    def timed_run(*args, **kwargs):
        t0 = perf_counter()
        trace = run_tomography(*args, **kwargs)
        ops.append(Op("", perf_counter() - t0, data[:]))
        data.clear()
        return trace

    def timed_replay(*args, **kwargs):
        t0 = perf_counter()
        trace = replay_counts(*args, **kwargs)
        ops.append(Op("", perf_counter() - t0))
        return trace

    def kept_mle(*args, **kwargs):
        data.append(args[0])
        return mle_estimate(*args, **kwargs)

    cli.run_tomography, cli.replay_counts = timed_run, timed_replay
    if keep:
        sim.mle_estimate = kept_mle
    try:
        yield
    finally:
        cli.run_tomography, cli.replay_counts, sim.mle_estimate = saved


def run_rounds(wl: Workload, tag: str, seconds: float | None,
               recorder: Recorder | None = None, scale: bool = False,
               least: int = CHECK_ROUNDS) -> Pass:
    """Rounds 0, 1, ...: `least` of them, then more while the measured
    time, plus half a mean round, stays under `seconds` (if given). With
    `scale`, the host kernel runs before the first round and after each
    round, and each operation's time is also scaled to the reference host
    by the kernel runs on either side of its round."""
    res = Pass()
    if scale:
        res.kernel_s.append(kernel_seconds())
    k = 0
    while k < least or (
            seconds is not None and sum(res.round_walls) * (1 + 0.5 / k) < seconds):
        out = wl.work / tag / f"r{k}"
        out.mkdir(parents=True)
        files = wl.prepare(k, out)
        new_ops: list[Op] = []
        keep = k < REF_ROUNDS[wl.name] and wl.name != "replay"
        ctx = recorder.installed() if recorder else op_clock(new_ops, keep)
        status = None
        t0 = perf_counter()
        try:
            with ctx:
                status = wl.call(k, out, files)
        except Exception as exc:  # a crash fails the round's operations
            res.problems.append(f"round {k}: {type(exc).__name__}: {exc}")
        wall = perf_counter() - t0
        res.round_walls.append(wall)
        if scale:
            res.kernel_s.append(kernel_seconds())
            speed = KERNEL_REF_S / statistics.fmean(res.kernel_s[-2:])
            res.scaled_wall += wall * speed
            share = (wall - sum(op.seconds for op in new_ops)) / max(len(new_ops), 1)
            for op in new_ops:
                op.full = op.seconds + share
                op.scaled = op.full * speed

        outputs = wl.outputs(k, out)
        for op, (kind, _, _) in zip(new_ops, outputs):
            op.kind = kind
        res.rounds.append(new_ops)
        res.attempted += len(outputs)
        for _, path, n_max in outputs:
            bad = trace_problems(path, n_max)
            if status != 0:
                bad.append(f"round {k}: exit status {status}")
            res.failed += bool(bad)
            res.problems += bad
        k += 1
    res.fingerprint = fingerprint(wl.work / tag / f"r{i}" / "res" for i in range(CHECK_ROUNDS))
    return res


def shortfalls(wl: Workload, res: Pass, tag: str) -> tuple[int, int, float]:
    """(short, checked, worst gap in nats) over the MLE outputs of the
    workload's first REF_ROUNDS rounds: every prefix estimate of a
    replayed stream, and every estimate of a campaign run. Untimed."""
    short = checked = 0
    worst = 0.0
    for k in range(REF_ROUNDS[wl.name]):
        out = wl.work / tag / f"r{k}"
        cases = []
        if wl.name == "replay":
            for st, (_, path, _) in zip(wl.streams[k], wl.outputs(k, out)):
                with contextlib.suppress(OSError, ValueError):  # failed: counted already
                    cases += [(row["loglik"], st.prefix(int(row["iteration"])))
                              for row in read_rows(path)]
        else:
            for op, (_, path, _) in zip(res.rounds[k], wl.outputs(k, out)):
                with contextlib.suppress(OSError, ValueError):
                    for row, data in zip(read_rows(path), op.data, strict=True):
                        recs = data.records
                        cases.append((row["loglik"], (
                            np.array([reference.bloch(r.element.matrix) for r in recs]),
                            np.array([r.time for r in recs]),
                            np.array([r.counts for r in recs]))))
        for loglik, (m, t, n) in cases:
            best, _ = reference.optimum(reference.Likelihood(m, t, n, wl.intensity))
            if best < loglik - REF_SLACK:
                raise BenchmarkError(
                    f"reference optimum {best!r} below the program's {loglik!r}")
            checked += 1
            worst = max(worst, best - loglik)
            short += best - loglik > SHORT_TOL
    return short, checked, worst


def code_hash() -> str:
    """sha256 of the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "tomosim").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def earlier_fingerprint(workload: str, seed: int, fp: str) -> str | None:
    """Record fp for (code, workload, seed); return an earlier run's
    fingerprint of the same key when it differs."""
    store = OUT / "fingerprints.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{code_hash()}:{workload}:{seed}"
    previous = known.setdefault(key, fp)
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return previous if previous != fp else None


def rates(ops: list[Op]) -> dict[str, tuple[float, int]]:
    """Operations per second of busy time, and count, per kind."""
    out = {}
    for kind in PROTOCOLS:
        secs = [op.seconds for op in ops if op.kind == kind]
        out[kind] = (len(secs) / sum(secs) if secs else 0.0, len(secs))
    return out


def capped_mean(values: list[float]) -> float:
    """Mean of the values, each counted at most CAP times their median."""
    cap = CAP * statistics.median(values)
    return statistics.fmean(min(v, cap) for v in values)


def kind_rate(ops: list[Op], attr: str) -> float:
    """Operations per second, the geometric mean over kinds of one over
    each kind's capped mean operation time. A run ends after any round, so
    its kinds come in unequal numbers; each kind weighs the same, and a
    kind made twice as fast raises the figure by the same factor whichever
    kind it is. One operation in a few dozen takes five to ten times its
    kind's typical time; the cap keeps it from setting the figure alone."""
    by_kind: dict[str, list[float]] = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(getattr(op, attr))
    return math.exp(-statistics.fmean(math.log(capped_mean(v)) for v in by_kind.values()))


def untraced(args, wl: Workload, lines: list[str]):
    t0 = perf_counter()
    setups_raw, setups = measure_setups()
    exec(WARMUP, {})
    t1 = perf_counter()
    res = run_rounds(wl, "u", float(args.seconds), scale=True, least=REF_ROUNDS[wl.name])
    t2 = perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    short, checked, worst = shortfalls(wl, res, "u")
    lines.append(f"phase_s = setup {t1 - t0:.2f}, rounds {t2 - t1:.2f}, "
                 f"reference checks {perf_counter() - t2:.2f}")

    secs = [op.seconds for op in res.ops]
    wall = sum(res.round_walls)
    n = len(secs)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "ops_per_s_ref": (kind_rate(res.ops, "scaled"), "1/s", n),
        "mle_opt_frac": ((checked - short) / checked if checked else 0.0, "fraction", checked),
        "ok_frac": (1.0 - res.failed / res.attempted, "fraction", res.attempted),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    # Printed only: the median falls between protocols' clusters of
    # operation times, and p75 needs ten operations beyond it.
    p75 = (f"{np.quantile(secs, 0.75):.6g} s (n={n})" if n >= 40
           else f"not reported (n={n}: fewer than 10 beyond p75)")
    lines += [
        f"setup_s.unscaled = {statistics.median(setups_raw):.6g} s (n={len(setups_raw)})",
        f"ops_per_s = {kind_rate(res.ops, 'full'):.6g} 1/s (n={n}, unscaled)",
        f"ops_per_s.plain = {n / wall:.6g} 1/s (n={n}, operations / measured time)",
        f"host.kernel_s = {statistics.median(res.kernel_s):.6g} s (median, n={len(res.kernel_s)}, "
        f"reference {KERNEL_REF_S:g} s)",
        f"op_s.p50 = {statistics.median(secs) if secs else float('nan'):.6g} s (n={n})",
        f"op_s.p75 = {p75}",
        f"failed_frac = {res.failed / res.attempted:.6g} (n={res.attempted})",
        f"mle_short_frac = {short / max(checked, 1):.6g} (n={checked}, {short} short, "
        f"worst gap {worst:.3g} nats)",
    ]
    lines += [f"runs_per_s.{kind} = {r:.6g} 1/s (n={c})" for kind, (r, c) in rates(res.ops).items()]
    lines += [f"rounds = {len(res.round_walls)}", f"measured_s = {wall:.3f}",
              f"fingerprint = {res.fingerprint}"]
    previous = earlier_fingerprint(wl.name, wl.seed, res.fingerprint)
    if previous:
        res.problems.append(f"fingerprint differs from an earlier run of this code: {previous}")
    op_file = OUT / f"ops-{wl.name}-{wl.seed}.json"
    op_file.write_text(json.dumps({
        "kernel_s": res.kernel_s,
        "ops": [[k, op.kind, op.seconds, op.full, op.scaled]
                for k, ops in enumerate(res.rounds) for op in ops]}))
    lines.append(f"ops = {op_file.relative_to(ROOT)} (round, kind, seconds, full, scaled)")
    return res.attempted, res.failed, metrics, res.problems


def traced(args, wl: Workload, lines: list[str]):
    exec(WARMUP, {})
    plain = run_rounds(wl, "u", None, scale=True)
    rec = Recorder()
    tr = run_rounds(wl, "t", None, recorder=rec, scale=True)
    span_file = OUT / f"spans-{wl.name}-{wl.seed}.json"
    rec.write(span_file)

    wall_t = sum(tr.round_walls)
    layer = layer_metrics(rec, wall_t)
    # Both walls at the reference host speed, so that the host's own
    # changes of speed between the passes cancel.
    layer["trace_overhead"] = tr.scaled_wall / plain.scaled_wall - 1.0
    units = {"trace_overhead": "ratio", "cli.io_bytes": "bytes", "other_s": "s",
             "trace.wall_s": "s", "estimation.s_per_iter": "s"}
    units.update(dict.fromkeys(SELF_TIME_METRICS, "s"))
    metrics = {name: (value, units.get(name, "count"), 1) for name, value in layer.items()}
    # Per-protocol rates of the untraced pass: fewer samples than the
    # end-to-end metrics need for a bound, so reported here without one.
    for kind, (r, c) in rates(plain.ops).items():
        metrics[f"runs_per_s.{kind}"] = (r, "1/s", c)
    problems = plain.problems + tr.problems
    if plain.fingerprint != tr.fingerprint:
        problems.append("traced outputs differ from untraced outputs")
    previous = earlier_fingerprint(wl.name, wl.seed, plain.fingerprint)
    if previous:
        problems.append(f"fingerprint differs from an earlier run of this code: {previous}")
    residual = sum(layer[k] for k in (*SELF_TIME_METRICS, "other_s")) - wall_t
    lines += [f"fingerprint.untraced = {plain.fingerprint}",
              f"fingerprint.traced = {tr.fingerprint}",
              f"spans = {span_file.relative_to(ROOT)} ({len(rec.spans)} spans)",
              f"self_times_plus_other_minus_wall_s = {residual:.3g}"]
    return (plain.attempted + tr.attempted, plain.failed + tr.failed, metrics, problems)


def env_lines(args) -> list[str]:
    import tomosim

    lines = [
        f"env.numpy = {np.__version__}",
        f"env.tomosim = {tomosim.__version__}",
        f"env.python = {sys.version.split()[0]}",
        f"env.blas_threads = {os.environ['OPENBLAS_NUM_THREADS']}",
        f"env.nproc = {os.cpu_count()}",
        f"size.workload = {args.workload}",
        f"size.seed = {args.seed}",
        f"size.check_rounds = {CHECK_ROUNDS}",
        f"size.reference_rounds = {REF_ROUNDS[args.workload]}",
    ]
    if args.workload == "replay":
        lines += [f"size.streams_per_round = {PER_ROUND}",
                  f"size.stream_n = {STREAM_N:g}",
                  f"size.points_per_decade = {POINTS_PER_DECADE}"]
    else:
        lines += [f"size.runs_per_round = {PER_ROUND}",
                  f"size.n_max = {N_MAX}"]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tomosim" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tomosim.estimation

    if Path(tomosim.estimation.__file__).resolve().parent != (SRC / "tomosim").resolve():
        print(f"perfbench: tomosim not imported from {SRC}", file=sys.stderr)
        return 2
    if tomosim.estimation.PROB_CLAMP != reference.PROB_CLAMP:
        print("perfbench: the program's PROB_CLAMP changed; update reference.py",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    wl = Workload(args.workload, args.seed,
                  OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}")
    lines = env_lines(args)
    try:
        attempted, failed, metrics, problems = (traced if args.trace else untraced)(args, wl, lines)
    except BenchmarkError as exc:
        print(f"perfbench: benchmark error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(wl.work, ignore_errors=True)

    lines += [f"{name} = {value:.6g} {unit} (n={n})" for name, (value, unit, n) in metrics.items()]
    lines += [f"PROBLEM: {p}" for p in problems[:20]]
    print("\n".join(lines))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
