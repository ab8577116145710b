import json
import platform
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomosim.cli import (
    CampaignConfig,
    _run_one,
    _true_states,
    cmd_simulate,
    main,
    read_curve_file,
    read_state_file,
    read_trace_file,
    run_campaign,
    write_curve_file,
    write_trace_file,
)
import tomosim
from tomosim import cli
from tomosim.analysis import ConvergenceCurve
from tomosim.estimation import MleOptions
from tomosim.protocols import PROTOCOLS
from tomosim.quantum import maximally_mixed, pure_state, random_bures_mixed
from tomosim import quantum, simulator
from tomosim.simulator import (
    Schedule,
    SourceModel,
    Trace,
    read_records,
    run_tomography,
    write_records,
)
from conftest import write_state_file


def simulate_args(out, protocols="eigen", runs=2, n_max="3e3", seed=5, extra=()):
    return ["simulate", "--protocol", protocols, "--states", "pure",
            "--runs", str(runs), "--n-max", n_max, "--seed", str(seed),
            "--out", str(out), "--workers", "1", *extra]


class TestSimulateCommand:
    def test_writes_traces_and_curves(self, tmp_path):
        rc = main(simulate_args(tmp_path, protocols="eigen,rankp-nc"))
        assert rc == 0
        for proto in ("eigen", "rankp-nc"):
            assert (tmp_path / f"curve_{proto}.csv").exists()
            for run in range(2):
                assert (tmp_path / f"trace_{proto}_{run:03d}.csv").exists()
        assert not list(tmp_path.glob("records_*"))    # only with --records

    def test_curve_metadata_records_every_setting(self, tmp_path):
        rc = main(simulate_args(tmp_path, extra=(
            "--initial-budget", "50", "--growth", "1.5", "--intensity", "800",
            "--det-efficiency", "0.9", "--delta", "0.002", "--random-v")))
        assert rc == 0
        _, meta = read_curve_file(tmp_path / "curve_eigen.csv")
        assert meta == {"protocol": "eigen", "states": "pure", "runs": "2", "seed": "5",
                        "initial_budget": "50", "growth": "1.5", "n_max": "3000",
                        "intensity": "800.0", "efficiency": "0.9", "delta": "0.002",
                        "random_v": "1"}

    def test_same_seed_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(simulate_args(out1)) == 0
        assert main(simulate_args(out2)) == 0
        f1 = (out1 / "trace_eigen_000.csv").read_bytes()
        f2 = (out2 / "trace_eigen_000.csv").read_bytes()
        assert f1 == f2

    def test_different_seed_differs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(simulate_args(out1, seed=5)) == 0
        assert main(simulate_args(out2, seed=6)) == 0
        assert (out1 / "trace_eigen_000.csv").read_bytes() != \
            (out2 / "trace_eigen_000.csv").read_bytes()

    def test_invalid_protocol_fails(self, tmp_path, capsys):
        rc = main(simulate_args(tmp_path, protocols="teleport"))
        assert rc == 1
        assert "unknown protocol" in capsys.readouterr().err

    @pytest.mark.parametrize("protocols, message", [
        (",", "no protocol given"),
        ("", "no protocol given"),
        ("random,random", "protocol 'random' given more than once"),
        ("eigen,rankp-b,eigen", "protocol 'eigen' given more than once"),
    ])
    def test_empty_or_repeated_protocol_list_fails(self, tmp_path, capsys, protocols, message):
        # Before, an empty list ran nothing and exited 0, and a repeated
        # protocol ran its jobs twice into the same trace files.
        rc = main(simulate_args(tmp_path / "out", protocols=protocols))
        assert rc == 1
        assert f"tomosim: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_manifest_leaves_the_csvs_alone(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(simulate_args(out1, protocols="eigen,rankp-m")) == 0
        assert main(simulate_args(out2, protocols="eigen,rankp-m")[:-1] + ["2"]) == 0
        csvs = sorted(p.name for p in out1.glob("*.csv"))
        assert csvs == sorted(p.name for p in out2.glob("*.csv"))
        assert len(csvs) == 6
        assert all((out1 / f).read_bytes() == (out2 / f).read_bytes() for f in csvs)
        assert sorted(p.name for p in out1.iterdir()) == sorted(csvs + ["manifest.json"])
        one, two = (json.loads((o / "manifest.json").read_text()) for o in (out1, out2))
        assert one["config"] == {
            "protocols": ["eigen", "rankp-m"], "states": "pure", "runs": 2, "seed": 5,
            "schedule": {"initial_budget": 100, "growth": 1.25, "n_max": 3000},
            "source": {"intensity": 1000.0, "efficiency": 1.0},
            "delta": 1e-4, "random_v": False, "out_dir": str(out1)}
        assert one["versions"] == {"tomosim": tomosim.__version__, "numpy": np.__version__,
                                   "python": platform.python_version()}
        assert (one["workers"], two["workers"]) == (1, 2)
        assert one["wall_s"] > 0 and two["wall_s"] > 0
        # Estimator statistics per protocol, the same from two worker
        # processes: one call per trace row, and the iterations that each
        # call's log-likelihood list records beyond its start.
        assert one["estimator"] == two["estimator"]
        cfg = CampaignConfig(protocols=("eigen", "rankp-m"), runs=2, seed=5,
                             schedule=Schedule(n_max=3000), out_dir=out1)
        states = _true_states(cfg)
        for protocol in cfg.protocols:
            iters = [n for run in range(2) for n in _run_one(cfg, protocol, run, states[run])[2]]
            rows = sum(read_trace_file(out1 / f"trace_{protocol}_{run:03d}.csv").iteration.size
                       for run in range(2))
            assert one["estimator"][protocol] == {
                "mle_calls": rows, "mle_iters": sum(iters),
                "mle_cap_hits": sum(n >= MleOptions().max_iter for n in iters)}
            assert len(iters) == rows and sum(iters) > rows

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_progress_line_per_completed_run(self, tmp_path, capsys, workers):
        args = simulate_args(tmp_path, protocols="eigen,rankp-m")
        assert main(args[:-1] + [workers]) == 0
        lines = capsys.readouterr().err.splitlines()
        pattern = re.compile(r"tomosim: (eigen|rankp-m) run ([01]) done \((\d)/4, [\d.]+ s\)")
        matches = [pattern.fullmatch(ln) for ln in lines]
        assert all(matches), lines
        assert [int(m[3]) for m in matches] == [1, 2, 3, 4]
        assert sorted((m[1], m[2]) for m in matches) == [
            ("eigen", "0"), ("eigen", "1"), ("rankp-m", "0"), ("rankp-m", "1")]

    def test_scientific_notation_counts(self, tmp_path):
        rc = main(simulate_args(tmp_path, n_max="1e3"))
        assert rc == 0
        tf = read_trace_file(tmp_path / "trace_eigen_000.csv")
        assert tf.n_emit[-1] >= 1e3

    def test_explicit_state_file(self, tmp_path):
        state_path = tmp_path / "state.txt"
        write_state_file(state_path, pure_state(quantum.KET_D))
        rc = main(["simulate", "--protocol", "eigen", "--states", str(state_path),
                   "--runs", "2", "--n-max", "2e3", "--seed", "1",
                   "--out", str(tmp_path), "--workers", "1"])
        assert rc == 0

    @pytest.mark.parametrize("flag, value, message", [
        ("--intensity", "nan", "finite"), ("--growth", "inf", "finite"),
        ("--delta", "nan", "delta")])
    def test_non_finite_knob_fails(self, tmp_path, capsys, flag, value, message):
        rc = main(simulate_args(tmp_path, extra=(flag, value)))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("tomosim: ") and message in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(simulate_args(tmp_path / "sim", extra=("--workers", value)))
        assert exc.value.code == 2
        assert "--workers: must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    def test_workers_below_one_rejected_through_the_api(self, tmp_path):
        cfg = CampaignConfig(protocols=("eigen",), runs=2, out_dir=tmp_path / "sim")
        with pytest.raises(ValueError, match=r"^workers must be >= 1, got 0$"):
            cmd_simulate(cfg, workers=0)
        assert not (tmp_path / "sim").exists()

    @staticmethod
    def recording_pool(monkeypatch):
        """Replace the process pool by a stand-in that runs each job in this
        process, so no process is started; returns the list of its events,
        ("start", max_workers) and ("shutdown",)."""
        import concurrent.futures

        events = []

        class RecordingPool:
            def __init__(self, max_workers):
                events.append(("start", max_workers))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                events.append(("shutdown",))
                return False

            def submit(self, fn, *args):
                fut = concurrent.futures.Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return events

    @pytest.mark.parametrize("workers, cpus", [("500", 4), (None, 64), ("1", 64)])
    def test_pool_never_exceeds_the_jobs(self, tmp_path, monkeypatch, workers, cpus):
        # A process pool forks all its workers at the first submit, so a
        # 2-job campaign sizes it at 2 however many workers are asked for;
        # the manifest keeps the requested count.
        events = self.recording_pool(monkeypatch)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        args = simulate_args(tmp_path, runs=2, n_max="1e3")[:-2]
        if workers is not None:
            args += ["--workers", workers]
        assert main(args) == 0
        assert events == ([] if workers == "1" else [("start", 2), ("shutdown",)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["workers"] == (int(workers) if workers else cpus)
        assert len(list(tmp_path.glob("trace_eigen_*.csv"))) == 2

    @pytest.mark.parametrize("runs", [2, 4])
    def test_default_workers_are_the_cpus_this_process_may_use(self, tmp_path, monkeypatch,
                                                                runs):
        # Three CPUs in the affinity set, whatever the host counts.
        events = self.recording_pool(monkeypatch)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        assert main(simulate_args(tmp_path, runs=runs, n_max="1e3")[:-2]) == 0
        assert events == [("start", min(3, runs)), ("shutdown",)]
        assert json.loads((tmp_path / "manifest.json").read_text())["workers"] == 3

    @pytest.mark.parametrize("cpus, workers", [(5, 5), (None, 1)])
    def test_default_workers_without_cpu_affinity(self, tmp_path, monkeypatch, cpus, workers):
        # Where the platform has no affinity call, the CPU count, or one
        # worker when even that is unknown.
        events = self.recording_pool(monkeypatch)
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert main(simulate_args(tmp_path, runs=2, n_max="1e3")[:-2]) == 0
        assert events == ([] if workers == 1 else [("start", 2), ("shutdown",)])
        assert json.loads((tmp_path / "manifest.json").read_text())["workers"] == workers

    def test_failed_write_shuts_the_pool_down_first(self, tmp_path, monkeypatch, capsys):
        # An error while the campaign's loop writes a run closes the
        # campaign, and its pool, before simulate returns.
        events = self.recording_pool(monkeypatch)

        def failing_write(path, trace):
            events.append(("write", path.name))
            raise OSError(f"cannot write {path.name}")

        monkeypatch.setattr(cli, "write_trace_file", failing_write)
        assert main(simulate_args(tmp_path, runs=3, n_max="1e3", extra=("--workers", "2"))) == 1
        (start, (write, name), *rest) = events
        assert (start, write, rest) == (("start", 2), "write", [("shutdown",)])
        assert capsys.readouterr().err.endswith(f"tomosim: cannot write {name}\n")

    def test_reproduction_script_rejects_workers_below_one(self, tmp_path):
        # The script parses --workers as simulate does: a usage error before
        # any campaign runs, so nothing is written where it would write.
        script = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_results.py"
        done = subprocess.run([sys.executable, str(script), "--workers", "0"],
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        assert "--workers: must be an integer >= 1" in done.stderr
        assert "Traceback" not in done.stderr
        assert not any(tmp_path.iterdir())

    def test_non_finite_state_file_fails(self, tmp_path, capsys):
        state = tmp_path / "state.txt"
        state.write_text("2\nnan,0,0,0,0,0,0.5,0\n")
        rc = main(["simulate", "--protocol", "eigen", "--states", str(state),
                   "--runs", "2", "--n-max", "2e3", "--workers", "1",
                   "--out", str(tmp_path / "sim")])
        assert rc == 1
        assert "finite matrix reals" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line, message", [
        ("2\n0.9,0,0,0,0,0,0,0\n", 2, "density matrix trace 0.9 != 1"),
        ("\n2.0\n1,0,0,0,0,0,0,0\n", 2, "invalid literal for int() with base 10: '2.0'"),
        ("3\n1,0,0,0,0,0,0,0\n", 1, "only qubits (D = 2) are supported, got D = 3")])
    def test_bad_state_file_fails_before_any_output(self, tmp_path, capsys, text, line,
                                                     message):
        state = tmp_path / "s.txt"
        state.write_text(text)
        rc = main(["simulate", "--protocol", "eigen", "--states", str(state),
                   "--runs", "2", "--n-max", "2e3", "--workers", "1",
                   "--out", str(tmp_path / "sim")])
        assert rc == 1
        assert capsys.readouterr().err == f"tomosim: {state}:{line}: {message}\n"
        assert not (tmp_path / "sim").exists()

    def test_poisson_limit_fails_before_any_output(self, tmp_path, capsys):
        # Every Poisson mean stays below n_max * growth; numpy draws from
        # means up to 9.223e18 only.
        rc = main(["simulate", "--protocol", "eigen", "--runs", "1", "--n-max", "1e20",
                   "--growth", "1e10", "--workers", "1", "--out", str(tmp_path / "sim")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "tomosim: n_max * growth = 100000000000000000000 * 10000000000.0 must be below "
            "9.223e+18, the largest Poisson mean numpy draws\n")
        assert not (tmp_path / "sim").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("intensity", ["1e-308", "1e305"])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_extreme_intensity_fails_naming_it(self, tmp_path, capsys, protocol, intensity):
        # A base time budget / (I * exposure) that leaves the positive
        # finite floats ends the run with a message naming I: at I = 1e-308
        # the first one overflows; at I = 1e305 I * exposure overflows once
        # a RankP plan's times grow, and the runs that stay clear complete.
        rc = main(simulate_args(tmp_path / "sim", protocols=protocol, runs=1, n_max="1e4",
                                extra=("--intensity", intensity)))
        err = capsys.readouterr().err
        assert "Traceback" not in err and "lam value" not in err
        if intensity == "1e-308" or rc != 0:
            assert rc == 1
            assert re.fullmatch(r"tomosim: base_time must be positive and finite, got "
                                rf"(inf|0\.0) at intensity {re.escape(repr(float(intensity)))}\n",
                                err)

    def test_non_finite_count_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(simulate_args(tmp_path, n_max="inf"))
        assert exc.value.code == 2

    def test_negative_seed_rejected(self, tmp_path, capsys):
        rc = main(simulate_args(tmp_path / "sim", seed=-1))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("tomosim: ") and "seed must be >= 0, got -1" in err
        assert not (tmp_path / "sim").exists()

    def test_worker_records_come_back_frozen(self, tmp_path):
        # Records a worker process returns arrive pickled, with their
        # stream's detected rate and efficiency.
        cfg = CampaignConfig(protocols=("eigen",), states="bures", runs=2, seed=3,
                             schedule=Schedule(50, 1.3, 500),
                             source=SourceModel(1000.0, 0.8), out_dir=tmp_path)
        streams = [recs for _, _, _, recs, _ in run_campaign(cfg, workers=2)]
        assert len(streams) == 2
        rec = streams[0][0].record
        assert not rec.element.matrix.flags.writeable
        assert [(s.rate, s.efficiency) for s in streams] == [(1000.0 * 0.8, 0.8)] * 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_state_file_read_once(self, tmp_path, monkeypatch, workers):
        # Read by the config's check and once more for all runs: a state
        # file removed after the first run leaves the campaign running.
        state = tmp_path / "state.txt"
        write_state_file(state, random_bures_mixed(np.random.default_rng(2)))
        reads = []
        read = cli.read_state_file
        monkeypatch.setattr(cli, "read_state_file", lambda p: reads.append(p) or read(p))
        cfg = CampaignConfig(protocols=("eigen", "rankp-nc"), states=str(state), runs=3,
                             schedule=Schedule(50, 1.3, 500), out_dir=tmp_path)
        done = []
        for protocol, run, *_ in run_campaign(cfg, workers=workers):
            state.unlink(missing_ok=True)
            done.append((protocol, run))
        assert sorted(done) == [(p, r) for p in ("eigen", "rankp-nc") for r in range(3)]
        assert len(reads) <= 2

    def test_missing_state_file_fails(self, tmp_path, capsys):
        rc = main(["simulate", "--states", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "does not exist" in capsys.readouterr().err


class TestQubitsOnly:
    def test_qutrit_state_and_record_files_fail(self, tmp_path, capsys):
        state = tmp_path / "qutrit.txt"  # eye(3)/3: a line 3, then 18 reals
        state.write_text("3\n" + ",".join(f"{x:.17g},0" for x in np.eye(3).ravel() / 3) + "\n")
        records = tmp_path / "qutrit.csv"  # one record: projector |0><0|, 5 counts
        records.write_text("3,1000\n0,1," + ",".join(["0"] * 17) + ",1,5\n")
        for argv in (["simulate", "--protocol", "eigen", "--states", str(state),
                      "--runs", "2", "--n-max", "2e3", "--workers", "1",
                      "--out", str(tmp_path / "sim")],
                     ["replay", str(records), "--out", str(tmp_path / "rep")]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("tomosim: ") and "only qubits (D = 2)" in err


class TestTraceFileRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        tr, _ = run_tomography("rankp-b", maximally_mixed(), SourceModel(500.0),
                               Schedule(80, 1.4, 2000), 9)
        tf = replace(tr, run_id=3, seed=42)
        p = tmp_path / "t.csv"
        write_trace_file(p, tf)
        back = read_trace_file(p)
        assert back.protocol == tf.protocol
        assert back.run_id == 3 and back.seed == 42
        assert np.array_equal(back.n_emit, tf.n_emit)
        assert np.array_equal(back.n_det, tf.n_det)
        assert np.array_equal(back.d_bures_sq, tf.d_bures_sq)
        assert np.array_equal(back.loglik, tf.loglik)
        # byte-stable on rewrite
        p2 = tmp_path / "t2.csv"
        write_trace_file(p2, back)
        assert p.read_bytes() == p2.read_bytes()

    def test_rejects_non_trace_file(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("hello\n")
        with pytest.raises(ValueError, match="not a trace file"):
            read_trace_file(p)


def _good_trace(path, protocol="eigen", run_id=0):
    """Write a five-row trace following d = 2.25 / N; returns its lines."""
    n = np.geomspace(1e2, 1e4, 5)
    write_trace_file(path, Trace(protocol=protocol, run_id=run_id, seed=1,
                                 iteration=np.arange(5), n_emit=n, n_det=np.round(n).astype(int),
                                 d_bures_sq=2.25 / n, fidelity=1 - 1.125 / n,
                                 loglik=np.zeros(5)))
    return path.read_text().splitlines()


class TestTraceFileChecks:
    # Each corrupt trace fails `analyze`, naming its file and line, before
    # any output exists, where the good trace beside it would be fitted.
    def analyze_fails(self, tmp_path, capsys, lines, where):
        good = tmp_path / "trace_eigen_000.csv"
        _good_trace(good)
        bad = tmp_path / "trace_eigen_001.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["analyze", str(good), str(bad), "--out", str(tmp_path / "rep")])
        assert rc == 1
        assert not (tmp_path / "rep").exists()
        err = capsys.readouterr().err
        assert err.startswith(f"tomosim: {bad}:{where}: ")
        return err[len(f"tomosim: {bad}:{where}: "):].rstrip("\n")

    @pytest.mark.parametrize("column, value, message", [
        ("iteration", "x", "invalid literal for int() with base 10: 'x'"),
        ("n_det", "9" * 30, "Python int too large to convert to C long"),
        ("n_emit", "inf", "n_emit must be finite, got 'inf'"),
        ("d_bures_sq", "nan", "d_bures_sq must be finite, got 'nan'"),
        ("loglik", "-inf", "loglik must be finite, got '-inf'"),
        ("protocol", "rankp-b",
         "protocol, run_id, seed ('rankp-b', 1, 1) differ from the first row's ('eigen', 1, 1)"),
        ("run_id", "2",
         "protocol, run_id, seed ('eigen', 2, 1) differ from the first row's ('eigen', 1, 1)"),
        ("seed", "4",
         "protocol, run_id, seed ('eigen', 1, 4) differ from the first row's ('eigen', 1, 1)"),
        ("n_emit", "50", "n_emit 50.0 is below the previous row's 100.0")])
    def test_bad_cell_in_row_three_fails(self, tmp_path, capsys, column, value, message):
        lines = _good_trace(tmp_path / "src.csv", run_id=1)
        cells = lines[2].split(",")
        cells[lines[0].split(",").index(column)] = value
        lines[2] = ",".join(cells)
        assert self.analyze_fails(tmp_path, capsys, lines, 3) == message

    def test_short_row_fails(self, tmp_path, capsys):
        lines = _good_trace(tmp_path / "src.csv")
        lines[2] = lines[2].rsplit(",", 1)[0]
        assert self.analyze_fails(tmp_path, capsys, lines, 3) == \
            "trace row needs 9 fields, got 8"

    def test_swapped_n_emit_fails(self, tmp_path, capsys):
        lines = _good_trace(tmp_path / "src.csv")
        rows = [ln.split(",") for ln in lines]
        rows[2][4], rows[3][4] = rows[3][4], rows[2][4]
        err = self.analyze_fails(tmp_path, capsys, [",".join(r) for r in rows], 4)
        assert err.startswith("n_emit ") and "is below the previous row's" in err

    def test_repeated_n_emit_is_read(self, tmp_path):
        # A replay's cumulative N does not grow over a group of t = 0 records.
        lines = _good_trace(tmp_path / "t.csv")
        rows = [ln.split(",") for ln in lines]
        rows[3][4] = rows[2][4]
        (tmp_path / "t.csv").write_text("\n".join(",".join(r) for r in rows) + "\n")
        back = read_trace_file(tmp_path / "t.csv")
        assert back.n_emit[1] == back.n_emit[2]


class TestCurveFileRoundTrip:
    def test_round_trip(self, tmp_path):
        n = np.geomspace(1e2, 1e4, 21)
        curve = ConvergenceCurve(n, 2.0 / n, 0.2 / n, runs=7)
        p = tmp_path / "c.csv"
        write_curve_file(p, curve, {"protocol": "eigen", "runs": "7"})
        back, meta = read_curve_file(p)
        assert meta["protocol"] == "eigen"
        assert back.runs == 7
        assert np.array_equal(back.n, curve.n)
        assert np.array_equal(back.mean, curve.mean)
        p2 = tmp_path / "c2.csv"
        write_curve_file(p2, back, meta)
        assert p.read_bytes() == p2.read_bytes()


    def test_short_row_rejected(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("n,mean,std_of_mean\n1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:2: .*needs 3 values"):
            read_curve_file(p)

    @pytest.mark.parametrize("text, line, message", [
        ("# runs=2\nn,mean,std_of_mean\n1,2,0\nx,1,0\n", 4,
         "could not convert string to float: 'x'"),
        ("# runs=x\nn,mean,std_of_mean\n1,2,0\n", 1,
         "invalid literal for int() with base 10: 'x'")], ids=["row", "runs"])
    def test_unparsed_cell_names_its_line(self, tmp_path, text, line, message):
        p = tmp_path / "c.csv"
        p.write_text(text)
        with pytest.raises(ValueError) as exc:
            read_curve_file(p)
        assert str(exc.value) == f"{p}:{line}: {message}"

    @pytest.mark.parametrize("rows", ["nan,1,0\n", "1,nan,0\n", "inf,1,0\ninf,1,0\n"],
                             ids=["nan-n", "nan-mean", "inf-n"])
    def test_non_finite_row_rejected(self, tmp_path, rows):
        p = tmp_path / "c.csv"
        p.write_text("# runs=2\nn,mean,std_of_mean\n" + rows)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: curve .* finite"):
            read_curve_file(p)


class TestStateFileRoundTrip:
    def test_round_trip(self, tmp_path):
        rho = random_bures_mixed(np.random.default_rng(8))
        p = tmp_path / "s.txt"
        write_state_file(p, rho)
        back = read_state_file(p)
        assert np.array_equal(back.matrix, rho.matrix)


@pytest.fixture(scope="module")
def short_campaigns(tmp_path_factory):
    """An eigen campaign to N = 1e4 with record streams, and a rankp-nc one
    that ends below N = 100, the default fit window's start."""
    root = tmp_path_factory.mktemp("short")
    assert main(["simulate", "--protocol", "eigen", "--runs", "2", "--n-max", "1e4",
                 "--seed", "1", "--records", "--workers", "1", "--out", str(root / "eigen")]) == 0
    assert main(["simulate", "--protocol", "rankp-nc", "--runs", "2", "--initial-budget", "10",
                 "--n-max", "60", "--seed", "1", "--workers", "1",
                 "--out", str(root / "rankp-nc")]) == 0
    return root


class TestAnalyzeCommand:
    def test_recovers_synthetic_power_law(self, tmp_path):
        # hand-made traces following d = 2.25 / N exactly
        n = np.geomspace(1e2, 1e6, 41)
        for run in range(2):
            tf = Trace(
                protocol="eigen", run_id=run, seed=1,
                iteration=np.arange(n.size), n_emit=n,
                n_det=np.round(n).astype(int), d_bures_sq=2.25 / n,
                fidelity=1 - 2.25 / n / 2, loglik=np.zeros_like(n),
            )
            write_trace_file(tmp_path / f"trace_eigen_{run:03d}.csv", tf)
        rc = main(["analyze", str(tmp_path), "--out", str(tmp_path / "report")])
        assert rc == 0
        report = (tmp_path / "report" / "report.txt").read_text()
        fields = dict(line.split(" = ") for line in report.strip().splitlines())
        assert float(fields["fit.eigen.alpha"]) == pytest.approx(2.25, abs=1e-9)
        assert float(fields["fit.eigen.beta"]) == pytest.approx(-1.0, abs=1e-9)
        plot = (tmp_path / "report" / "plot_eigen.csv").read_text().splitlines()
        assert plot[0] == "n,mean,std_of_mean,bound_mixed,bound_pure"

    def test_comparison_ratio_emitted(self, tmp_path):
        n = np.geomspace(1e2, 1e6, 41)
        for proto, alpha in (("eigen", 2.0), ("rankp-b", 3.0)):
            for run in range(2):
                tf = Trace(
                    protocol=proto, run_id=run, seed=1,
                    iteration=np.arange(n.size), n_emit=n,
                    n_det=np.round(n).astype(int), d_bures_sq=alpha / n,
                    fidelity=np.ones_like(n), loglik=np.zeros_like(n),
                )
                write_trace_file(tmp_path / f"trace_{proto}_{run:03d}.csv", tf)
        rc = main(["analyze", str(tmp_path), "--out", str(tmp_path / "rep"),
                   "--compare", "rankp-b:eigen"])
        assert rc == 0
        report = (tmp_path / "rep" / "report.txt").read_text()
        fields = dict(line.split(" = ") for line in report.strip().splitlines())
        assert float(fields["ratio.rankp-b_vs_eigen"]) == pytest.approx(1.5, abs=1e-9)

    @pytest.mark.parametrize("window", ["1e2:inf", "nan:1e3", "5:1", "7:7", "0:10", "-1:10",
                                        "5", "a:b"])
    def test_fit_window_checked_when_parsed(self, tmp_path, capsys, window):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(tmp_path), "--compare", "eigen:random",
                  f"--fit-window={window}", "--out", str(tmp_path / "ana")])
        assert exc.value.code == 2
        assert (f"--fit-window: must be N1:N2 with 0 < N1 < N2 finite, got {window!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "ana").exists()

    def test_missing_inputs_fail(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path / "void"), "--out", str(tmp_path)])
        assert rc == 1

    def test_failed_fit_names_protocol_and_window_before_any_output(self, tmp_path, capsys,
                                                                    short_campaigns):
        # eigen fits, rankp-nc's curve ends below the default window's 100:
        # one line naming rankp-nc and its window, and no plot_eigen.csv.
        capsys.readouterr()
        rc = main(["analyze", str(short_campaigns / "eigen"), str(short_campaigns / "rankp-nc"),
                   "--out", str(tmp_path / "ana")])
        assert rc == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"tomosim: protocol 'rankp-nc', fit window 100:[0-9.]+: "
                            r"window must satisfy N1 < N2\n", err), err
        assert not (tmp_path / "ana").exists()

    def test_file_named_twice_is_read_once(self, tmp_path):
        # A directory plus one of its own traces, also by another spelling
        # of its path, is the directory alone.
        sim = tmp_path / "sim"
        assert main(simulate_args(sim, n_max="2e3")) == 0
        assert main(["analyze", str(sim), "--out", str(tmp_path / "one")]) == 0
        twice = [str(sim / "trace_eigen_000.csv"),
                 str(sim / ".." / "sim" / "trace_eigen_001.csv")]
        assert main(["analyze", str(sim), *twice, "--out", str(tmp_path / "two")]) == 0
        report = (tmp_path / "one" / "report.txt").read_text()
        assert "fit.eigen.runs = 2" in report
        assert (tmp_path / "two" / "report.txt").read_text() == report

    def test_copies_of_one_run_fail_before_any_output(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert main(simulate_args(sim, n_max="2e3", extra=("--records",))) == 0
        copy = tmp_path / "copy.csv"
        copy.write_bytes((sim / "trace_eigen_001.csv").read_bytes())
        capsys.readouterr()
        assert main(["analyze", str(sim), str(copy), "--out", str(tmp_path / "ana")]) == 1
        assert capsys.readouterr().err == (
            f"tomosim: {sim / 'trace_eigen_001.csv'} and {copy} hold the same run "
            "(protocol 'eigen', run_id 1, seed 5)\n")
        assert not (tmp_path / "ana").exists()
        # Replay traces are not runs of a campaign: two replays of the same
        # streams share (replay, run_id, -1) and are analyzed together.
        streams = sorted(map(str, sim.glob("records_*.csv")))
        for rep in ("rep1", "rep2"):
            assert main(["replay", *streams, "--out", str(tmp_path / rep)]) == 0
        replays = [str(tmp_path / rep / f"replay_00{i}.csv") for rep in ("rep1", "rep2")
                   for i in range(2)]
        assert main(["analyze", *replays, "--fit-window", "100:1000",
                     "--out", str(tmp_path / "ana")]) == 0
        assert "fit.replay.runs = 4" in (tmp_path / "ana" / "report.txt").read_text()


class TestReplayCommand:
    def make_records(self, tmp_path, n_runs=1, n_max=3 * 10 ** 4):
        paths = []
        rho = random_bures_mixed(np.random.default_rng(14))
        for i in range(n_runs):
            _, records = run_tomography("eigen", rho, SourceModel(1000.0),
                                        Schedule(100, 1.25, n_max), 100 + i)
            p = tmp_path / f"records_{i}.csv"
            write_records(p, records)
            paths.append(p)
        return paths

    def test_replay_writes_increasing_n(self, tmp_path):
        paths = self.make_records(tmp_path)
        rc = main(["replay", str(paths[0]), "--out", str(tmp_path / "rep")])
        assert rc == 0
        tf = read_trace_file(tmp_path / "rep" / "replay_000.csv")
        assert np.all(np.diff(tf.n_emit) > 0)

    def test_clipping_rule(self, tmp_path, capsys):
        paths = self.make_records(tmp_path)
        rc = main(["replay", str(paths[0]), "--out", str(tmp_path / "rep")])
        assert rc == 0
        # the per-stream trace keeps every point up to N0; only the
        # averaged curve drops those beyond N0/4
        tf = read_trace_file(tmp_path / "rep" / "replay_000.csv")
        assert np.any(tf.n_emit > tf.n_emit[-1] / 4)
        assert "replay.files = 1" in (tmp_path / "rep" / "replay_report.txt").read_text()
        # an N0 below four times the first prefix leaves nothing to average
        rc = main(["replay", str(paths[0]), "--n0", "50", "--out", str(tmp_path / "r50")])
        assert rc == 1
        assert "no points survive clipping" in capsys.readouterr().err
        assert not (tmp_path / "r50").exists()

    def test_failed_average_names_the_cut_before_any_output(self, tmp_path, capsys,
                                                            short_campaigns):
        streams = [str(short_campaigns / "eigen" / f"records_eigen_00{i}.csv") for i in (0, 1)]
        capsys.readouterr()
        rc = main(["replay", *streams, "--n0", "150", "--out", str(tmp_path / "rep")])
        assert rc == 1
        assert capsys.readouterr().err == ("tomosim: replay, streams clipped at N0/4, N0 = 150: "
                                           "traces have disjoint N support\n")
        assert not (tmp_path / "rep").exists()

    def test_capped_estimator_calls_get_one_line_per_stream(self, tmp_path, monkeypatch,
                                                            capsys):
        # Every estimator call of the second stream warns that it took the
        # cap, and its first call also warns otherwise: one tomosim line
        # names the stream and its count, the other warning passes through,
        # and the outputs are those of a replay without warnings.
        paths = self.make_records(tmp_path, n_runs=2)
        args = ["replay", *map(str, paths), "--points-per-decade", "4"]
        assert main([*args, "--out", str(tmp_path / "plain")]) == 0
        capsys.readouterr()
        replayed, calls = [], []
        replay, estimate = cli.replay_counts, simulator.mle_estimate

        def counting_replay(*a, **kw):
            replayed.append(len(replayed))
            return replay(*a, **kw)

        def capped_estimate(*a, **kw):
            if replayed[-1] == 1:
                calls.append(len(calls))
                if len(calls) == 1:
                    warnings.warn("an unrelated warning", UserWarning)
                warnings.warn(f"mle_estimate: max_iter = {MleOptions().max_iter} steps "
                              "reached before ...", RuntimeWarning)
            return estimate(*a, **kw)

        monkeypatch.setattr(cli, "replay_counts", counting_replay)
        monkeypatch.setattr(simulator, "mle_estimate", capped_estimate)
        with pytest.warns(UserWarning, match="an unrelated warning"):
            assert main([*args, "--out", str(tmp_path / "capped")]) == 0
        rows = len(read_trace_file(tmp_path / "plain" / "replay_001.csv").n_emit)
        assert len(calls) == rows >= 2
        assert capsys.readouterr().err == (
            f"tomosim: {paths[1]}: {rows} estimator call(s) took the max_iter = 1000 cap\n")
        for f in (tmp_path / "plain").iterdir():
            assert (tmp_path / "capped" / f.name).read_bytes() == f.read_bytes()
        assert len(list((tmp_path / "capped").iterdir())) == 4

    @pytest.mark.parametrize("again", ["records_0.csv", "sub/../records_0.csv"])
    def test_a_file_named_twice_replays_once(self, tmp_path, again):
        paths = self.make_records(tmp_path, n_runs=2, n_max=2 * 10 ** 3)
        (tmp_path / "sub").mkdir()
        rc = main(["replay", str(paths[0]), str(tmp_path / again), "--out",
                   str(tmp_path / "rep")])
        assert rc == 0
        assert (tmp_path / "rep" / "replay_report.txt").read_text() == "replay.files = 1\n"
        assert sorted(p.name for p in (tmp_path / "rep").glob("replay_*.csv")) == [
            "replay_000.csv"]
        # Numbered by first mention: the second file named is replay_001.
        rc = main(["replay", str(paths[1]), str(paths[0]), str(tmp_path / again),
                   str(paths[1]), "--out", str(tmp_path / "both")])
        assert rc == 0
        assert "replay.files = 2" in (tmp_path / "both" / "replay_report.txt").read_text()
        for i, path in enumerate(paths[::-1]):
            replayed = (tmp_path / "both" / f"replay_{i:03d}.csv").read_text()
            main(["replay", str(path), "--out", str(tmp_path / f"alone{i}")])
            assert replayed.replace("replay,1,", "replay,0,") == (
                tmp_path / f"alone{i}" / "replay_000.csv").read_text()
        assert not (tmp_path / "both" / "replay_002.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-5", "0"])
    def test_n0_not_positive_and_finite_fails(self, tmp_path, capsys, value):
        path = self.make_records(tmp_path, n_max=2 * 10 ** 3)[0]
        rc = main(["replay", str(path), "--n0", value, "--out", str(tmp_path / "rep")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"tomosim: --n0 must be positive and finite, got {float(value)!r}")
        assert not (tmp_path / "rep").exists()

    def test_average_and_fit_over_several_runs(self, tmp_path):
        paths = self.make_records(tmp_path, n_runs=4, n_max=2 * 10 ** 4)
        rc = main(["replay", *[str(p) for p in paths], "--out", str(tmp_path / "rep")])
        assert rc == 0
        curve, meta = read_curve_file(tmp_path / "rep" / "replay_curve.csv")
        tf = read_trace_file(tmp_path / "rep" / "replay_000.csv")
        assert curve.n[-1] <= tf.n_emit[-1] / 4 + 1e-9
        report = (tmp_path / "rep" / "replay_report.txt").read_text()
        assert "replay.beta" in report

    def test_simulate_records_replay_analyze(self, tmp_path):
        # The CLI alone: simulate writes record streams, replay re-estimates
        # them, analyze fits the replayed traces. A stream's header carries
        # the detected rate I * eff and eff, so its full-stream estimate is
        # the campaign's last one, with the same log-likelihood, at the
        # campaign's N_emit = I * t.
        sim = tmp_path / "sim"
        assert main(simulate_args(sim, n_max="1e4", extra=(
            "--det-efficiency", "0.8", "--records"))) == 0
        streams = sorted(sim.glob("records_eigen_*.csv"))
        assert [p.name for p in streams] == ["records_eigen_000.csv", "records_eigen_001.csv"]
        assert main(["replay", *map(str, streams), "--out", str(tmp_path / "rep")]) == 0
        for run, stream in enumerate(streams):
            back, dim, rate = read_records(stream)
            assert (dim, rate, back.rate, back.efficiency) == (2, 800.0, 800.0, 0.8)
            trace = read_trace_file(sim / f"trace_eigen_{run:03d}.csv")
            replayed = read_trace_file(tmp_path / "rep" / f"replay_{run:03d}.csv")
            assert replayed.n_det[-1] == trace.n_det[-1]
            assert replayed.loglik[-1] == trace.loglik[-1]
            assert replayed.n_emit[-1] == pytest.approx(trace.n_emit[-1], rel=1e-12)
        replays = sorted(map(str, (tmp_path / "rep").glob("replay_0*.csv")))
        assert main(["analyze", *replays, "--fit-window", "100:2000",
                     "--out", str(tmp_path / "ana")]) == 0
        assert "fit.replay.beta = " in (tmp_path / "ana" / "report.txt").read_text()

    @pytest.mark.parametrize("window", ["5:1", "1e2:inf", "5", "a:b"])
    def test_fit_window_checked_when_parsed(self, tmp_path, capsys, window):
        paths = self.make_records(tmp_path, n_max=2 * 10 ** 3)
        with pytest.raises(SystemExit) as exc:
            main(["replay", str(paths[0]), "--fit-window", window,
                  "--out", str(tmp_path / "rep")])
        assert exc.value.code == 2
        assert (f"--fit-window: must be N1:N2 with 0 < N1 < N2 finite, got {window!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_points_per_decade_below_one_rejected(self, tmp_path, capsys, value):
        paths = self.make_records(tmp_path, n_max=2 * 10 ** 3)
        with pytest.raises(SystemExit) as exc:
            main(["replay", str(paths[0]), "--points-per-decade", value,
                  "--out", str(tmp_path / "rep")])
        assert exc.value.code == 2
        assert "--points-per-decade: must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("intensity, time, message", [
        ("nan", None, "intensity must be positive and finite"),
        ("inf", None, "intensity must be positive and finite"),
        (None, "nan", "record time must be finite"),
        (None, "inf", "record time must be finite"),
        # finite, but I*t overflows or I underflows to a subnormal float
        (None, "1e306", "intensity * total record time must be finite"),
        ("1e-320", None, "intensity * record time must be a normal float")],
        ids=["intensity-nan", "intensity-inf", "time-nan", "time-inf",
             "time-overflow", "intensity-subnormal"])
    def test_non_finite_stream_fails(self, tmp_path, capsys, intensity, time, message):
        path = self.make_records(tmp_path, n_max=2 * 10 ** 3)[0]
        head, *lines = path.read_text().splitlines()
        if intensity is not None:
            head = f"2,{intensity}"
        if time is not None:
            fields = lines[0].split(",")
            lines[0] = ",".join([*fields[:-2], time, fields[-1]])
        path.write_text("\n".join([head, *lines]) + "\n")
        rc = main(["replay", str(path), "--out", str(tmp_path / "rep")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("tomosim: ") and message in err

    @pytest.mark.parametrize("efficiency", ["nan", "inf", "0", "-0.5", "1.5"])
    def test_efficiency_outside_unit_interval_fails(self, tmp_path, capsys, efficiency):
        path = self.make_records(tmp_path, n_max=2 * 10 ** 3)[0]
        _, *lines = path.read_text().splitlines()
        path.write_text("\n".join([f"2,800,{efficiency}", *lines]) + "\n")
        rc = main(["replay", str(path), "--out", str(tmp_path / "rep")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("tomosim: ") and "efficiency must be in (0, 1]" in err

    @pytest.mark.parametrize("line, message", [
        # a Hermitian diag(1, -0.5) projector
        ("0,1,0,0,0,0,0,-0.5,0,1,5", "POVM element has eigenvalue -5.000e-01"),
        ("0,1,0,0,0,0,0,0,0,1,-5", "record counts must be a non-negative integer"),
        ("0,1,0,0,0,0,0,0,0,0,5", "zero exposition time cannot register counts"),
        ("0,1,0,0.5,0,0,0,0,0,1,5", "POVM element not Hermitian: defect 5.000e-01"),
        # a four-vector line: the element (1 + 1.5 sigma_z)/2
        ("0,1,0,0,1.5,1,5", "POVM element has eigenvalue -2.500e-01"),
        ("0,1,0,0,0,0,0,0", "malformed record line (expected 7 or 11 fields)")])
    def test_bad_record_fails_before_any_output(self, tmp_path, capsys, line, message):
        # The good stream comes first: every file is checked before any
        # output of the replay exists.
        good = self.make_records(tmp_path, n_max=2 * 10 ** 3)[0]
        bad = tmp_path / "bad.csv"
        bad.write_text(f"2,1000\n0,1,0,0,0,0,0,0,0,1,5\n\n{line}\n")
        rc = main(["replay", str(good), str(bad), "--out", str(tmp_path / "rep")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"tomosim: {bad}:4: {message}")
        assert not (tmp_path / "rep").exists()

    def test_leading_zero_time_group_replays(self, tmp_path, capsys):
        # A first exposure group held for t = 0 emits no copies: the N grid
        # starts at the first group with N > 0, and every row is the one of
        # the file without that group, its iteration index shifted by one.
        path = self.make_records(tmp_path, n_max=2 * 10 ** 3)[0]
        head, *lines = path.read_text().splitlines()
        padded = tmp_path / "padded.csv"
        padded.write_text("\n".join([head, "-1,1,0,0,0,0,0,0,0,0,0", *lines]) + "\n")
        assert main(["replay", str(path), "--out", str(tmp_path / "rep")]) == 0
        assert main(["replay", str(padded), "--out", str(tmp_path / "rep_padded")]) == 0
        assert "Traceback" not in capsys.readouterr().err
        rep = read_trace_file(tmp_path / "rep" / "replay_000.csv")
        rep_padded = read_trace_file(tmp_path / "rep_padded" / "replay_000.csv")
        assert np.array_equal(rep_padded.iteration, rep.iteration + 1)
        assert np.array_equal(rep_padded.n_emit, rep.n_emit)
        assert np.array_equal(rep_padded.n_det, rep.n_det)
        for column in ("d_bures_sq", "fidelity", "loglik"):
            np.testing.assert_allclose(getattr(rep_padded, column), getattr(rep, column),
                                       rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("records", ["-1,1,0,0,0,0,0,0,0,0,0\n", "-1,1,0,0,1,0,0\n", ""],
                             ids=["matrix-line", "four-vector-line", "header-only"])
    def test_stream_without_exposure_fails_before_any_output(self, tmp_path, capsys, records):
        # The good stream comes first: every file is checked before any
        # output of the replay exists.
        good = self.make_records(tmp_path, n_max=2 * 10 ** 3)[0]
        bad = tmp_path / "unexposed.csv"
        bad.write_text(f"2,1000\n{records}")
        rc = main(["replay", str(good), str(bad), "--out", str(tmp_path / "rep")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"tomosim: {bad}: need at least one record with positive time\n")
        assert not (tmp_path / "rep").exists()

    def test_each_record_file_opened_once(self, tmp_path, monkeypatch):
        paths = {str(p) for p in self.make_records(tmp_path, n_runs=2, n_max=2 * 10 ** 3)}
        opened = []
        real_open = open

        def spy(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", spy)
        assert main(["replay", *sorted(paths), "--out", str(tmp_path / "rep")]) == 0
        assert sorted(p for p in opened if p in paths) == sorted(paths)

    def test_malformed_records_fail(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("junk\n")
        rc = main(["replay", str(p), "--out", str(tmp_path)])
        assert rc == 1


class TestEnvironmentDefaults:
    def test_output_env_var(self, tmp_path, monkeypatch):
        from tomosim.cli import build_parser
        monkeypatch.setenv("TOMOSIM_OUT", str(tmp_path / "envout"))
        args = build_parser().parse_args(
            ["simulate", "--runs", "1", "--n-max", "1e3"])
        assert args.out == str(tmp_path / "envout")


# Fuzzing: every reader turns malformed text into a ValueError whose
# message starts with the file's path (which the CLI reports as a tomosim:
# message), never another exception.
_TOKENS = ("0", "1", "2", "3", "-1", "0.5", "1e3", "nan", "inf", "-inf", "x", "",
           "1e400", "9" * 30)
# Rows of equal length, so that parsing gets past the ragged-row checks.
_ROWS = st.integers(1, 12).flatmap(lambda k: st.lists(
    st.lists(st.sampled_from(_TOKENS), min_size=k, max_size=k).map(",".join),
    min_size=1, max_size=4).map("\n".join))
# Valid headers of each reader; a record stream's efficiency field is
# optional and may hold any token.
_READERS = {
    read_records: st.just("2,1000\n") | st.sampled_from(_TOKENS).map("2,1000,{}\n".format),
    read_trace_file: st.just("protocol,run_id,seed,iteration,n_emit,n_det,d_bures_sq,"
                             "fidelity,loglik\n"),
    read_curve_file: st.just("# runs=2\nn,mean,std_of_mean\n"),
    read_state_file: st.just("2\n"),
}


@pytest.mark.parametrize("reader", list(_READERS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_readers_raise_only_value_error(tmp_path_factory, reader, data):
    text = data.draw(st.one_of(
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=200),
        _ROWS,
        st.tuples(_READERS[reader], _ROWS).map("".join),
    ))
    path = tmp_path_factory.mktemp("fuzz") / "input.txt"
    path.write_text(text, encoding="utf-8")
    try:
        reader(path)
    except ValueError as exc:
        assert str(exc).startswith(str(path))


class TestUsageErrors:
    """An option value its parser rejects ends with argparse's status 2 and
    the option's rule, never the name of the function that parsed it."""

    @pytest.mark.parametrize("option, value, rule", [
        (option, value, rule)
        for option in ("--n-max", "--initial-budget")
        for value, rule in (("abc", "is not a number"), ("1e400", "is not finite"),
                            ("nan", "is not finite"))
    ] + [
        (option, value, "must be an integer >= 1")
        for option in ("--workers", "--points-per-decade")
        for value in ("1.5", "x")
    ])
    def test_rejected_value_names_the_rule(self, tmp_path, capsys, option, value, rule):
        command = (["replay", str(tmp_path / "records.csv")] if option == "--points-per-decade"
                   else ["simulate", "--protocol", "eigen", "--runs", "1"])
        with pytest.raises(SystemExit) as exc:
            main([*command, option, value, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument {option}: " in err
        assert rule in err and repr(value) in err
        assert "_parse_" not in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, message", [
    (lambda sim, empty: ["simulate", "--protocol", "eigen", "--runs", "0"], "runs must be >= 1"),
    (lambda sim, empty: ["analyze", str(empty)], "no trace files found among inputs"),
    (lambda sim, empty: ["analyze", str(sim / "trace_eigen_000.csv")],
     "protocol 'eigen' has 1 trace(s); need >= 2"),
    (lambda sim, empty: ["analyze", str(sim), "--compare", "eigen:random"],
     "comparison 'eigen:random' references unknown protocol"),
], ids=["runs", "no-traces", "one-trace", "comparison"])
def test_boundary_failure_is_one_line_before_any_output(tmp_path, capsys, short_campaigns,
                                                        command, message):
    empty = tmp_path / "empty"
    empty.mkdir()
    capsys.readouterr()
    assert main([*command(short_campaigns / "eigen", empty), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"tomosim: {message}\n"
    assert not (tmp_path / "out").exists()
