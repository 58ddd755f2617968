#!/usr/bin/env python3
"""Benchmark of zenosim, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a zenosim source tree; zenosim is imported from
``src/`` there and from nowhere else. The workload's commands run in this
process and thread, one after another (a closed loop), through
``zenosim.cli.main``. One warm-up round is checked against independent
references (``workloads``, ``oracle``); timed rounds follow until
``--seconds`` have passed, and each must write the same bytes as the
warm-up round. BLAS and OpenMP are pinned to one thread.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones:

* ``setup_s``: median, over fresh interpreters, of the time from starting
  the interpreter to ``import zenosim.cli`` having finished;
* ``wall_s``: sum over the round's commands of each command's median time
  over the timed rounds;
* ``peak_rss_mb``: peak resident memory of this process, read after the
  timed rounds and before the checks.

``setup_s`` and ``wall_s`` are calibrated against the host's speed at the
time (``speed``): seconds at the speed of the VM the README describes.

With ``--trace 1`` the timed rounds are split: untraced rounds, then
rounds traced by ``tracing.Tracer``, then one round with tracemalloc
around ``run_ensemble``; the metrics are the per-layer ones, each the
median over the traced rounds of its per-round total. The spans of the
last traced round go to ``bench/_work/<workload>/spans.json``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
#: fresh interpreters timed for setup_s
SETUP_INTERPRETERS = 5
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
#: per-layer metric names and units, in BENCHMARK.json order
PER_LAYER = (
    [("import.zenosim_s", "s"),
     ("linalg.hermitian_eig_s", "s"), ("linalg.hermitian_eig_calls", "count"),
     ("rng.select_s", "s"), ("rng.select_calls", "count"),
     ("intervals.sample_s", "s"), ("intervals.sample_calls", "count"),
     ("intervals.draws", "count"),
     ("dynamics.lnq_vector_s", "s"), ("dynamics.lnq_vector_evals", "count"),
     ("dynamics.lnq_scalar_calls", "count"), ("dynamics.delta_calls", "count"),
     ("dynamics.phase_weights_calls", "count"),
     ("montecarlo.run_ensemble_s", "s"), ("montecarlo.run_ensemble_self_s", "s"),
     ("montecarlo.run_ensemble_peak_mb", "MB"),
     ("montecarlo.ensemble_summary_s", "s"), ("montecarlo.empirical_rate_s", "s"),
     ("intervals.expect_windowed_s", "s"), ("intervals.expect_windowed_calls", "count"),
     ("intervals.integrand_evals", "count"),
     ("ldstats.survival_stats_for_s", "s"), ("ldstats.survival_stats_for_calls", "count"),
     ("ldstats.for_system_s", "s"), ("ldstats.disorder_gain_s", "s"),
     ("ldstats.cramer_rate_s", "s"), ("ldstats.cramer_rate_calls", "count"),
     ("ldstats.rate_curve_s", "s")]
    + [(f"presets.{p}_s", "s") for p in workloads.PRESET_NAMES]
    + [("csvout.write_csv_s", "s"), ("csvout.bytes", "count"),
       ("svgplot.write_svg_s", "s"), ("expconfig.load_config_s", "s"), ("cli.main_s", "s"),
       ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.self_sum_s", "s")]
)
#: per-layer metrics read from span tables: metric -> (table, span name)
_FROM_SPANS = {
    "montecarlo.run_ensemble_self_s": ("self_time", "montecarlo.run_ensemble"),
    "linalg.hermitian_eig_calls": ("calls", "linalg.hermitian_eig"),
    "rng.select_calls": ("calls", "rng.select"),
    "intervals.sample_calls": ("calls", "intervals.sample"),
    "intervals.expect_windowed_calls": ("calls", "intervals.expect_windowed"),
    "ldstats.survival_stats_for_calls": ("calls", "ldstats.survival_stats_for"),
    "ldstats.cramer_rate_calls": ("calls", "ldstats.cramer_rate"),
}


def measure_setup(count: int) -> tuple[float, float]:
    """Setup time of fresh interpreters, and their own import time.

    Each interpreter's time from start to ``import zenosim.cli`` done is
    divided by the mean calibration rep around it; returns the median of
    these ratios times ``speed.REF_REP_S``, and the median import time the
    interpreters report (in plain seconds).
    """
    code = ("import time; t0 = time.perf_counter(); import sys; "
            f"sys.path.insert(0, {SRC!r}); import zenosim.cli; "
            "print(time.perf_counter() - t0, flush=True)")
    ratios, imported = [], []
    before = speed.block(0.0)
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0 or not line.strip():
            raise RuntimeError(f"fresh interpreter could not import zenosim:\n{err}")
        after = speed.block(speed.BLOCK_SHARE * ready)
        ratios.append(ready / statistics.fmean(before + after))
        before = after
        imported.append(float(line))
    return speed.REF_REP_S * statistics.median(ratios), statistics.median(imported)


class Runner:
    """Runs whole rounds of a workload's commands and keeps the tallies.

    The warm-up round keeps its outputs as the reference; every later run
    of a command must write the same bytes. ``check()`` then checks the
    reference outputs, after the timed rounds, so that the checks' memory
    stays out of ``peak_rss_mb``.
    """

    def __init__(self, cli, commands, work_dir: str):
        self.cli = cli
        self.commands = commands
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.stdout: dict[str, str] = {}
        self.reference: dict[str, dict[str, bytes]] = {}
        self.repeats: dict[str, int] = {cmd.name: 0 for cmd in self.commands}
        self.cal_reps: list[float] = []

    def _invoke(self, cmd, out_dir: str):
        shutil.rmtree(out_dir, ignore_errors=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(cmd.argv + ["--out", out_dir])
        except Exception as exc:  # a crashing command is a failed operation
            code, error = None, exc
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if code != 0:
            self.failed += 1
            error = error or f"exit code {code}: {stderr.getvalue().strip()}"
            self.problems.append(f"{cmd.name}: failed: {error}")
        return elapsed, stdout.getvalue(), error

    @staticmethod
    def _files(out_dir: str) -> dict[str, bytes]:
        files = {}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                files[name] = fh.read()
        return files

    def _out_dir(self, cmd) -> str:
        return os.path.join(self.work_dir, "reference", cmd.name)

    def warm_up(self) -> None:
        for cmd in self.commands:
            _, stdout, error = self._invoke(cmd, self._out_dir(cmd))
            if error is None:
                self.stdout[cmd.name] = stdout
                self.reference[cmd.name] = self._files(self._out_dir(cmd))

    def timed_round(self, calibrate: bool = True) -> list[tuple[float, float | None]]:
        """One round; each output must repeat the warm-up bytes.

        Returns each command's seconds with the mean calibration rep of
        the blocks right before and after it (None with
        ``calibrate=False``, as in traced rounds, which run no blocks).
        Every rep also goes to ``cal_reps``.
        """
        out = []
        before = speed.block(0.0) if calibrate else []
        self.cal_reps.extend(before)
        for cmd in self.commands:
            out_dir = os.path.join(self.work_dir, "repeat")
            elapsed, _, error = self._invoke(cmd, out_dir)
            if calibrate:
                after = speed.block(speed.BLOCK_SHARE * elapsed)
                self.cal_reps.extend(after)
                out.append((elapsed, statistics.fmean(before + after)))
                before = after
            else:
                out.append((elapsed, None))
            if error is not None:
                continue
            if self._files(out_dir) != self.reference.get(cmd.name):
                self.correct = False
                self.problems.append(f"{cmd.name}: repeat wrote other bytes than the warm-up")
            else:
                self.repeats[cmd.name] += 1
        return out

    def rounds(self, seconds: float, calibrate: bool = True) -> list[list[tuple[float, float]]]:
        """Timed rounds until ``seconds`` have passed (at least one)."""
        start = time.perf_counter()
        out = [self.timed_round(calibrate)]
        while time.perf_counter() - start < seconds:
            out.append(self.timed_round(calibrate))
        return out

    def check(self) -> None:
        """Check the warm-up outputs. A known fault fails the command in
        every round whose output repeated the checked bytes."""
        for cmd in self.commands:
            if cmd.name not in self.reference:
                continue
            try:
                cmd.check(self._out_dir(cmd), self.stdout[cmd.name])
            except workloads.KnownFault as exc:
                self.failed += 1 + self.repeats[cmd.name]
                self.problems.append(f"{cmd.name}: known fault: {exc}")
            except workloads.CheckFailed as exc:
                self.correct = False
                self.problems.append(f"{cmd.name}: WRONG OUTPUT: {exc}")


def wall_seconds(commands, rounds, run_rep: float) -> float:
    """Sum over commands of each command's median calibrated time.

    A short command's seconds are divided by the mean rep of the blocks
    around it, a long one's by ``run_rep``, the mean rep over the run;
    times ``speed.REF_REP_S``.
    """
    return speed.REF_REP_S * sum(
        statistics.median(t / (rep if cmd.short else run_rep) for t, rep in column)
        for cmd, column in zip(commands, zip(*rounds)))


def plain_wall(rounds) -> float:
    """Sum over commands of each command's median plain seconds."""
    return sum(statistics.median(elapsed for elapsed, _ in column) for column in zip(*rounds))


def layer_metrics(tracer) -> dict[str, float]:
    values = {name: 0.0 for name, _ in PER_LAYER}
    for name, busy in tracer.busy.items():
        if f"{name}_s" in values:
            values[f"{name}_s"] = busy
    for metric, (table, span) in _FROM_SPANS.items():
        values[metric] = float(getattr(tracer, table).get(span, 0))
    for name, count in tracer.counts.items():
        values[name] = float(count)
    values["trace.self_sum_s"] = sum(tracer.self_time.values())
    return values


def traced_run(runner, seconds: float, work_dir: str) -> dict[str, float]:
    import tracing

    untraced = runner.rounds(seconds / 2, calibrate=False)
    per_round = []
    with tracing.Tracer() as tracer:
        start = time.perf_counter()
        while True:
            tracer.reset()
            wall = sum(t for t, _ in runner.timed_round(calibrate=False))
            per_round.append(dict(layer_metrics(tracer), **{"trace.wall_s": wall}))
            if time.perf_counter() - start >= seconds / 2:
                break
        spans = list(tracer.spans)
    with tracing.Tracer(memory=True) as mem:
        runner.timed_round(calibrate=False)
    metrics = {name: statistics.median(r[name] for r in per_round) for name, _ in PER_LAYER
               if name in per_round[0]}
    metrics["trace.untraced_wall_s"] = statistics.median(sum(t for t, _ in r) for r in untraced)
    metrics["montecarlo.run_ensemble_peak_mb"] = float(
        mem.counts.get("montecarlo.run_ensemble_peak_mb", 0.0))
    origin = spans[0][1] if spans else 0.0
    with open(os.path.join(work_dir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                   "spans": [[n, round(s - origin, 9), round(e - origin, 9), p]
                             for n, s, e, p in spans]}, fh)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "zenosim", "__init__.py")):
        print(f"no zenosim source tree at {SRC}", file=sys.stderr)
        return 2
    setup_s, import_s = measure_setup(SETUP_INTERPRETERS)

    sys.path.insert(0, SRC)
    import zenosim
    import zenosim.cli

    if not os.path.realpath(zenosim.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"zenosim was imported from {zenosim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work_dir = os.path.join(WORK, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    commands = workloads.build(args.workload, args.seed, os.path.join(work_dir, "config"),
                               workloads.References())
    runner = Runner(zenosim.cli, commands, work_dir)
    runner.warm_up()

    if args.trace:
        metrics = traced_run(runner, args.seconds, work_dir)
        metrics["import.zenosim_s"] = import_s
        units = dict(PER_LAYER)
    else:
        rounds = runner.rounds(args.seconds)
        run_rep = statistics.fmean(runner.cal_reps)
        for k, times in enumerate(rounds):
            print(f"round {k}: " + " ".join(f"{t:.4f}" for t, _ in times), file=sys.stderr)
        print(f"plain wall: {plain_wall(rounds):.4f} s; "
              f"mean calibration rep {run_rep * 1e3:.4f} ms", file=sys.stderr)
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_seconds(commands, rounds, run_rep),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    runner.check()

    for problem in runner.problems:
        print(problem, file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:36s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
