"""Tests of the benchmark itself (not collected by the zenosim suite).

    python3 -m pytest bench/test_bench.py

Each workload runs once at a tiny size and must pass its checks; then one
output value at a time is perturbed by 1e-6 relative and the check that
covers it must fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import zenosim.cli  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    return workloads.References()


@pytest.fixture(scope="module")
def smoke(refs, tmp_path_factory):
    """Each workload at tiny size: warm-up, one timed round, checks."""
    done = {}

    def get(name):
        if name not in done:
            work_dir = str(tmp_path_factory.mktemp(name))
            commands = workloads.build(name, 7, os.path.join(work_dir, "config"), refs,
                                       size="tiny")
            runner = run.Runner(zenosim.cli, commands, work_dir)
            runner.warm_up()
            runner.timed_round(calibrate=False)
            runner.check()
            done[name] = runner
        return done[name]
    return get


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_passes_its_checks(smoke, name):
    runner = smoke(name)
    assert runner.correct, runner.problems
    assert runner.attempted == 2 * len(runner.commands)
    known = [p for p in runner.problems if "known fault" in p]
    assert runner.problems == known
    # the only tolerated failure is fig4's documented quadrature error
    assert runner.failed == 2 * len(known)
    assert all(p.startswith("fig4:") for p in known)


def _perturb(path: str, row: int, column: int) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\r\n")
    cells = lines[2 + row].split(",")
    cells[column] = f"{float(cells[column]) * (1.0 + 1e-6):.16e}"
    lines[2 + row] = ",".join(cells)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(lines))


PERTURBATIONS = [
    # (workload, command, file, data row, column)
    ("ensemble_short", "run", "short.csv", 3, 2),
    ("ensemble_short", "run", "short.csv", 5, 3),
    ("ensemble_fixed_T", "run", "fixed_t.csv", 4, 2),
    ("ensemble_fixed_T", "run", "fixed_t.csv", 9, 3),
    ("long_sequence", "run", "long.csv", 1, 2),
    ("long_sequence", "run", "long.csv", 0, 3),
    ("presets", "fig1-d2", "fig1-d2.csv", 2, 2),
    ("presets", "fig1-d3", "fig1-d3.csv", 5, 1),
    ("presets", "fig1-d4", "fig1-d4.csv", 7, 1),
    ("presets", "fig2", "fig2.csv", 17, 1),
    ("presets", "fig2", "fig2.csv", 40, 2),
    ("presets", "fig3", "fig3.csv", 11, 1),
    ("presets", "fig3", "fig3.csv", 30, 2),
    ("presets", "fig4", "fig4.csv", 4, 3),
    ("presets", "fig4", "fig4.csv", 20, 2),
    ("presets", "fig5", "fig5.csv", 60, 1),
    ("presets", "fig5", "fig5.csv", 61, 2),
    ("presets", "fig6", "fig6.csv", 100, 3),
    ("presets", "rate", "rate.csv", 50, 2),
    ("presets", "rate", "rate.csv", 250, 2),
    ("presets", "rate", "rate.csv", 405, 2),
]


@pytest.mark.parametrize("name,command,filename,row,column", PERTURBATIONS)
def test_check_fails_on_perturbed_value(smoke, tmp_path, name, command, filename, row, column):
    runner = smoke(name)
    cmd = next(c for c in runner.commands if c.name == command)
    out = tmp_path / command
    shutil.copytree(runner._out_dir(cmd), out)
    try:  # the copy passes as it is, but for fig4's known fault
        cmd.check(str(out), runner.stdout[command])
    except workloads.KnownFault:
        assert command == "fig4"
    _perturb(str(out / filename), row, column)
    with pytest.raises(workloads.CheckFailed) as info:
        cmd.check(str(out), runner.stdout[command])
    assert not isinstance(info.value, workloads.KnownFault)


def test_tracer_reports_every_layer_and_restores_zenosim(refs, tmp_path):
    original = zenosim.cli.main
    commands = workloads.build("ensemble_fixed_T", 3, str(tmp_path / "config"), refs, size="tiny")
    runner = run.Runner(zenosim.cli, commands, str(tmp_path))
    runner.warm_up()
    with tracing.Tracer() as tracer:
        wall = sum(t for t, _ in runner.timed_round(calibrate=False))
        metrics = run.layer_metrics(tracer)
    assert zenosim.cli.main is original
    names = {name for name, _ in run.PER_LAYER}
    assert set(metrics) == names
    assert metrics["rng.select_calls"] == 40
    assert metrics["intervals.draws"] >= metrics["dynamics.lnq_vector_evals"] > 0
    assert abs(metrics["trace.self_sum_s"] - wall) <= 0.03 * wall
    assert {s[0] for s in tracer.spans} >= {"cli.main", "montecarlo.run_ensemble", "rng.select"}


def test_fails_without_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "presets", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    json.loads((tmp_path / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
