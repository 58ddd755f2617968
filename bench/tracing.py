"""Spans and counters around zenosim's public functions, installed from
outside the package.

``Tracer`` replaces each traced function wherever zenosim modules bound
it (``from .x import f`` copies the name), records a span (name, start,
end, parent) per call, and restores every original on exit. Hot scalar
helpers get a call counter but no span. Self times are accumulated as
spans close: a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from collections import defaultdict

#: (module, attribute path, span name); a class method is "Class.method"
SPANNED = (
    ("zenosim.cli", "main", "cli.main"),
    ("zenosim.expconfig", "load_config", "expconfig.load_config"),
    ("zenosim.linalg", "hermitian_eig", "linalg.hermitian_eig"),
    ("zenosim.rng", "StreamFamily.select", "rng.select"),
    ("zenosim.intervals", "DiscreteIntervals.sample", "intervals.sample"),
    ("zenosim.intervals", "PowerLawIntervals.sample", "intervals.sample"),
    ("zenosim.intervals", "DegenerateInterval.sample", "intervals.sample"),
    ("zenosim.intervals", "PowerLawIntervals.expect_windowed", "intervals.expect_windowed"),
    ("zenosim.dynamics", "log_survival_factors", "dynamics.lnq_vector"),
    ("zenosim.montecarlo", "run_ensemble", "montecarlo.run_ensemble"),
    ("zenosim.montecarlo", "ensemble_summary", "montecarlo.ensemble_summary"),
    ("zenosim.montecarlo", "empirical_rate", "montecarlo.empirical_rate"),
    ("zenosim.ldstats", "survival_stats_for", "ldstats.survival_stats_for"),
    ("zenosim.ldstats", "LdProblem.for_system", "ldstats.for_system"),
    ("zenosim.ldstats", "disorder_gain", "ldstats.disorder_gain"),
    ("zenosim.ldstats", "cramer_rate", "ldstats.cramer_rate"),
    ("zenosim.ldstats", "rate_curve", "ldstats.rate_curve"),
    ("zenosim.presets", "run_preset", "presets"),
    ("zenosim.csvout", "write_csv", "csvout.write_csv"),
    ("zenosim.svgplot", "write_svg", "svgplot.write_svg"),
)
#: hot helpers that are counted, not spanned
COUNTED = (
    ("zenosim.dynamics", "log_survival_factor", "dynamics.lnq_scalar_calls"),
    ("zenosim.dynamics", "delta_of_mu", "dynamics.delta_calls"),
    ("zenosim.dynamics", "phase_weights", "dynamics.phase_weights_calls"),
)


class Tracer:
    """Context manager that traces zenosim while active.

    ``busy[name]`` and ``self_time[name]`` sum span durations and self
    times, ``calls[name]`` counts spans, ``counts`` holds work counters.
    ``spans`` keeps the raw spans since the last ``reset()``.
    With ``memory=True`` each ``run_ensemble`` call runs under tracemalloc
    and its peak is kept in ``counts['montecarlo.run_ensemble_peak_mb']``.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []  # [name, start, child time, span index]
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Forget all spans and totals (between rounds)."""
        for table in (self.busy, self.self_time, self.calls, self.counts):
            table.clear()
        self.spans = []

    # -- spans ----------------------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append([name, time.perf_counter(), 0.0, len(self.spans) - 1])

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child, index = self._stack.pop()
        duration = end - start
        self.spans[index] = (name, start, end, self.spans[index][3])
        self.busy[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def _spanned(self, fn, name: str):
        tracer = self

        if name == "presets":
            @functools.wraps(fn)
            def wrapper(preset, *args, **kwargs):
                tracer._enter(f"presets.{preset}")
                try:
                    return fn(preset, *args, **kwargs)
                finally:
                    tracer._exit()
        elif name == "intervals.sample":
            @functools.wraps(fn)
            def wrapper(dist, rng, m):
                tracer._enter(name)
                try:
                    return fn(dist, rng, m)
                finally:
                    tracer._exit()
                    tracer.counts["intervals.draws"] += m
        elif name == "dynamics.lnq_vector":
            @functools.wraps(fn)
            def wrapper(lam, w, mus):
                tracer._enter(name)
                try:
                    return fn(lam, w, mus)
                finally:
                    tracer._exit()
                    tracer.counts["dynamics.lnq_vector_evals"] += len(mus)
        elif name == "intervals.expect_windowed":
            @functools.wraps(fn)
            def wrapper(dist, g, **kwargs):
                def counted(mu):
                    tracer.counts["intervals.integrand_evals"] += 1
                    return g(mu)
                tracer._enter(name)
                try:
                    return fn(dist, counted, **kwargs)
                finally:
                    tracer._exit()
        elif name == "csvout.write_csv":
            @functools.wraps(fn)
            def wrapper(path, *args, **kwargs):
                tracer._enter(name)
                try:
                    return fn(path, *args, **kwargs)
                finally:
                    tracer._exit()
                    tracer.counts["csvout.bytes"] += os.path.getsize(path)
        elif name == "montecarlo.run_ensemble" and self.memory:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracemalloc.start()
                tracer._enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit()
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    key = "montecarlo.run_ensemble_peak_mb"
                    tracer.counts[key] = max(tracer.counts[key], peak)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer._enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit()
        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------------

    def _replace(self, module_name: str, path: str, make) -> None:
        owner = sys.modules[module_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
            self._set(owner, attr, wrapped)
            return
        wrapped = make(raw)
        self._set(owner, attr, wrapped)
        if outer:
            return
        # rebind copies made by `from .module import name`
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "zenosim" or mod_name.startswith("zenosim.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._set(mod, key, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        for module_name, path, name in SPANNED:
            self._replace(module_name, path, lambda fn, name=name: self._spanned(fn, name))
        for module_name, path, name in COUNTED:
            self._replace(module_name, path, lambda fn, name=name: self._counted(fn, name))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
