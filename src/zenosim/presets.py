"""Ready-made experiment presets.

Eight canned parameter sets covering the standard demonstrations: typical
vs most probable survival for discrete waiting-time laws of 2 to 4 atoms,
the concentration of single-run survivals around the typical value, the
log-linear dependence on the atom probability, heavy-tailed waiting
times, and the two disorder-vs-equal-spacing comparisons at fixed mean.

All presets use the default 3-level chain (coupling 2*pi*100 kHz, level
frequencies 2*pi*(30, 20, 10) kHz) and the balanced outer-level initial
state unless the caller passes another system.

Each preset writes one CSV (schema in ``columns``) plus an optional SVG
rendering. Output is a pure function of (preset, seed): reruns are
byte-identical.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .csvout import write_csv
from .dynamics import Hamiltonian, PureState, build_chain_hamiltonian, entangled_initial_state
from .intervals import DiscreteIntervals, PowerLawIntervals
from .ldstats import disorder_gain, survival_stats_for
from .montecarlo import EnsembleConfig, run_ensemble, run_ensembles
from .rng import DEFAULT_SEED
from .svgplot import Series, write_svg

__all__ = ["Preset", "PRESETS", "default_system", "list_presets", "run_preset"]

_NS = 1e-9
_US = 1e-6

#: sweep of measurement counts used by the survival-vs-m presets
_M_SWEEP = (50, 100, 200, 400, 800, 1600, 3200, 6400)
#: ensemble size behind each "typical realization" (median) pick
_TYPICAL_N = 25

_ATOMS = {
    2: ((1 * _NS, 3 * _NS), (0.3, 0.7)),
    3: ((1 * _NS, 3 * _NS, 2 * _NS), (0.3, 0.2, 0.5)),
    4: ((1 * _NS, 3 * _NS, 2 * _NS, 0.5 * _NS), (0.3, 0.2, 0.05, 0.45)),
}


def default_system() -> tuple[Hamiltonian, PureState]:
    """The 3-level chain and balanced entangled state all presets share."""
    two_pi = 2.0 * math.pi
    h = build_chain_hamiltonian(
        [two_pi * 30e3, two_pi * 20e3, two_pi * 10e3], two_pi * 100e3
    )
    return h, entangled_initial_state()


def _discrete(d: int) -> DiscreteIntervals:
    values, probs = _ATOMS[d]
    return DiscreteIntervals(np.asarray(values), np.asarray(probs))


def _typical_config(h, psi0, dist, m, seed) -> EnsembleConfig:
    return EnsembleConfig(
        dist=dist, hamiltonian=h, state=psi0, mode="fixed_m",
        realizations=_TYPICAL_N, master_seed=seed, m=m,
    )


def _rows_survival_vs_m(h, psi0, seed, dists):
    """(m, typical L, m ln P*) over ``_M_SWEEP`` for each law of ``dists``:
    one seed and n, so every (law, m) reads the same words, drawn once."""
    ensembles = iter(run_ensembles([_typical_config(h, psi0, dist, m, seed)
                                    for dist in dists for m in _M_SWEEP]))
    rows = []
    for dist in dists:
        per_m = survival_stats_for(dist, h, psi0, 1).log_p_star
        rows.append([(m, next(ensembles).typical_log_survival(), m * per_m) for m in _M_SWEEP])
    return rows


def _rows_concentration(h, psi0, seed):
    dist = _discrete(2)
    m = 2000
    ens = run_ensemble(EnsembleConfig(
        dist=dist, hamiltonian=h, state=psi0, mode="fixed_m",
        realizations=100, master_seed=seed, m=m,
    ))
    star = survival_stats_for(dist, h, psi0, m).log_p_star
    return [(i, float(ls), star) for i, ls in enumerate(ens.log_survivals)]


def _rows_probability_sweep(h, psi0, seed):
    values, _ = _ATOMS[2]
    m = 6400
    p1s = np.linspace(0.02, 0.98, 49).tolist()
    dists = [DiscreteIntervals(np.asarray(values), np.asarray([p1, 1.0 - p1])) for p1 in p1s]
    # one seed and n: the 49 laws read the same words, drawn once
    ensembles = run_ensembles([_typical_config(h, psi0, dist, m, seed) for dist in dists])
    return [(p1, ens.typical_log_survival(), survival_stats_for(dist, h, psi0, m).log_p_star)
            for p1, dist, ens in zip(p1s, dists, ensembles)]


def _rows_powerlaw(h, psi0, seed):
    alphas = (2.5, 3.0, 4.0)
    sweeps = _rows_survival_vs_m(h, psi0, seed, [PowerLawIntervals(1 * _NS, a) for a in alphas])
    return [(alpha,) + row for alpha, rows in zip(alphas, sweeps) for row in rows]


def _gain_rows(x, gain):
    return list(zip(x.tolist(), gain.log_p_star.tolist(), gain.log_p_equal.tolist(),
                    gain.ratio.tolist()))


def _rows_disorder_probability(h, psi0, seed):
    mu0 = 10 * _US
    p1 = np.linspace(0.005, 0.995, 199)
    return _gain_rows(p1, disorder_gain(h, psi0, p1, mu1=mu0, mu_bar=2.4 * mu0, m=100))


def _rows_disorder_scale(h, psi0, seed):
    mu1 = np.linspace(1.0, 250.0, 250) * _NS
    return _gain_rows(mu1, disorder_gain(h, psi0, 0.99, mu1=mu1, mu_bar=2.4 * mu1, m=100))


@dataclass(frozen=True)
class Preset:
    name: str
    summary: str
    params: dict
    columns: tuple
    runner: Callable
    plot: dict  # x: column, series: [(column, marker)], labels


PRESETS: dict[str, Preset] = {}


def _register(preset: Preset) -> None:
    PRESETS[preset.name] = preset


for _d in (2, 3, 4):
    _values, _probs = _ATOMS[_d]
    _register(Preset(
        name=f"fig1-d{_d}",
        summary=f"survival vs measurement count, {_d}-atom waiting times",
        params={
            "values_ns": tuple(v / _NS for v in _values),
            "probs": _probs,
            "m_sweep": _M_SWEEP,
            "typical_ensemble": _TYPICAL_N,
        },
        columns=("m", "log_P_typical", "log_P_star"),
        runner=(lambda h, s, seed, d=_d: _rows_survival_vs_m(h, s, seed, [_discrete(d)])[0]),
        plot={
            "x": "m", "xlabel": "measurements m",
            "ylabel": "ln survival",
            "series": (("log_P_typical", True), ("log_P_star", False)),
        },
    ))

_register(Preset(
    name="fig2",
    summary="100 single-run survivals at m=2000 vs the typical value",
    params={"d": 2, "values_ns": (1.0, 3.0), "probs": (0.3, 0.7),
            "m": 2000, "realizations": 100},
    columns=("realization_index", "log_P", "log_P_star"),
    runner=_rows_concentration,
    plot={
        "x": "realization_index", "xlabel": "realization",
        "ylabel": "ln survival",
        "series": (("log_P", True), ("log_P_star", False)),
    },
))

_register(Preset(
    name="fig3",
    summary="survival vs atom probability p1 for two-atom waiting times",
    params={"values_ns": (1.0, 3.0), "m": 6400, "p1_points": 49,
            "typical_ensemble": _TYPICAL_N},
    columns=("p1", "log_P_typical", "log_P_star"),
    runner=_rows_probability_sweep,
    plot={
        "x": "p1", "xlabel": "p1", "ylabel": "ln survival",
        "series": (("log_P_typical", True), ("log_P_star", False)),
    },
))

_register(Preset(
    name="fig4",
    summary="survival vs m for power-law waiting times (alpha > 2)",
    params={"mu0_ns": 1.0, "alphas": (2.5, 3.0, 4.0), "m_sweep": _M_SWEEP,
            "typical_ensemble": _TYPICAL_N},
    columns=("alpha", "m", "log_P_typical", "log_P_star"),
    runner=_rows_powerlaw,
    plot={
        "x": "m", "xlabel": "measurements m", "ylabel": "ln survival",
        "series": (("log_P_typical", True), ("log_P_star", False)),
        "group_by": "alpha",
    },
))

_register(Preset(
    name="fig5",
    summary="random vs equally spaced schedules at fixed mean, p1 sweep",
    params={"mu0_us": 10.0, "mu1": "mu0", "mu_bar": "2.4 mu0", "m": 100,
            "p1_points": 199},
    columns=("p1", "log_P_star", "log_P_equal", "ratio"),
    runner=_rows_disorder_probability,
    plot={
        "x": "p1", "xlabel": "p1", "ylabel": "ln survival",
        "series": (("log_P_star", False), ("log_P_equal", False)),
    },
))

_register(Preset(
    name="fig6",
    summary="disorder gain ratio vs time scale at p1=0.99, fixed mean",
    params={"p1": 0.99, "m": 100, "mu_bar": "2.4 mu1",
            "mu1_range_ns": (1.0, 250.0), "points": 250},
    columns=("mu1_s", "log_P_star", "log_P_equal", "ratio"),
    runner=_rows_disorder_scale,
    plot={
        "x": "mu1_s", "xlabel": "mu1 (s)", "ylabel": "P*/P(mean spacing)",
        "series": (("ratio", False),),
    },
))


def list_presets(dump: bool = False) -> str:
    """Human-readable catalog, one preset per line (or full echo)."""
    lines = []
    for preset in PRESETS.values():
        lines.append(f"{preset.name:10s}  {preset.summary}")
        if dump:
            for key, value in preset.params.items():
                lines.append(f"{'':10s}    {key} = {value}")
            lines.append(f"{'':10s}    columns = {','.join(preset.columns)}")
            lines.append(f"{'':10s}    default_seed = {DEFAULT_SEED}")
    return "\n".join(lines)


def _plot_rows(preset: Preset, rows, svg_path: str) -> None:
    cols = {name: i for i, name in enumerate(preset.columns)}
    layout = preset.plot
    xi = cols[layout["x"]]
    groups = [("", rows)]
    if "group_by" in layout:
        gi = cols[layout["group_by"]]
        keys = sorted({row[gi] for row in rows})
        groups = [
            (f"{layout['group_by']}={key:g} ", [r for r in rows if r[gi] == key])
            for key in keys
        ]
    series = []
    for prefix, grouped in groups:
        for col, marker in layout["series"]:
            series.append(Series(
                label=prefix + col,
                xs=[float(r[xi]) for r in grouped],
                ys=[float(r[cols[col]]) for r in grouped],
                marker=marker,
            ))
    write_svg(svg_path, series, title=preset.name,
              xlabel=layout.get("xlabel", ""), ylabel=layout.get("ylabel", ""))


def run_preset(
    name: str,
    seed: int | None = None,
    out_dir: str = ".",
    system: tuple[Hamiltonian, PureState] | None = None,
    csv_path: str | None = None,
    svg_path: str | None = None,
) -> dict:
    """Execute a preset and write its artifacts.

    Returns a small manifest: the resolved seed and the paths written.
    """
    if name not in PRESETS:
        raise KeyError(name)
    preset = PRESETS[name]
    used_seed = DEFAULT_SEED if seed is None else int(seed)
    h, psi0 = system if system is not None else default_system()
    rows = preset.runner(h, psi0, used_seed)

    os.makedirs(out_dir, exist_ok=True)
    csv_path = csv_path or os.path.join(out_dir, f"{name}.csv")
    write_csv(csv_path, preset.columns, list(zip(*rows, strict=True)),
              meta={"preset": name, "seed": used_seed})
    written = {"seed": used_seed, "csv": csv_path}
    svg_path = svg_path or os.path.join(out_dir, f"{name}.svg")
    _plot_rows(preset, rows, svg_path)
    written["svg"] = svg_path
    return written
