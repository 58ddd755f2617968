"""Command-line front end.

Subcommands:

* ``presets``          list the preset catalog (``--dump`` echoes every parameter)
* ``preset NAME``      run one preset (``--seed``, ``--out``)
* ``run CONFIG``       run a config-file experiment (generic or preset delegation)
* ``rate CONFIG``      emit analytic + empirical rate curves for a fixed-m config

Exit codes: 0 success, 1 configuration problem, 2 numerical failure.
The default output directory comes from ``--out`` or the ``ZENOSIM_OUTDIR``
environment variable, falling back to the working directory.
"""

from __future__ import annotations

import argparse
import difflib
import os
import sys

from .csvout import write_csv
from .dynamics import ZeroVarianceError, zeno_time
from .expconfig import ConfigError, ExperimentConfig, load_config
from .intervals import (
    DiscreteIntervals,
    InfiniteMeanError,
    InfiniteSecondMomentError,
    QuadratureNoConvergenceError,
)
from .ldstats import (
    LdProblem,
    OutOfRangeError,
    RootBracketFailureError,
    qze_condition,
    rate_curve,
    survival_stats,
    survival_stats_for,
)
from .montecarlo import (
    EnsembleConfig,
    InsufficientSamplesError,
    empirical_rate,
    ensemble_summary,
    run_ensemble,
)
from .presets import PRESETS, list_presets, run_preset
from .svgplot import Series, write_svg

_NUMERICAL_ERRORS = (
    QuadratureNoConvergenceError,
    RootBracketFailureError,
    OutOfRangeError,
    ZeroVarianceError,
    InfiniteMeanError,
    InfiniteSecondMomentError,
)


def _out_dir(arg: str | None) -> str:
    return arg or os.environ.get("ZENOSIM_OUTDIR") or "."


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _print_summary(cfg: ExperimentConfig, ens) -> None:
    h, psi0, dist, m = cfg.hamiltonian, cfg.state, cfg.dist, cfg.m
    print("summary")
    if m is not None:
        try:
            if isinstance(dist, DiscreteIntervals):
                stats = survival_stats(LdProblem.for_system(h, psi0, dist, m))
            else:
                stats = survival_stats_for(dist, h, psi0, m)
            print(f"  ln P*   = {_fmt(stats.log_p_star)}")
            print(f"  ln <P>  = {_fmt(stats.log_p_mean)}")
        except QuadratureNoConvergenceError:
            print("  ln P*   = n/a (expectation quadrature did not converge)")
    try:
        tz = zeno_time(h, psi0)
        print(f"  tau_Z   = {_fmt(tz)} s")
    except ZeroVarianceError:
        tz = None
        print("  tau_Z   = infinite (eigenstate)")
    if tz is not None:
        try:
            cond = qze_condition(dist, h, psi0, m)
            print(f"  <delta> = {_fmt(cond.delta_mean)}")
        except InfiniteSecondMomentError:
            print("  <delta> = n/a (infinite second moment)")
    summ = ensemble_summary(ens)
    print(f"  sample ln<P>       = {_fmt(summ.log_mean_survival)}")
    print(f"  sample ln geo-mean = {_fmt(summ.log_geometric_mean)}")
    print(f"  sample mean T      = {_fmt(summ.mean_total_time)} s")


def _ensemble_from_config(cfg: ExperimentConfig) -> EnsembleConfig:
    if cfg.dist is None:
        raise ConfigError("this command needs a [distribution] section")
    if cfg.mode is None:
        raise ConfigError("this command needs run.mode")
    return EnsembleConfig(
        dist=cfg.dist,
        hamiltonian=cfg.hamiltonian,
        state=cfg.state,
        mode=cfg.mode,
        realizations=cfg.realizations,
        master_seed=cfg.seed,
        m=cfg.m,
        t_total=cfg.t_total,
    )


def _check_preset(name: str) -> None:
    """Reject an unknown preset name, suggesting close matches."""
    if name not in PRESETS:
        hints = difflib.get_close_matches(name, PRESETS, n=3)
        hint = f"; did you mean {', '.join(hints)}?" if hints else ""
        raise ConfigError(f"unknown preset {name!r}{hint}")


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args.out)
    if cfg.preset is not None:
        _check_preset(cfg.preset)
        written = run_preset(
            cfg.preset,
            seed=cfg.seed,
            out_dir=out,
            system=(cfg.hamiltonian, cfg.state),
            csv_path=os.path.join(out, cfg.csv_path) if cfg.csv_path else None,
            svg_path=os.path.join(out, cfg.svg_path) if cfg.svg_path else None,
        )
        print(f"preset {cfg.preset}: wrote {written['csv']} (seed {written['seed']})")
        return 0

    ens = run_ensemble(_ensemble_from_config(cfg))
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, cfg.csv_path or "ensemble.csv")
    rows = [
        (i, int(ens.ms[i]), float(ens.total_times[i]), float(ens.log_survivals[i]))
        for i in range(ens.n)
    ]
    write_csv(
        csv_path,
        ("realization_index", "m", "total_time_s", "log_survival"),
        rows,
        meta={"command": "run", "preset": "none", "seed": cfg.seed,
              "mode": cfg.mode},
    )
    print(f"wrote {csv_path} ({ens.n} realizations)")
    if cfg.svg_path:
        svg_path = os.path.join(out, cfg.svg_path)
        write_svg(
            svg_path,
            [Series("ln P", [r[0] for r in rows], [r[3] for r in rows], marker=True)],
            title="ensemble log-survival",
            xlabel="realization",
            ylabel="ln P",
        )
        print(f"wrote {svg_path}")
    _print_summary(cfg, ens)
    return 0


def _cmd_rate(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args.out)
    if not isinstance(cfg.dist, DiscreteIntervals):
        raise ConfigError("rate curves need a discrete waiting-time distribution")
    if cfg.mode != "fixed_m" or cfg.m is None:
        raise ConfigError("rate curves need mode = fixed_m and a measurement count")
    prob = LdProblem.for_system(cfg.hamiltonian, cfg.state, cfg.dist, cfg.m)

    ens = run_ensemble(_ensemble_from_config(cfg))
    est = empirical_rate(ens, bins=cfg.bins)
    os.makedirs(out, exist_ok=True)

    rows = []
    explicit = rate_curve(prob, points=200, method="explicit")
    tilting = rate_curve(prob, points=200, method="tilting")
    for name, curve in (("explicit", explicit), ("tilting", tilting)):
        for x, rate in zip(curve.xs, curve.rates):
            rows.append((name, float(x), float(rate), ""))
    for x, rate, count in zip(est.centers, est.rates, est.counts):
        rows.append(("empirical", float(x), float(rate), int(count)))
    csv_path = os.path.join(out, cfg.csv_path or "rate.csv")
    write_csv(
        csv_path,
        ("series", "x", "rate", "count"),
        rows,
        meta={"command": "rate", "preset": "none", "seed": cfg.seed,
              "m": cfg.m, "realizations": cfg.realizations},
    )
    print(f"wrote {csv_path}")
    if cfg.svg_path:
        svg_path = os.path.join(out, cfg.svg_path)
        write_svg(
            svg_path,
            [
                Series("analytic", list(explicit.xs), list(explicit.rates)),
                Series("empirical", list(est.centers), list(est.rates), marker=True),
            ],
            title="rate function",
            xlabel="ln P / m",
            ylabel="I",
        )
        print(f"wrote {svg_path}")
    return 0


def _cmd_preset(args) -> int:
    _check_preset(args.name)
    written = run_preset(args.name, seed=args.seed, out_dir=_out_dir(args.out))
    print(f"preset {args.name}: wrote {written['csv']} (seed {written['seed']})")
    return 0


def _cmd_presets(args) -> int:
    print(list_presets(dump=args.dump))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenosim",
        description="Survival statistics under randomly timed projective measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment described by a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_preset = sub.add_parser("preset", help="run a named preset")
    p_preset.add_argument("name")
    p_preset.add_argument("--seed", type=int, default=None)
    p_preset.add_argument("--out", default=None)
    p_preset.set_defaults(func=_cmd_preset)

    p_list = sub.add_parser("presets", help="list available presets")
    p_list.add_argument("--dump", action="store_true", help="echo full parameters")
    p_list.set_defaults(func=_cmd_presets)

    p_rate = sub.add_parser("rate", help="emit analytic and empirical rate curves")
    p_rate.add_argument("config")
    p_rate.add_argument("--out", default=None)
    p_rate.set_defaults(func=_cmd_rate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, KeyError, InsufficientSamplesError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
